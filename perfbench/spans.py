"""Request tracing from outside the program.

:class:`Tracer` records spans (name, start ns, end ns, parent span,
request id) in memory; :class:`Instrumentation` wraps public functions
and methods of the program's modules so that each call becomes a span.
Wrapping happens in the benchmark's process only and is undone after
every traced slice, so the untraced slices of a traced run execute the
program exactly as an untraced run does.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.request = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                [name, time.perf_counter_ns(), 0, parent, self.request]
            )
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack().pop()

    def new_request(self) -> None:
        self.request += 1

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "request": request}
                    )
                    + "\n"
                )


class Instrumentation:
    """Wrap program callables so each call is recorded as a span."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._targets: list[tuple] = []
        self._saved: list[tuple[object, str, object]] = []
        self._sites: dict[int, list[tuple[object, str]]] = {}
        #: Per span name: (args, result) of calls whose span asked for it.
        self.observed: dict[str, list] = defaultdict(list)

    def method(self, cls, attr: str, span: str, **options) -> "Instrumentation":
        """Trace ``cls.attr``. ``when(*args, **kwargs)`` limits the span
        to calls it accepts; ``observe=True`` keeps (args, result)."""
        self._targets.append((cls, attr, span, True, options))
        return self

    def function(self, module, attr: str, span: str, **options) -> "Instrumentation":
        self._targets.append((module, attr, span, False, options))
        return self

    def _wrap(self, original, span: str, when=None, observe=False):
        tracer = self.tracer
        observed = self.observed[span]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return original(*args, **kwargs)
            index = tracer.begin(span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if observe:
                observed.append((args, result))
            return result

        return wrapper

    def _function_sites(self, original) -> list[tuple[object, str]]:
        """Every module attribute holding ``original`` (functions imported
        by name are patched at each use site); found once, then cached."""
        sites = self._sites.get(id(original))
        if sites is None:
            sites = [
                (module, name)
                for module in list(sys.modules.values())
                for name, value in list(getattr(module, "__dict__", {}).items())
                if value is original
            ]
            self._sites[id(original)] = sites
        return sites

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, span, is_method, options in self._targets:
            if is_method:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, span, **options))
                else:
                    wrapped = self._wrap(raw, span, **options)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, span, **options)
            for module, name in self._function_sites(original):
                self._saved.append((module, name, original))
                setattr(module, name, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
