"""`ClusterQueryService`: the `QueryService` surface over a worker pool.

The in-process serving stack is ``QueryService`` → ``Session`` →
``Cursor``; this module mirrors that surface on the *decoded* plane so
callers (:class:`~repro.service.http.SparqlHttpServer`, benchmarks,
tests) can swap the two without changing shape:

* :class:`ClusterQueryService` — owns a
  :class:`~repro.service.cluster.pool.WorkerPool`; ``session`` /
  ``execute_decoded`` / ``worker_count`` match the single-process
  service's signatures, and ``stats`` returns the ``/stats`` body with
  an aggregated ``cluster`` section.
* :class:`ClusterSession` — the protocol surface: bounded open
  cursors (:class:`~repro.errors.CapacityError`), closed-session
  checks, typed :class:`~repro.service.protocol.QueryRequest` /
  :class:`~repro.service.protocol.UpdateRequest` messages.
* :class:`ClusterCursor` — pages a result exactly like the in-process
  :class:`~repro.service.protocol.Cursor` (same
  :class:`~repro.service.protocol.Page` type, same
  ``ParameterError`` / ``CursorExhaustedError`` / ``CursorClosedError``
  semantics), and duck-types the surface the
  :mod:`repro.service.formats` serializers read (``columns`` +
  ``pages()``), so every wire format streams from it unchanged.

One query is one frame exchange: the worker executes under its own
session (deadlines enforced worker-side), serializes the result with
the lossless ``SPB1`` binary rows, and the parent decodes them back to
lexical terms — byte-identical to in-process decoding because both
ends share the dictionary state by construction.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping

from repro.errors import (
    CapacityError,
    ConfigError,
    CursorClosedError,
    CursorExhaustedError,
    ParameterError,
    SessionClosedError,
    UnknownCursorError,
)
from repro.service.cluster import frames
from repro.service.cluster.pool import WorkerPool
from repro.service.formats import read_binary
from repro.service.protocol import (
    DEFAULT_PAGE_SIZE,
    Page,
    QueryRequest,
    UpdateRequest,
    UpdateResponse,
)


class ClusterCursor:
    """Client-side pagination over one worker-answered result."""

    def __init__(
        self,
        session: "ClusterSession",
        cursor_id: int,
        columns: tuple[str, ...],
        rows: list[tuple[str | None, ...]],
        page_size: int,
    ) -> None:
        if page_size < 1:
            raise ParameterError("cursor page_size must be >= 1")
        self.session = session
        self.cursor_id = cursor_id
        self._columns = columns
        self._rows = rows
        self.page_size = page_size
        self.position = 0
        self.closed = False
        self._done_served = False

    @property
    def columns(self) -> tuple[str, ...]:
        return self._columns

    @property
    def num_rows(self) -> int:
        return len(self._rows)

    def fetch(self, n: int | None = None) -> Page:
        """The next ``n`` rows (default one page); mirrors ``Cursor``."""
        if self.closed:
            raise CursorClosedError(f"cursor {self.cursor_id} is closed")
        if self._done_served:
            raise CursorExhaustedError(
                f"cursor {self.cursor_id} is exhausted (its final page "
                "was already served)"
            )
        count = self.page_size if n is None else n
        if count < 0:
            raise ParameterError("fetch count must be non-negative")
        start = self.position
        stop = min(start + count, len(self._rows))
        rows = tuple(self._rows[start:stop])
        self.position = stop
        done = self.position >= len(self._rows)
        if done:
            self._done_served = True
        return Page(columns=self._columns, rows=rows, offset=start, done=done)

    def fetch_all(self) -> list[tuple[str | None, ...]]:
        rows: list[tuple[str | None, ...]] = []
        while True:
            page = self.fetch()
            rows.extend(page.rows)
            if page.done:
                return rows

    def pages(self):
        while True:
            page = self.fetch()
            yield page
            if page.done:
                return

    def __iter__(self):
        for page in self.pages():
            yield from page.rows

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.session._release(self.cursor_id)

    def __enter__(self) -> "ClusterCursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"at {self.position}"
        return (
            f"<ClusterCursor {self.cursor_id} rows={len(self._rows)} "
            f"page={self.page_size} {state}>"
        )


class ClusterSession:
    """One client's protocol context over the worker pool."""

    def __init__(
        self,
        service: "ClusterQueryService",
        *,
        max_open_cursors: int = 64,
        default_page_size: int = DEFAULT_PAGE_SIZE,
        timeout_s: float | None = None,
    ) -> None:
        if max_open_cursors < 1:
            raise ConfigError("Session max_open_cursors must be >= 1")
        if default_page_size < 1:
            raise ConfigError("Session default_page_size must be >= 1")
        self.service = service
        self.max_open_cursors = max_open_cursors
        self.default_page_size = default_page_size
        self.timeout_s = timeout_s
        self.closed = False
        self._cursors: dict[int, ClusterCursor] = {}
        self._next_cursor = 0
        self._lock = threading.RLock()

    def _check_open(self) -> None:
        if self.closed:
            raise SessionClosedError("session is closed")

    def execute(
        self,
        request: QueryRequest | str,
        *,
        parameters: Mapping | None = None,
        page_size: int | None = None,
        timeout_s: float | None = None,
        name: str = "query",
        stream: bool = False,
    ) -> ClusterCursor:
        """Route one query to a worker and open a cursor on its rows."""
        if isinstance(request, str):
            request = QueryRequest(
                text=request,
                parameters=dict(parameters or {}),
                page_size=(
                    page_size
                    if page_size is not None
                    else self.default_page_size
                ),
                timeout_s=(
                    timeout_s if timeout_s is not None else self.timeout_s
                ),
                name=name,
                stream=stream,
            )
        self._check_open()
        if request.page_size < 1:
            raise ParameterError("cursor page_size must be >= 1")
        with self._lock:
            if len(self._cursors) >= self.max_open_cursors:
                raise CapacityError(
                    f"session has {len(self._cursors)} open cursors "
                    f"(max {self.max_open_cursors}); close some first"
                )
        effective_timeout = (
            request.timeout_s
            if request.timeout_s is not None
            else self.timeout_s
        )
        payload = {
            "text": request.text,
            "parameters": dict(request.parameters),
            "page_size": request.page_size,
            "timeout_s": effective_timeout,
            "name": request.name,
            "stream": request.stream,
        }
        if self.service.allow_test_hooks and "__test_delay_s" in payload[
            "parameters"
        ]:
            payload["test_delay_s"] = payload["parameters"].pop(
                "__test_delay_s"
            )
        body = self.service.pool.request(
            frames.QUERY, payload, timeout_s=effective_timeout
        )
        columns, rows = read_binary(body)
        with self._lock:
            self._check_open()
            if len(self._cursors) >= self.max_open_cursors:
                raise CapacityError(
                    f"session has {len(self._cursors)} open cursors "
                    f"(max {self.max_open_cursors}); close some first"
                )
            self._next_cursor += 1
            cursor = ClusterCursor(
                self,
                self._next_cursor,
                tuple(columns),
                rows,
                request.page_size,
            )
            self._cursors[self._next_cursor] = cursor
        return cursor

    def cursor(self, cursor_id: int) -> ClusterCursor:
        self._check_open()
        with self._lock:
            cursor = self._cursors.get(cursor_id)
        if cursor is None:
            raise UnknownCursorError(f"no open cursor with id {cursor_id}")
        return cursor

    def open_cursors(self) -> int:
        with self._lock:
            return len(self._cursors)

    def _release(self, cursor_id: int) -> None:
        with self._lock:
            self._cursors.pop(cursor_id, None)

    def explain(
        self, text: str, parameters: Mapping | None = None
    ) -> str:
        self._check_open()
        body = self.service.pool.request(
            frames.EXPLAIN,
            {"text": text, "parameters": dict(parameters or {})},
        )
        return frames.unpack(body)["text"]

    def update(self, request: UpdateRequest) -> UpdateResponse:
        """Apply a batch cluster-wide (parent store + every worker)."""
        self._check_open()
        result = self.service.pool.update(
            add=request.add, remove=request.remove
        )
        return UpdateResponse(
            added=result["added"],
            removed=result["removed"],
            data_version=result["data_version"],
        )

    def stats(self) -> dict:
        self._check_open()
        return self.service.stats()

    def close(self) -> None:
        with self._lock:
            if self.closed:
                return
            self.closed = True
            cursors = list(self._cursors.values())
            self._cursors.clear()
        for cursor in cursors:
            cursor.closed = True

    def __enter__(self) -> "ClusterSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (
            f"<ClusterSession {state} engine={self.service.engine!r} "
            f"cursors={self.open_cursors()}/{self.max_open_cursors}>"
        )


class ClusterQueryService:
    """Serve queries from N worker processes over shared segments.

    The multi-process counterpart of
    :class:`~repro.service.QueryService`: construct it over a store,
    :meth:`start` (or enter it as a context manager) to publish the
    store into shared memory and fork the workers, then execute through
    sessions, the decoded shim, or over HTTP with
    ``SparqlHttpServer(cluster, port=0)``. Closing shuts every worker
    down and unlinks every shared segment — a clean shutdown leaves
    zero stale names in ``/dev/shm``.
    """

    def __init__(
        self,
        store,
        engine: str = "emptyheaded",
        workers: int = 2,
        *,
        start_method: str | None = None,
        prefix: str = "repro-shm",
        allow_test_hooks: bool = False,
        **pool_options,
    ) -> None:
        self.store = store
        self.engine = engine
        self.allow_test_hooks = allow_test_hooks
        self.pool = WorkerPool(
            store,
            engine=engine,
            workers=workers,
            start_method=start_method,
            prefix=prefix,
            allow_test_hooks=allow_test_hooks,
            **pool_options,
        )
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> "ClusterQueryService":
        if not self._started:
            self.pool.start()
            self._started = True
        return self

    def close(self) -> None:
        self.pool.close()

    def __enter__(self) -> "ClusterQueryService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def session(
        self,
        *,
        max_open_cursors: int = 64,
        default_page_size: int | None = None,
        timeout_s: float | None = None,
        deadline_workers: int = 4,
    ) -> ClusterSession:
        """Open a protocol session (mirrors ``QueryService.session``).

        ``deadline_workers`` is accepted for signature parity and unused:
        deadlines are enforced by the worker that runs the query.
        """
        return ClusterSession(
            self,
            max_open_cursors=max_open_cursors,
            default_page_size=default_page_size or DEFAULT_PAGE_SIZE,
            timeout_s=timeout_s,
        )

    def execute_decoded(
        self,
        text: str,
        name: str = "query",
        parameters: Mapping | None = None,
    ) -> list[tuple[str | None, ...]]:
        """One query, decoded rows (mirrors the in-process shim)."""
        cursor = self.session().execute(
            text, parameters=parameters or {}, name=name
        )
        try:
            return cursor.fetch_all()
        finally:
            cursor.close()

    def worker_count(self) -> int:
        """Live worker processes (``/stats`` reports it)."""
        return self.pool.worker_count()

    def stats(self) -> dict:
        """Store counters plus the aggregated ``cluster`` section."""
        return {
            "engine": self.engine,
            "triples": self.store.num_triples,
            "tables": len(self.store.tables),
            "data_version": self.store.data_version,
            "compactions": self.store.compactions,
            "cluster": self.pool.stats(),
        }

    def __repr__(self) -> str:
        return (
            f"<ClusterQueryService engine={self.engine!r} "
            f"workers={self.pool.worker_count()}/{self.pool.workers}>"
        )


__all__ = ["ClusterCursor", "ClusterQueryService", "ClusterSession"]
