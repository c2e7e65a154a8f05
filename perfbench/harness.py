"""Measurement core: host-speed probe, scaled samples, statistics.

Every timing sample is wall-clock time multiplied by
``PROBE_REF_MS / probe``, where ``probe`` is the reading of a fixed,
deterministic kernel taken just before and just after the slice the
sample belongs to. A host whose CPU speed drifts during a run (shared
virtual machines do, by tens of percent within seconds) then reports
the time the same work would take on a host where the kernel takes
``PROBE_REF_MS``. Raw values are kept beside the scaled ones so a
drifting host can be told apart from a regression.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import socket
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

#: Reference reading of the probe kernel: scaled times are "on a host
#: where one probe kernel run takes this long".
PROBE_REF_MS = 4.0
#: Kernel runs per probe reading; the reading is their minimum.
PROBE_REPS = 3
#: Minimum wall-clock length of one measured slice between two probe
#: readings.
SLICE_S = 0.5

# The kernel's two halves take about the same time: interpreter-bound
# dict and sort work, and a numpy intersection of arrays larger than a
# core's private caches. Operations of the program slow down with host
# drift by less than the first alone and by more than the second alone.
_PROBE_RNG = np.random.default_rng(20160203)
_PROBE_A = np.unique(_PROBE_RNG.integers(0, 1 << 24, 160_000).astype(np.uint32))
_PROBE_B = np.unique(_PROBE_RNG.integers(0, 1 << 24, 160_000).astype(np.uint32))


def probe_kernel() -> int:
    """Fixed dict, sort and sorted-array intersection work (no repro code)."""
    table: dict[int, int] = {}
    for i in range(6000):
        table[(i * 7919) % 12011] = i
    ordered = sorted(table.items(), key=lambda kv: kv[1] ^ 0x5A5A)
    common = np.intersect1d(_PROBE_A, _PROBE_B, assume_unique=True)
    return len(ordered) + int(common.size)


def probe_ms(reps: int = PROBE_REPS, kernel=probe_kernel) -> float:
    """One probe reading: the fastest of ``reps`` kernel runs, in ms."""
    best = math.inf
    for _ in range(reps):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


class HandoffProbe:
    """A probe that adds thread hand-offs over a loopback socket pair to
    the kernel: the path every served request takes twice (client to
    server thread and back), whose cost under host contention moves
    differently from pure computation. Close it to stop its thread."""

    ROUND_TRIPS = 40

    def __init__(self) -> None:
        self._near, far = socket.socketpair()
        self._thread = threading.Thread(
            target=self._echo, args=(far,), name="perfbench-probe-echo",
            daemon=True,
        )
        self._thread.start()

    @staticmethod
    def _echo(sock) -> None:
        with sock:
            while sock.recv(1) == b"x":
                sock.sendall(b"x")

    def kernel(self) -> None:
        probe_kernel()
        for _ in range(self.ROUND_TRIPS):
            self._near.sendall(b"x")
            self._near.recv(1)

    def __call__(self, reps: int = PROBE_REPS) -> float:
        return probe_ms(reps, self.kernel)

    def close(self) -> None:
        self._near.sendall(b"q")
        self._thread.join(timeout=5)
        self._near.close()


def scale_for(before_ms: float, after_ms: float) -> float:
    """The factor applied to samples taken between two probe readings."""
    return PROBE_REF_MS / ((before_ms + after_ms) / 2.0)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return float(ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


def geomean(values) -> float:
    values = [v for v in values]
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak RSS (VmHWM) of a live process, in MB; 0.0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# ----------------------------------------------------------------------
# Result digests
# ----------------------------------------------------------------------
def relation_digest(relation) -> str:
    """Order-insensitive digest of an encoded result relation."""
    columns = [np.asarray(c, dtype=np.uint64) for c in relation.columns]
    hasher = hashlib.sha1(",".join(relation.attributes).encode())
    if columns and columns[0].size:
        order = np.lexsort(columns[::-1])
        for column in columns:
            hasher.update(np.ascontiguousarray(column[order]).tobytes())
    return hasher.hexdigest()


def rows_digest(rows) -> str:
    """Order-insensitive digest of decoded (lexical) result rows."""
    hasher = hashlib.sha1()
    for row in sorted("\x1f".join("\x00" if v is None else v for v in r) for r in rows):
        hasher.update(row.encode())
        hasher.update(b"\x1e")
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# Samples and the measured loop
# ----------------------------------------------------------------------
@dataclass
class Samples:
    """Timing samples of one run, keyed by (kind, request class)."""

    scaled: dict = field(default_factory=lambda: defaultdict(list))
    raw: dict = field(default_factory=lambda: defaultdict(list))
    probes: list = field(default_factory=list)
    factors: list = field(default_factory=list)
    scaled_busy_s: float = 0.0
    raw_busy_s: float = 0.0
    ops: int = 0

    def add_slice(self, pending, factor: float) -> None:
        self.factors.append(factor)
        for kind, cls, elapsed in pending:
            self.scaled[(kind, cls)].append(elapsed * factor * 1e3)
            self.raw[(kind, cls)].append(elapsed * 1e3)
            self.scaled_busy_s += elapsed * factor
            self.raw_busy_s += elapsed
            self.ops += 1

    def class_medians(self, kind: str, raw: bool = False) -> dict:
        source = self.raw if raw else self.scaled
        return {cls: median(v) for (k, cls), v in source.items() if k == kind}

    def pooled(self, kind: str, raw: bool = False) -> list:
        source = self.raw if raw else self.scaled
        return [x for (k, _), v in source.items() if k == kind for x in v]

    def count(self, kind: str) -> int:
        return sum(len(v) for (k, _), v in self.scaled.items() if k == kind)


def measure(seconds: float, next_op, samples_for, probe=None) -> None:
    """Run closed-loop operations for ``seconds`` of wall-clock time.

    ``next_op()`` performs one operation and returns
    ``(kind, request_class, elapsed_s, after)``; ``after`` is ``None`` or
    a callable run outside the timed region (result digests, reference
    checks). ``samples_for(index)`` is called before each slice and
    returns the :class:`Samples` that slice records into (the traced run
    alternates traced and untraced slices through it). ``probe`` returns
    one host-speed reading in ms (default :func:`probe_ms`). Callers
    freeze the set-up's objects first (``gc.freeze``) so the collection
    between slices only walks what the slice allocated.
    """
    probe = probe or probe_ms
    deadline = time.perf_counter() + seconds
    index = 0
    before = probe()
    # The cyclic collector runs between slices, outside every timed
    # region, instead of wherever an allocation happens to trigger it.
    gc.disable()
    try:
        while time.perf_counter() < deadline:
            samples = samples_for(index)
            pending = []
            slice_end = min(deadline, time.perf_counter() + SLICE_S)
            while time.perf_counter() < slice_end:
                kind, cls, elapsed, after = next_op()
                pending.append((kind, cls, elapsed))
                if after is not None:
                    after()
            gc.collect()
            after_ms = probe()
            samples.probes.append(after_ms)
            samples.add_slice(pending, scale_for(before, after_ms))
            before = after_ms
            index += 1
    finally:
        gc.enable()


def timed_setup(phases, probe=None) -> tuple[float, float]:
    """Run the set-up generator ``phases()`` with host-speed scaling.

    The generator yields between steps; its steps are grouped into
    segments of at least ``SLICE_S`` seconds, each scaled by the probe
    readings that bracket it (probe time is not set-up time). Returns
    ``(scaled_s, raw_s)``. A full collection runs first so garbage of an
    earlier set-up is not charged to this one.
    """
    probe = probe or probe_ms
    gc.collect()
    before = probe()
    steps = phases()
    scaled = raw = segment = 0.0
    done = False
    while not done:
        start = time.perf_counter()
        try:
            next(steps)
        except StopIteration:
            done = True
        segment += time.perf_counter() - start
        if done or segment >= SLICE_S:
            after = probe()
            raw += segment
            scaled += segment * scale_for(before, after)
            before, segment = after, 0.0
    return scaled, raw
