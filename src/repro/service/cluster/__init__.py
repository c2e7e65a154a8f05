"""Multi-process serving tier: shared segments, workers, service.

The GIL serializes every hot loop that is not inside numpy, so one
process cannot scale query serving past one core. This package is the
scale-out answer, built from three pieces layered over the existing
storage/engine/service stack:

* :mod:`repro.service.cluster.shm` — a **segment publisher** that
  places each epoch's immutable main segments and dictionary blocks
  into ``multiprocessing.shared_memory``. Attaching is zero-copy
  (``np.ndarray`` views over the shared buffer); epochs are refcounted
  so a reader never sees a torn or unlinked segment.
* :mod:`repro.service.cluster.worker` / ``pool`` — a **worker pool** of
  N forked/spawned processes. Each attaches the shared store, replays
  the publisher's update log to the current epoch, builds its engine
  locally, and answers framed requests from its pipe. The pool health-
  checks workers, detects crashes, respawns replacements, and retries
  in-flight requests on siblings.
* :mod:`repro.service.cluster.service` —
  :class:`ClusterQueryService` mirrors
  :class:`~repro.service.QueryService`'s session/cursor semantics over
  the pipe protocol (results ride the ``service/formats.py`` binary row
  format). Served over HTTP by the same
  :class:`~repro.service.http.SparqlHttpServer` as the single-process
  tier — ``SparqlHttpServer(cluster, port=0)`` — so both tiers share
  one set of endpoints, wire parameters and error bodies.
"""

from repro.service.cluster.pool import WorkerPool
from repro.service.cluster.service import (
    ClusterCursor,
    ClusterQueryService,
    ClusterSession,
)
from repro.service.cluster.shm import (
    SegmentPublisher,
    attach_snapshot,
    detach,
    publish_snapshot,
    reclaim_stale,
    shm_supported,
)

__all__ = [
    "ClusterCursor",
    "ClusterQueryService",
    "ClusterSession",
    "SegmentPublisher",
    "WorkerPool",
    "attach_snapshot",
    "detach",
    "publish_snapshot",
    "reclaim_stale",
    "shm_supported",
]
