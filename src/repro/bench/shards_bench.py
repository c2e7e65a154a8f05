"""Sharded-execution benchmark: scatter-gather vs the single store.

Two legs over one LUBM instance:

* **identity** — for every engine and every paper query, the
  :class:`~repro.distributed.engine.ShardedEngine` (subject-hash
  partitioned store, in-process :class:`LocalShardTransport`) must
  serve the *byte-for-byte* same binary response body as the same
  engine over the equivalent single store, at every shard count on the
  curve. A mid-run update round (inserts carrying a brand-new
  predicate, then deletes) is applied to both sides and the full
  comparison repeats, so the unified cross-shard epoch is exercised,
  not just the initial load.
* **scaling** — the :class:`PooledShardTransport` (one PR 8 worker
  pool per shard) replays a scatter-heavy query family at 1 shard and
  at N shards and reports the wall-clock curve. The speedup gate
  adapts to the machine exactly like the cluster bench: with
  ``E = min(shards, cpu_count)`` effective shards the N-shard leg must
  beat the 1-shard leg by ``min_speedup`` when ``E >= 2``; on a
  single-core machine there is no timing gate (worker processes cannot
  run in parallel) but the two legs must still agree row-for-row.

Byte identity is the strong form of the paper-reproduction invariant:
same rows, same canonical order, same dictionary keys, same
serialization — sharding is purely a physical change.
"""

from __future__ import annotations

import os
import threading
import time

from repro.bench.report import percentile
from repro.distributed.engine import ShardedEngine
from repro.distributed.store import ShardedStore
from repro.distributed.transport import PooledShardTransport
from repro.engines import ENGINE_NAMES, create_engine
from repro.lubm.generator import GeneratorConfig, generate_triples
from repro.lubm.queries import lubm_queries
from repro.service.formats import BinarySerializer
from repro.service.query_service import QueryService
from repro.storage.vertical import vertically_partition

EX = "http://shards.bench/"

#: Multi-fragment / high-fanout paper queries: every fragment scatters
#: to all shards, so per-shard work shrinks with N.
SCATTER_FAMILY = (1, 2, 4, 8, 9)


def _effective_shards(shards: int) -> int:
    return min(shards, os.cpu_count() or 1)


def _required_speedup(shards: int, min_speedup: float) -> float:
    return min_speedup if _effective_shards(shards) >= 2 else 0.0


def _update_batches(triples: list) -> tuple[list, list]:
    """An insert batch (with a brand-new predicate) and a delete batch.

    The inserts reuse existing subjects (so routing must agree with the
    load-time partitioning) and add fresh ones; the deletes cover part
    of the inserts plus a sample of original triples.
    """
    subjects = []
    seen = set()
    for s, _, _ in triples:
        if s not in seen:
            seen.add(s)
            subjects.append(s)
        if len(subjects) >= 8:
            break
    add = [
        (subject, f"{EX}shardTag", f"{EX}tag{index}")
        for index, subject in enumerate(subjects)
    ]
    add += [
        (f"{EX}node{i}", f"{EX}shardTag", f"{EX}tag{i % 3}")
        for i in range(8)
    ]
    remove = add[::2] + triples[:: max(1, len(triples) // 7)][:7]
    return add, remove


class _Side:
    """One store (single or sharded) with a session per engine."""

    def __init__(self, store) -> None:
        self.store = store
        self._sessions: dict[str, object] = {}

    def session(self, engine_name: str):
        session = self._sessions.get(engine_name)
        if session is None:
            if isinstance(self.store, ShardedStore):
                engine = ShardedEngine(self.store, engine_name)
            else:
                engine = create_engine(engine_name, self.store)
            session = QueryService(engine).session()
            self._sessions[engine_name] = session
        return session

    def body(self, engine_name: str, text: str) -> bytes:
        cursor = self.session(engine_name).execute(text)
        try:
            return BinarySerializer().serialize(cursor)
        finally:
            cursor.close()


def _compare_all(
    single: _Side,
    sharded: dict[int, _Side],
    queries: dict[int, str],
    stage: str,
    mismatches: list,
) -> int:
    checked = 0
    for engine_name in sorted(ENGINE_NAMES):
        for qid, text in queries.items():
            expected = single.body(engine_name, text)
            for count, side in sharded.items():
                checked += 1
                if side.body(engine_name, text) != expected:
                    mismatches.append(
                        {
                            "stage": stage,
                            "engine": engine_name,
                            "query": qid,
                            "shards": count,
                        }
                    )
    return checked


def _identity_leg(
    triples: list, queries: dict[int, str], shard_counts: list[int]
) -> dict:
    single = _Side(vertically_partition(list(triples)))
    sharded = {
        count: _Side(ShardedStore.partition(list(triples), count))
        for count in shard_counts
    }
    mismatches: list = []
    checked = _compare_all(single, sharded, queries, "load", mismatches)

    add, remove = _update_batches(list(triples))
    added = single.store.add_triples(add)
    removed = single.store.remove_triples(remove)
    update_agrees = True
    for side in sharded.values():
        if side.store.add_triples(add) != added:
            update_agrees = False
        if side.store.remove_triples(remove) != removed:
            update_agrees = False
    checked += _compare_all(
        single, sharded, queries, "post-update", mismatches
    )
    return {
        "shard_counts": shard_counts,
        "engines": sorted(ENGINE_NAMES),
        "queries": sorted(queries),
        "checked": checked,
        "mismatches": mismatches,
        "update": {
            "added": added,
            "removed": removed,
            "counts_agree": update_agrees,
        },
        "ok": not mismatches and update_agrees,
    }


def _scaling_leg(
    triples: list,
    queries: dict[int, str],
    shards: int,
    rounds: int,
    clients: int,
    min_speedup: float,
) -> dict:
    family = {qid: queries[qid] for qid in SCATTER_FAMILY}
    legs: list[dict] = []
    row_counts: list[tuple[int, ...]] = []
    for count in (1, shards):
        store = ShardedStore.partition(list(triples), count)
        transport = PooledShardTransport(store, "emptyheaded")
        try:
            engine = ShardedEngine(
                store, "emptyheaded", transport=transport
            )
            # Warm-up pass: worker-side plan/trie caches, code paths.
            counts = tuple(
                engine.execute_sparql(text).num_rows
                for text in family.values()
            )
            row_counts.append(counts)
            latencies: list[float] = []
            lock = threading.Lock()

            def run() -> None:
                local: list[float] = []
                for _ in range(rounds):
                    for text in family.values():
                        t0 = time.perf_counter()
                        engine.execute_sparql(text)
                        local.append((time.perf_counter() - t0) * 1e3)
                with lock:
                    latencies.extend(local)

            threads = [
                threading.Thread(target=run) for _ in range(clients)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
        finally:
            transport.close()
        executed = clients * rounds * len(family)
        legs.append(
            {
                "shards": count,
                "seconds": round(elapsed, 4),
                "queries_per_s": (
                    round(executed / elapsed, 2) if elapsed else 0.0
                ),
                "p50_ms": round(percentile(latencies, 0.50), 3),
                "p95_ms": round(percentile(latencies, 0.95), 3),
            }
        )
    speedup = (
        legs[0]["seconds"] / legs[1]["seconds"]
        if legs[1]["seconds"]
        else 0.0
    )
    required = _required_speedup(shards, min_speedup)
    rows_agree = row_counts[0] == row_counts[1]
    return {
        "family": sorted(family),
        "rounds": rounds,
        "legs": legs,
        "speedup": round(speedup, 2),
        "required_speedup": required,
        "effective_shards": _effective_shards(shards),
        "rows_agree": rows_agree,
        "ok": rows_agree and speedup >= required,
    }


def run_shards_bench(
    universities: int = 1,
    seed: int = 0,
    shards: int = 3,
    rounds: int = 2,
    clients: int = 4,
    min_speedup: float = 1.1,
    skip_scaling: bool = False,
    query_ids: tuple[int, ...] | None = None,
) -> dict:
    """Run both legs and return the machine-readable report dict.

    ``query_ids`` restricts the identity leg (tier-1 smoke tests run a
    subset; the CI bench job runs all twelve paper queries).
    """
    if shards < 2:
        raise ValueError(f"shards bench needs --shards >= 2, got {shards}")
    config = GeneratorConfig(universities=universities, seed=seed)
    triples = list(generate_triples(config))
    all_queries = lubm_queries(config)
    queries = (
        {qid: all_queries[qid] for qid in query_ids}
        if query_ids is not None
        else all_queries
    )

    shard_counts = sorted({2, shards})
    identity = _identity_leg(triples, queries, shard_counts)
    if skip_scaling:
        scaling: dict = {"skipped": True, "ok": True}
    else:
        scaling = _scaling_leg(
            triples, all_queries, shards, rounds, clients, min_speedup
        )
    return {
        "bench": "shards",
        "config": {
            "universities": universities,
            "seed": seed,
            "shards": shards,
            "rounds": rounds,
            "clients": clients,
            "min_speedup": min_speedup,
            "triples": len(triples),
        },
        "identity": identity,
        "scaling": scaling,
        "ok": identity["ok"] and scaling["ok"],
    }


def render(report: dict) -> str:
    """Human-readable summary of :func:`run_shards_bench` output."""
    config = report["config"]
    identity = report["identity"]
    lines = [
        f"shards bench over {config['triples']} triples "
        f"(LUBM {config['universities']}u seed {config['seed']}); "
        f"shard curve {identity['shard_counts']}",
        f"  identity: {identity['checked']} body comparisons across "
        f"{len(identity['engines'])} engines x "
        f"{len(identity['queries'])} queries, "
        f"{len(identity['mismatches'])} mismatches; update round "
        f"added {identity['update']['added']} / removed "
        f"{identity['update']['removed']} "
        f"(counts agree: {identity['update']['counts_agree']})",
    ]
    scaling = report["scaling"]
    if scaling.get("skipped"):
        lines.append("  scaling: skipped (shared memory unavailable)")
    else:
        for leg in scaling["legs"]:
            lines.append(
                f"  scaling: {leg['shards']} shard(s)  "
                f"{leg['seconds']:.2f}s  "
                f"{leg['queries_per_s']:.1f} q/s  "
                f"p50 {leg['p50_ms']:.1f}ms  p95 {leg['p95_ms']:.1f}ms"
            )
        lines.append(
            f"  scaling speedup: {scaling['speedup']:.2f}x "
            f"(gate >= {scaling['required_speedup']:g}x at "
            f"{scaling['effective_shards']} effective shard(s))   "
            f"rows agree: {scaling['rows_agree']}"
        )
    lines.append(f"  ok: {report['ok']}")
    return "\n".join(lines)


__all__ = [
    "SCATTER_FAMILY",
    "render",
    "run_shards_bench",
]
