"""Per-layer metrics of the traced run.

Each metric times or counts calls into one module's functions (public
ones, except compaction, which runs inside a commit and has no public
entry point), either through spans recorded around those calls
(:func:`instrument`) or through small fixed measurements made after the
timed phase (:func:`micro`). Span times are scaled by the run's median
host-speed factor like every other timing. A workload that does not
exercise a layer reports 0 for it (its prediction for that layer is
"no change").
"""

from __future__ import annotations

import math
import time

import numpy as np

from harness import geomean, median, percentile, probe_ms, scale_for
from repro.core.executor import GHDExecutor
from repro.core.planner import Planner
from repro.distributed import PooledShardTransport, fragments
from repro.distributed.fragments import BROADCAST
from repro.engines.base import Engine
from repro.engines.emptyheaded import EmptyHeadedEngine
from repro.relalg.kernels import natural_join
from repro.service import QueryService
from repro.service.cluster.shm import SegmentPublisher
from repro.service.formats import serializer_for
from repro.service.prepared import PreparedStatement
from repro.service.protocol import Cursor, Session
from repro.sets import SetLayout, build_set, intersect_many
from repro.sparql import parser, translate
from repro.storage import vertical
from repro.storage.vertical import VerticallyPartitionedStore
from repro.trie.trie import Trie

import tables
from workloads import ABLATIONS, EH

ENGINE_NAMES = ("emptyheaded", "logicblox-like", "monetdb-like", "rdf3x-like",
                "triplebit-like")


def _bind_misses(statement, /, **values) -> bool:
    return statement._values_key(values) not in statement._bound


def _behind(engine) -> bool:
    return engine._data_version != engine.store.data_version


def instrument(instrumentation):
    """Register every traced call site (installed per traced slice)."""
    return (
        instrumentation
        .function(parser, "parse_sparql", "sparql.parse")
        .function(translate, "sparql_to_query", "sparql.translate")
        .method(PreparedStatement, "bind", "service.bind", when=_bind_misses)
        .method(Session, "execute", "service.session")
        .method(Cursor, "fetch", "service.fetch")
        .method(Engine, "check_data_version", "engines.catchup", when=_behind)
        .method(Planner, "plan", "core.plan")
        .method(GHDExecutor, "execute", "core.execute")
        .method(Trie, "from_relation", "trie.build")
        .method(Trie, "apply_delta", "trie.splice")
        .function(vertical, "vertically_partition", "storage.load")
        .method(VerticallyPartitionedStore, "add_triples", "storage.commit")
        .method(VerticallyPartitionedStore, "remove_triples", "storage.commit")
        .method(vertical._TableSegments, "compact", "storage.compact")
        .method(PooledShardTransport, "execute", "cluster.fragment")
        .method(PooledShardTransport, "scatter", "distributed.scatter",
                observe=True)
        .method(SegmentPublisher, "publish", "cluster.publish")
        .function(fragments, "compile_fragment_plan", "distributed.compile",
                  observe=True)
    )


def snapshot(workload) -> dict:
    """Program counters read before and after the timed phase."""
    out: dict[str, float] = {}
    counters = getattr(workload, "counters", None)
    if counters is not None:
        out.update(counters())
    store = getattr(workload, "store", None)
    if store is not None:
        out["compactions"] = store.compactions
    server = getattr(workload, "server", None)
    if server is not None:
        requests = server.http_stats()["requests"]
        out["http_served"] = requests["served"]
        out["http_reuses"] = requests["keepalive_reuses"]
    transport = getattr(workload, "transport", None)
    if transport is not None:
        pools = transport.stats()["pools"]
        out["retries"] = sum(p["retries"] for p in pools)
        out["respawns"] = sum(p["respawns"] for p in pools)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _med(values) -> float:
    return median(values) if values else 0.0


# ----------------------------------------------------------------------
# Fixed measurements of single layers
# ----------------------------------------------------------------------
def _timed(fn, reps: int = 5) -> float:
    """Median seconds of ``reps`` calls, scaled by the probe around them."""
    before = probe_ms()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return median(times) * scale_for(before, probe_ms())


def _set_pairs(seed: int):
    """The set-layout pairings of the set-layout microbenchmark: sparse
    arrays, a sparse array against a dense bitset, and two bitsets."""
    rng = np.random.default_rng(seed)
    universe = 1 << 20

    def values(density):
        size = max(4, int(universe * density))
        return np.unique(rng.integers(0, universe, size=size).astype(np.uint32))

    uint = SetLayout.UINT_ARRAY
    bits = SetLayout.BITSET
    return {
        "uint-uint": (build_set(values(1 / 256), force_layout=uint),
                      build_set(values(1 / 256), force_layout=uint)),
        "uint-bitset": (build_set(values(1 / 4096), force_layout=uint),
                        build_set(values(1 / 16), force_layout=bits)),
        "bitset-bitset": (build_set(values(1 / 16), force_layout=bits),
                          build_set(values(1 / 16), force_layout=bits)),
    }


def micro(workload) -> dict:
    """Layer measurements on fixed inputs, made after the timed phase."""
    out = {}
    for label, (a, b) in _set_pairs(workload.data.seed).items():
        elems = a.cardinality + b.cardinality
        seconds = _timed(lambda: intersect_many([a, b]), reps=21)
        out[f"sets.intersect_ns_per_elem.{label}"] = seconds * 1e9 / elems

    loaded = workload.layer_tables()
    left = loaded["memberOf"].rename(attributes=("student", "dept"))
    right = loaded["subOrganizationOf"].rename(attributes=("dept", "univ"))
    seconds = _timed(lambda: natural_join(left, right), reps=9)
    out["relalg.natural_join_ns_per_row"] = (
        seconds * 1e9 / (left.num_rows + right.num_rows)
    )
    out["storage.bytes_per_triple"] = _ratio(
        sum(c.nbytes for r in loaded.values() for c in r.columns),
        sum(r.num_rows for r in loaded.values()),
    )

    engine = workload.engine
    session = QueryService(engine).session()
    text = workload.data.queries[8]
    relation = engine.execute_sparql(text)
    rows = max(relation.num_rows, 1)
    for fmt in ("json", "binary"):
        serializer = serializer_for(fmt)
        size = 0

        def serialize():
            nonlocal size
            cursor = session.execute(text)
            size = len(serializer.serialize(cursor))

        out[f"formats.{fmt}_us_per_row"] = _timed(serialize) * 1e6 / rows
        out[f"formats.{fmt}_bytes_per_row"] = size / rows
    session.close()
    out["engines.decode_us_per_row"] = (
        _timed(lambda: engine.decode_rows(relation)) * 1e6 / rows
    )

    tuples = 0
    if isinstance(engine, EmptyHeadedEngine):
        for qid in workload.data.query_ids:
            start = engine.executor_stats.enumerated_tuples
            engine.execute_sparql(workload.data.queries[qid])
            tuples += engine.executor_stats.enumerated_tuples - start
    out["core.enumerated_tuples"] = tuples
    return out


# ----------------------------------------------------------------------
def _per_request(tracer, names, first: int, own: bool = True) -> dict[int, float]:
    """Per request id: summed time (ms) of spans named ``names``, each
    span's self time (its duration minus its children's) when ``own``."""
    child_ns: dict[int, int] = {}
    for span in tracer.spans[first:]:
        if own and span[3] >= 0 and span[2]:
            child_ns[span[3]] = child_ns.get(span[3], 0) + span[2] - span[1]
    out: dict[int, float] = {}
    for index in range(first, len(tracer.spans)):
        name, start, end, _, request = tracer.spans[index]
        if name in names and end:
            spent = end - start - child_ns.get(index, 0)
            out[request] = out.get(request, 0.0) + spent / 1e6
    return out


def per_layer(workload, tracer, instrumentation, untraced, traced,
              before: dict, after: dict, setup_mark: int) -> dict:
    """Every per-layer metric, with its unit."""
    scale = median(untraced.factors + traced.factors)
    spans = tracer.spans

    def durations(name, setup=False):
        chosen = spans[:setup_mark] if setup else spans
        return [(s[2] - s[1]) / 1e6 * scale for s in chosen if s[0] == name and s[2]]

    def delta(key):
        return after.get(key, 0) - before.get(key, 0)

    m: dict[str, tuple[float, str]] = {}
    m["sparql.parse_us"] = (_med(durations("sparql.parse")) * 1e3, "us")
    m["sparql.translate_us"] = (_med(durations("sparql.translate")) * 1e3, "us")

    m["service.statement_hit_ratio"] = (
        _ratio(delta("statement_hits"),
               delta("statement_hits") + delta("statement_misses")), "ratio")
    m["service.bind_hit_ratio"] = (
        _ratio(delta("bind_hits"), delta("bind_hits") + delta("bind_misses")),
        "ratio")
    m["service.result_hit_ratio"] = (
        _ratio(delta("result_hits"), delta("executions")), "ratio")
    m["service.bind_us"] = (_med(durations("service.bind")) * 1e3, "us")
    session = _per_request(tracer, {"service.session", "service.fetch"}, setup_mark)
    m["service.session_us"] = (
        _med(list(session.values())) * scale * 1e3, "us")

    micro_values = micro(workload)
    for fmt in ("json", "binary"):
        m[f"formats.{fmt}_us_per_row"] = (
            micro_values[f"formats.{fmt}_us_per_row"], "us")
        m[f"formats.{fmt}_bytes_per_row"] = (
            micro_values[f"formats.{fmt}_bytes_per_row"], "B")

    # HTTP hop: client latency minus the in-process session work of the
    # same request (server-side spans carry the client's request id).
    requests = {
        s[4]: (s[2] - s[1]) / 1e6
        for s in spans[setup_mark:] if s[0] == "request" and s[2]
    }
    hops = []
    if getattr(workload, "server", None) is not None:
        inproc = _per_request(
            tracer, {"service.session", "service.fetch"}, setup_mark, own=False
        )
        hops = [requests[r] - inproc[r] for r in requests if r in inproc]
    m["http.hop_ms"] = (_med(hops) * scale, "ms")
    m["http.keepalive_reuse_ratio"] = (
        _ratio(delta("http_reuses"), delta("http_served")), "ratio")

    cells = untraced.class_medians("read")
    paper = workload.name == "paper-tables"
    for engine in ENGINE_NAMES:
        values = [cells[f"{engine}/q{q}"] for q in workload.data.query_ids
                  if f"{engine}/q{q}" in cells] if paper else []
        m[f"engines.{engine}.geomean_ms"] = (geomean(values) if values else 0.0, "ms")
    for qid in workload.data.query_ids:
        m[f"engines.emptyheaded.q{qid}_ms"] = (
            cells.get(f"{EH}/q{qid}", 0.0) if paper else 0.0, "ms")
    m["engines.decode_us_per_row"] = (micro_values["engines.decode_us_per_row"], "us")
    m["engines.catchup_ms"] = (_med(durations("engines.catchup")), "ms")

    m["core.plan_us"] = (_med(durations("core.plan")) * 1e3, "us")
    m["core.enumerated_tuples"] = (micro_values["core.enumerated_tuples"], "count")
    speedups = tables.table1(untraced) if paper else {}
    for label in ABLATIONS:
        ratios = speedups.get(label, {})
        m[f"core.opt.{label}_x"] = (
            geomean(ratios.values()) if ratios else 0.0, "x")

    m["trie.build_ms"] = (sum(durations("trie.build", setup=True)), "ms")
    m["trie.splice_us"] = (_med(durations("trie.splice")) * 1e3, "us")

    for label in ("uint-uint", "uint-bitset", "bitset-bitset"):
        key = f"sets.intersect_ns_per_elem.{label}"
        m[key] = (micro_values[key], "ns")
    m["relalg.natural_join_ns_per_row"] = (
        micro_values["relalg.natural_join_ns_per_row"], "ns")

    m["storage.load_s"] = (sum(durations("storage.load", setup=True)) / 1e3, "s")
    m["storage.commit_ms"] = (_med(durations("storage.commit")), "ms")
    m["storage.compactions"] = (delta("compactions"), "count")
    m["storage.compact_ms"] = (_med(durations("storage.compact")), "ms")
    m["storage.bytes_per_triple"] = (micro_values["storage.bytes_per_triple"], "B")

    m["cluster.fragment_rtt_ms"] = (_med(durations("cluster.fragment")), "ms")
    m["cluster.publish_ms"] = (_med(durations("cluster.publish", setup=True)), "ms")
    m["cluster.retries"] = (delta("retries"), "count")
    m["cluster.respawns"] = (delta("respawns"), "count")

    compile_ms = _per_request(tracer, {"distributed.compile"}, setup_mark)
    scatter_ms = _per_request(tracer, {"distributed.scatter"}, setup_mark)
    merges = [
        requests[r] - compile_ms.get(r, 0.0) - scatter_ms[r]
        for r in requests if r in scatter_ms
    ]
    plans = [result for _, result in instrumentation.observed["distributed.compile"]]
    fragments_all = [f for plan in plans for f in plan.fragments]
    fanouts = [len(args[1]) for args, _ in instrumentation.observed["distributed.scatter"]]
    m["distributed.compile_us"] = (_med(durations("distributed.compile")) * 1e3, "us")
    m["distributed.scatter_ms"] = (_med(durations("distributed.scatter")), "ms")
    m["distributed.merge_ms"] = (_med(merges) * scale, "ms")
    m["distributed.broadcast_ratio"] = (
        _ratio(sum(f.disposition == BROADCAST for f in fragments_all),
               len(fragments_all)), "ratio")
    m["distributed.fanout"] = (
        sum(fanouts) / len(fanouts) if fanouts else 0.0, "count")

    writes = untraced.pooled("write")
    m["write_p50_ms"] = (percentile(writes, 0.5) if writes else 0.0, "ms")
    m["write_p90_ms"] = (percentile(writes, 0.9) if writes else 0.0, "ms")

    m["bench.host_probe_ms"] = (median(untraced.probes + traced.probes), "ms")
    m["bench.host_scale"] = (scale, "x")
    plain, with_spans = untraced.class_medians("read"), traced.class_medians("read")
    shared = [c for c in plain if c in with_spans]
    m["bench.trace_overhead_ratio"] = (
        geomean(with_spans[c] / plain[c] for c in shared) if shared else 0.0,
        "ratio")
    return {
        name: {"value": float(value) if math.isfinite(value) else 0.0, "unit": unit}
        for name, (value, unit) in m.items()
    }
