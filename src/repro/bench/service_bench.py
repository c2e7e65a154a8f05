"""Serving-layer benchmark: prepared templates vs. per-text re-parsing.

Models the production traffic pattern the serving tier exists for: one
query *template* (LUBM's "students advised by professor P", the paper's
selection-heavy shape) executed for a family of parameter values,
repeatedly. Three measurements:

* **reparse** — the baseline API: each request renders the parameter
  into the query text and calls ``Engine.execute_sparql`` (the full
  parse → translate → bind → plan → execute pipeline per distinct
  text);
* **prepared** — the prepared-statement API: one
  :meth:`QueryService.prepare`, then ``statement.execute(prof=...)``
  per request (late binding into the cached plan; repeat values hit the
  statement's result cache);
* **concurrent** — the same prepared requests on a thread pool,
  verified row-identical to serial execution.

With ``zipf > 0`` a fourth leg replays a **Zipf-skewed** request stream
(rank-``r`` parameter drawn with probability ∝ ``1/r^s``) through the
prepared statement — the realistic shape of web traffic, where a few
hot parameters dominate — and reports the result-cache hit rate and
latencies under that skew (hit rates climb well above the uniform
rounds' because the head of the distribution stays resident).

The benchmark also probes update safety (``add_triples`` must change
the next answer) and emits a machine-readable JSON report
(``BENCH_service.json`` in CI) with p50/p95 latencies, cache hit rates,
and the template-vs-reparse speedup.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from repro.bench.report import percentile
from repro.engines.emptyheaded import EmptyHeadedEngine
from repro.lubm import generate_dataset
from repro.service import QueryService

_PREFIXES = (
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
    "PREFIX ub: "
    "<http://www.lehigh.edu/~zhp2/2004/0401/univ-bench.owl#> "
)

#: The template family: graduate students advised by a professor.
TEMPLATE = (
    _PREFIXES
    + "SELECT ?x WHERE { ?x ub:advisor $prof . "
    "?x rdf:type ub:GraduateStudent }"
)


def _concrete_text(professor: str) -> str:
    return TEMPLATE.replace("$prof", professor)


@dataclass
class _Leg:
    """One measured execution strategy."""

    total_s: float
    latencies_ms: list[float]
    first_pass_s: float

    def report(self) -> dict:
        return {
            "requests": len(self.latencies_ms),
            "total_s": round(self.total_s, 6),
            "first_pass_s": round(self.first_pass_s, 6),
            "p50_ms": round(percentile(self.latencies_ms, 0.50), 4),
            "p95_ms": round(percentile(self.latencies_ms, 0.95), 4),
        }


def _measure(
    execute, professors: list[str], rounds: int
) -> tuple[_Leg, dict[str, frozenset]]:
    """Time ``execute(professor)`` over ``rounds`` passes of the family.

    Returns the leg's timings plus the first pass's rows per value (for
    cross-leg agreement checks).
    """
    rows: dict[str, frozenset] = {}
    latencies: list[float] = []
    first_pass_s = 0.0
    start_total = time.perf_counter()
    for round_index in range(rounds):
        start_round = time.perf_counter()
        for professor in professors:
            start = time.perf_counter()
            result = execute(professor)
            latencies.append((time.perf_counter() - start) * 1e3)
            if round_index == 0:
                rows[professor] = result.to_set()
        if round_index == 0:
            first_pass_s = time.perf_counter() - start_round
    return (
        _Leg(time.perf_counter() - start_total, latencies, first_pass_s),
        rows,
    )


def _professors(store, family: int) -> list[str]:
    advisor = store.tables.get("advisor")
    if advisor is None:
        raise RuntimeError("LUBM dataset has no advisor table")
    keys = np.unique(advisor.column("object"))
    decode = store.dictionary.decode
    professors = sorted(decode(int(key)) for key in keys)
    if len(professors) < family:
        raise RuntimeError(
            f"only {len(professors)} professors; need {family} "
            "(raise --universities)"
        )
    return professors[:family]


def _zipf_leg(
    store, professors: list[str], requests: int, s: float, seed: int
) -> dict:
    """Replay a Zipf(s)-skewed request stream through a fresh statement.

    Rank-``r`` of the (shuffled) family is drawn with probability
    proportional to ``1 / r**s``; the report's hit rate shows how far
    the statement's result cache converts skew into cache residency.
    """
    rng = random.Random(seed)
    ranked = list(professors)
    rng.shuffle(ranked)  # decouple popularity rank from lexical order
    weights = [1.0 / (rank + 1) ** s for rank in range(len(ranked))]
    stream = rng.choices(ranked, weights=weights, k=requests)

    service = QueryService(EmptyHeadedEngine(store))
    statement = service.prepare(TEMPLATE)
    latencies: list[float] = []
    start_total = time.perf_counter()
    for professor in stream:
        start = time.perf_counter()
        statement.execute(prof=professor)
        latencies.append((time.perf_counter() - start) * 1e3)
    total_s = time.perf_counter() - start_total
    distinct = len(set(stream))
    return {
        "s": s,
        "requests": requests,
        "distinct_values": distinct,
        "total_s": round(total_s, 6),
        "p50_ms": round(percentile(latencies, 0.50), 4),
        "p95_ms": round(percentile(latencies, 0.95), 4),
        "result_hit_rate": round(
            statement.stats.result_hits / requests, 4
        ),
        "bind_misses": statement.stats.bind_misses,
    }


def run_service_bench(
    universities: int = 1,
    seed: int = 0,
    family: int = 100,
    rounds: int = 8,
    workers: int = 4,
    zipf: float = 0.0,
) -> dict:
    """Run the benchmark and return the JSON-ready report dict.

    ``rounds`` passes are made over the family; round 1 is the cold
    pass (every parameter value new), later rounds are the steady state
    a serving tier optimizes for. Three numbers are reported:
    ``template_vs_reparse_speedup`` (the full serving path, result
    cache included — what repeated traffic actually experiences),
    ``late_binding_speedup`` (result cache disabled, so every request
    re-binds and re-joins — isolates the parse/translate/plan skip),
    and ``first_pass_speedup`` (cold pass only).
    """
    if family < 1 or rounds < 1:
        raise ValueError("service bench needs family >= 1 and rounds >= 1")
    dataset = generate_dataset(universities=universities, seed=seed)
    store = dataset.store
    professors = _professors(store, family)

    # --- Baseline: per-text execute_sparql -----------------------------
    reparse_engine = EmptyHeadedEngine(store)
    reparse_engine.execute_sparql(_concrete_text(professors[0]))  # warm tries
    reparse, reparse_rows = _measure(
        lambda prof: reparse_engine.execute_sparql(_concrete_text(prof)),
        professors,
        rounds,
    )

    # --- Prepared statements (full serving path, result cache on) ------
    service = QueryService(EmptyHeadedEngine(store))
    statement = service.prepare(TEMPLATE)
    statement.execute(prof=professors[0])  # warm tries
    statement.clear()  # drop that bound plan/result so passes are uniform
    prepared, prepared_rows = _measure(
        lambda prof: statement.execute(prof=prof), professors, rounds
    )

    # --- Prepared statements, result cache off (late binding only) -----
    from repro.service import PreparedStatement

    nocache_statement = PreparedStatement(
        service.engine, TEMPLATE, result_cache_size=0
    )
    late_binding, late_binding_rows = _measure(
        lambda prof: nocache_statement.execute(prof=prof),
        professors,
        rounds,
    )

    agrees = prepared_rows == reparse_rows == late_binding_rows

    # --- Concurrent execution ------------------------------------------
    requests = [
        (TEMPLATE, {"prof": professor}) for professor in professors
    ]
    serial_results = [
        r.to_set() for r in service.execute_concurrent(requests, 1)
    ]
    start = time.perf_counter()
    concurrent_results = [
        r.to_set()
        for r in service.execute_concurrent(requests, workers)
    ]
    concurrent_s = time.perf_counter() - start
    matches_serial = concurrent_results == serial_results

    # --- Update safety --------------------------------------------------
    probe_prof = professors[0]
    before = len(statement.execute(prof=probe_prof))
    rdf_type = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
    ub = "http://www.lehigh.edu/~zhp2/2004/0401/univ-bench.owl#"
    ghost = "<http://www.Department0.University0.edu/GhostStudent>"
    added = [
        (ghost, f"<{ub}advisor>", probe_prof),
        (ghost, rdf_type, f"<{ub}GraduateStudent>"),
    ]
    store.add_triples(added)
    after = len(statement.execute(prof=probe_prof))
    store.remove_triples(added)
    restored = len(statement.execute(prof=probe_prof))
    update_safe = after == before + 1 and restored == before

    # --- Zipf-skewed traffic (optional) ---------------------------------
    zipf_report = (
        _zipf_leg(store, professors, family * rounds, zipf, seed)
        if zipf > 0
        else None
    )

    speedup = reparse.total_s / prepared.total_s if prepared.total_s else 0.0
    late_binding_speedup = (
        reparse.total_s / late_binding.total_s
        if late_binding.total_s
        else 0.0
    )
    first_pass_speedup = (
        reparse.first_pass_s / prepared.first_pass_s
        if prepared.first_pass_s
        else 0.0
    )
    return {
        "bench": "service",
        "config": {
            "universities": universities,
            "seed": seed,
            "family": family,
            "rounds": rounds,
            "workers": workers,
            "engine": "emptyheaded",
            "triples": store.num_triples,
        },
        "template": TEMPLATE,
        "reparse": reparse.report(),
        "prepared": prepared.report(),
        "prepared_no_result_cache": late_binding.report(),
        "template_vs_reparse_speedup": round(speedup, 2),
        "late_binding_speedup": round(late_binding_speedup, 2),
        "first_pass_speedup": round(first_pass_speedup, 2),
        "cache": {
            "service_hit_rate": round(service.stats.hit_rate, 4),
            "bind_hits": statement.stats.bind_hits,
            "bind_misses": statement.stats.bind_misses,
            "result_hits": statement.stats.result_hits,
            "invalidations": statement.stats.invalidations,
        },
        "concurrent": {
            "workers": workers,
            "total_s": round(concurrent_s, 6),
            "matches_serial": matches_serial,
        },
        "update": {"safe": update_safe},
        "zipf": zipf_report,
        "agrees": agrees,
        "ok": agrees and matches_serial and update_safe,
    }


def render(report: dict) -> str:
    """Human-readable summary of :func:`run_service_bench` output."""
    lines = [
        f"service bench over {report['config']['triples']} triples "
        f"({report['config']['family']}-parameter family, "
        f"{report['config']['rounds']} rounds)",
        f"  reparse:  total {report['reparse']['total_s']:.3f}s  "
        f"p50 {report['reparse']['p50_ms']:.2f}ms  "
        f"p95 {report['reparse']['p95_ms']:.2f}ms",
        f"  prepared: total {report['prepared']['total_s']:.3f}s  "
        f"p50 {report['prepared']['p50_ms']:.2f}ms  "
        f"p95 {report['prepared']['p95_ms']:.2f}ms",
        f"  prepared (result cache off): total "
        f"{report['prepared_no_result_cache']['total_s']:.3f}s  "
        f"p50 {report['prepared_no_result_cache']['p50_ms']:.2f}ms",
        f"  speedup:  {report['template_vs_reparse_speedup']:.1f}x "
        f"serving path; {report['late_binding_speedup']:.1f}x late "
        f"binding only; {report['first_pass_speedup']:.1f}x cold pass",
        f"  concurrent[{report['concurrent']['workers']}]: "
        f"{report['concurrent']['total_s']:.3f}s  "
        f"matches serial: {report['concurrent']['matches_serial']}",
        f"  update-safe: {report['update']['safe']}   "
        f"rows agree: {report['agrees']}",
    ]
    zipf_report = report.get("zipf")
    if zipf_report:
        lines.insert(
            -1,
            f"  zipf(s={zipf_report['s']:g}): "
            f"{zipf_report['requests']} requests over "
            f"{zipf_report['distinct_values']} distinct values  "
            f"p50 {zipf_report['p50_ms']:.2f}ms  "
            f"result-cache hit rate "
            f"{zipf_report['result_hit_rate']:.2f}",
        )
    return "\n".join(lines)
