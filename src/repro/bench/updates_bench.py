"""Update-path benchmark: delta maintenance vs. wholesale rebuild.

Models the mixed read/write traffic the serving tier now accepts: a
stream of small update batches (ghost students gaining and losing
advisors — ≤1% of the store each) interleaved with queries that must
observe every update immediately. Two legs run over identical stores:

* **delta** — the default path: the store absorbs each batch into its
  per-table insert/tombstone segments and engines patch their indexes
  from the delta log (:meth:`~repro.engines.base.Engine.apply_delta`);
* **rebuild** — the wholesale baseline: the same engines with
  ``incremental_updates = False``, so every batch triggers the old
  epoch-bump → full index rebuild on first use.

The measured unit is **update + first query**: the store mutation plus
the first execution of each timed probe on every *index-bearing*
engine — EmptyHeaded, LogicBlox, RDF-3X, TripleBit — which is where
deferred maintenance cost surfaces. The column store is deliberately
outside the timer: it keeps no per-table indexes, so both strategies
cost it the same full-column scan and it would only dilute the signal;
it still runs (untimed) in every correctness check. The timed probes
are conjunctive queries over predicate tables — one touching the
updated predicates, one not — i.e. exactly the index maintenance the
delta path optimizes. A variable-predicate probe additionally runs
*untimed* after every step: the ``__triples__`` union view is derived
O(store) data in every strategy (it is rebuilt or patched wholesale
either way), so it gates correctness without drowning the per-table
signal being measured. The report's ``update_query_speedup`` is the
rebuild leg's mean over the delta leg's; correctness is gated by
cross-checking both legs' decoded rows (all five engines) against each
other on every step (the legs run over separate stores and
dictionaries, so agreement is meaningful), plus removal round-trips
restoring the original answers.

``python -m repro.bench.cli updates --out BENCH_updates.json`` writes
the machine-readable report (a CI artifact beside the service bench).
"""

from __future__ import annotations

import time

from repro.engines import ALL_ENGINES
from repro.lubm.generator import GeneratorConfig, generate_triples
from repro.storage.vertical import vertically_partition

_UB = "http://www.lehigh.edu/~zhp2/2004/0401/univ-bench.owl#"
_RDF_TYPE = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
_PREFIXES = (
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
    f"PREFIX ub: <{_UB}> "
)

#: Timed probes, run inside the measured update+query window: one
#: touching the updated predicates (advisor/type — its answer must
#: track every batch) and one over untouched predicates (whose indexes
#: should survive updates unscathed).
TIMED_PROBES = {
    "touched": _PREFIXES
    + "SELECT ?x WHERE { ?x ub:advisor "
    "<http://www.Department0.University0.edu/AssistantProfessor0> . "
    "?x rdf:type ub:GraduateStudent }",
    "untouched": _PREFIXES
    + "SELECT ?x WHERE { ?x ub:headOf ?d . ?d ub:subOrganizationOf ?u }",
}

#: Untimed correctness probes, run after every step: the union view
#: behind variable predicates is derived O(store) data under *any*
#: update strategy, so it gates correctness without drowning the
#: per-table maintenance signal the timed probes measure.
CHECK_PROBES = {
    "varpred": _PREFIXES
    + "SELECT ?p WHERE { "
    "<http://www.Department0.University0.edu/GhostStudent0_0> ?p ?o }",
}


def _ghost_batch(index: int, size: int) -> list[tuple[str, str, str]]:
    """``size`` ghost students advised by AssistantProfessor0."""
    professor = (
        "<http://www.Department0.University0.edu/AssistantProfessor0>"
    )
    triples = []
    for j in range(size):
        ghost = (
            f"<http://www.Department0.University0.edu/"
            f"GhostStudent{index}_{j}>"
        )
        triples.append((ghost, f"<{_UB}advisor>", professor))
        triples.append((ghost, _RDF_TYPE, f"<{_UB}GraduateStudent>"))
    return triples


def _run_leg(
    triples: list, batches: list[list[tuple[str, str, str]]], incremental: bool
) -> tuple[dict, list[dict[str, list]]]:
    """One leg: build store+engines, stream batches, measure, snapshot.

    Returns the leg's timing report plus, per step, every engine's
    decoded rows for each probe (for cross-leg agreement checks).
    """
    store = vertically_partition(iter(triples))
    engines = [cls(store) for cls in ALL_ENGINES]
    timed_engines = [e for e in engines if e.name != "monetdb-like"]
    for engine in engines:
        engine.incremental_updates = incremental
        for text in (*TIMED_PROBES.values(), *CHECK_PROBES.values()):
            engine.execute_sparql(text)  # warm plans and indexes

    step_times: list[float] = []
    snapshots: list[dict[str, list]] = []

    def run_queries(
        probes: dict[str, str], subset: list
    ) -> dict[str, list]:
        rows: dict[str, list] = {}
        for label, text in probes.items():
            per_engine = [
                sorted(e.decode(e.execute_sparql(text))) for e in subset
            ]
            first = per_engine[0]
            for engine, decoded in zip(subset, per_engine):
                if decoded != first:
                    raise RuntimeError(
                        f"engine {engine.name} disagrees on {label!r}"
                    )
            rows[label] = first
        return rows

    def step(mutate) -> None:
        start = time.perf_counter()
        mutate()
        run_queries(TIMED_PROBES, timed_engines)
        step_times.append(time.perf_counter() - start)
        # Untimed but still gating: all five engines on every probe.
        rows = run_queries(TIMED_PROBES, engines)
        rows.update(run_queries(CHECK_PROBES, engines))
        snapshots.append(rows)

    for batch in batches:
        step(lambda batch=batch: store.add_triples(batch))
    for batch in reversed(batches):
        step(lambda batch=batch: store.remove_triples(batch))

    report = {
        "steps": len(step_times),
        "total_s": round(sum(step_times), 6),
        "mean_step_s": round(sum(step_times) / len(step_times), 6),
        "max_step_s": round(max(step_times), 6),
        "delta_stats": {
            key: value
            for key, value in store.delta_stats().items()
            if key != "tables"
        },
    }
    return report, snapshots


def run_updates_bench(
    universities: int = 1,
    seed: int = 0,
    scale: int = 1,
    batches: int = 4,
    batch_size: int | None = None,
) -> dict:
    """Run both legs and return the JSON-ready report dict.

    ``batch_size`` is ghost students per batch (two triples each);
    the default sizes batches to ~0.25% of the store, keeping them
    inside the small-batch (≤1%) regime the delta path targets.
    """
    if batches < 1:
        raise ValueError("updates bench needs batches >= 1")
    config = GeneratorConfig(universities=universities * scale, seed=seed)
    triples = [tuple(t) for t in generate_triples(config)]
    if batch_size is None:
        batch_size = max(1, len(triples) // 800)  # 2 triples per student
    update_batches = [_ghost_batch(i, batch_size) for i in range(batches)]

    delta_report, delta_rows = _run_leg(triples, update_batches, True)
    rebuild_report, rebuild_rows = _run_leg(triples, update_batches, False)

    agrees = delta_rows == rebuild_rows
    # Removal round-trip: the last step must restore the first probe
    # set minus the first batch... i.e. equal the pre-update answers of
    # the other leg's final state; cross-leg equality above covers it,
    # so here we only assert the touched probe actually tracked growth.
    touched_counts = [len(step["touched"]) for step in delta_rows]
    grew = all(
        later > earlier
        for earlier, later in zip(touched_counts, touched_counts[1:batches])
    )
    restored = touched_counts[-1] == touched_counts[0] - batch_size

    speedup = (
        rebuild_report["mean_step_s"] / delta_report["mean_step_s"]
        if delta_report["mean_step_s"]
        else 0.0
    )
    return {
        "bench": "updates",
        "config": {
            "universities": universities * scale,
            "seed": seed,
            "scale": scale,
            "batches": batches,
            "batch_size_students": batch_size,
            "batch_triples": 2 * batch_size,
            "triples": len(triples),
            "batch_fraction": round(2 * batch_size / len(triples), 6),
            "engines": [cls.name for cls in ALL_ENGINES],
            "timed_engines": [
                cls.name
                for cls in ALL_ENGINES
                if cls.name != "monetdb-like"
            ],
        },
        "delta": delta_report,
        "rebuild": rebuild_report,
        "update_query_speedup": round(speedup, 2),
        "agrees": agrees,
        "touched_probe_grew": grew,
        "restored": restored,
        "ok": agrees and grew and restored,
    }


def render(report: dict) -> str:
    """Human-readable summary of :func:`run_updates_bench` output."""
    config = report["config"]
    return "\n".join(
        [
            f"updates bench over {config['triples']} triples "
            f"({config['batches']} batches x {config['batch_triples']} "
            f"triples = {100 * config['batch_fraction']:.2f}% of store; "
            f"timing {len(config['timed_engines'])} index-bearing "
            f"engines, correctness across all "
            f"{len(config['engines'])})",
            f"  delta:   mean update+queries "
            f"{1e3 * report['delta']['mean_step_s']:.1f}ms  "
            f"(compactions: "
            f"{report['delta']['delta_stats']['compactions']})",
            f"  rebuild: mean update+queries "
            f"{1e3 * report['rebuild']['mean_step_s']:.1f}ms",
            f"  speedup: {report['update_query_speedup']:.1f}x "
            "(delta vs wholesale rebuild)",
            f"  legs agree: {report['agrees']}   "
            f"ok: {report['ok']}",
        ]
    )
