"""The paper's Tables I and II, rendered from paper-tables' per-cell
medians (no second timing loop).

Table II gives, per query, the fastest engine's median runtime and every
engine's runtime relative to it; Table I the speedup of the full
EmptyHeaded engine over the engine with one optimization turned off.
The paper's own statistic (seven runs, best and worst dropped, the rest
averaged) is kept as one printed column for the EmptyHeaded cells.
"""

from __future__ import annotations

from harness import geomean, median
from workloads import ABLATIONS, EH, TABLE1_QUERY_IDS

ENGINE_COLUMNS = (
    ("emptyheaded", "EH"),
    ("logicblox-like", "LB"),
    ("monetdb-like", "MonetDB"),
    ("rdf3x-like", "RDF-3X"),
    ("triplebit-like", "TripleBit"),
)
PAPER_RUNS = 7


def paper_average(values) -> float:
    """The paper's statistic: of the first seven runs, drop the best and
    the worst and average the rest (fewer runs: plain median)."""
    runs = sorted(values[:PAPER_RUNS])
    if len(runs) < PAPER_RUNS:
        return median(runs)
    kept = runs[1:-1]
    return sum(kept) / len(kept)


def _table(title: str, header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]

    def line(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    return [title, line(header), line(["-" * w for w in widths])] + [
        line(r) for r in rows
    ]


def table1(samples) -> dict[str, dict[int, float]]:
    """Per ablation label, per Table I query: ablated / full EH median."""
    cells = samples.class_medians("read")
    ablation = samples.class_medians("ablation")
    return {
        label: {
            qid: ablation[f"no-{label}/q{qid}"] / cells[f"{EH}/q{qid}"]
            for qid in TABLE1_QUERY_IDS
            if f"no-{label}/q{qid}" in ablation and f"{EH}/q{qid}" in cells
        }
        for label in ABLATIONS
    }


def render(samples) -> list[str]:
    cells = samples.class_medians("read")
    query_ids = sorted({int(c.rsplit("/q", 1)[1]) for c in cells})
    rows = []
    for qid in query_ids:
        times = {e: cells.get(f"{e}/q{qid}") for e, _ in ENGINE_COLUMNS}
        best = min(t for t in times.values() if t is not None)
        eh_runs = samples.scaled.get(("read", f"{EH}/q{qid}"), [])
        rows.append(
            [f"Q{qid}", f"{best:.3f}"]
            + [f"{times[e] / best:.2f}x" for e, _ in ENGINE_COLUMNS]
            + [f"{paper_average(eh_runs):.3f}" if eh_runs else "-"]
        )
    lines = _table(
        "Table II: median runtime of the fastest engine (ms, host-scaled) "
        "and each engine relative to it",
        ["Query", "best ms"] + [label for _, label in ENGINE_COLUMNS]
        + ["EH 7-run ms"],
        rows,
    )

    speedups = table1(samples)
    rows = [
        [f"Q{qid}"] + [f"{speedups[label][qid]:.2f}x" for label in ABLATIONS]
        for qid in TABLE1_QUERY_IDS
    ]
    rows.append(
        ["geomean"]
        + [f"{geomean(speedups[label].values()):.2f}x" for label in ABLATIONS]
    )
    lines += [""] + _table(
        "Table I: speedup of full EmptyHeaded over EmptyHeaded without "
        "each optimization (median / median)",
        ["Query"] + [f"+{label.capitalize()}" for label in ABLATIONS],
        rows,
    )
    return lines + [""]
