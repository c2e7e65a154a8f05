"""Benchmark entry point.

Run one workload::

    python3 perfbench/run.py --workload paper-tables --seed 1 --seconds 12 --trace 0

or every workload, each in its own process::

    python3 perfbench/run.py --workload all --seed 1 --seconds 12

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it are a human-readable report (and, for paper-tables, the
paper's Tables I and II). Run from the root of the repository; the
program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


def _import_program() -> None:
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {source}")
    sys.path.insert(0, str(source))


def child_pids() -> list[int]:
    """The processes whose parent is this process (from ``/proc``)."""
    me, children = os.getpid(), []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            children.append(int(entry.name))
    return children


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    The workloads close their worker pools themselves. What is left is
    ``multiprocessing``'s resource tracker, which the shared-memory
    segments of the worker pools start and which otherwise outlives this
    process; it is stopped through its own shutdown path, so it unlinks
    any segment still registered. Anything else still running (a worker a
    failed teardown left behind) is killed first.
    """
    from multiprocessing import resource_tracker

    def kill_and_reap(pids) -> None:
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)

    tracker = resource_tracker._resource_tracker
    kill_and_reap(pid for pid in child_pids() if pid != tracker._pid)
    with contextlib.suppress(ChildProcessError):
        tracker._stop()
    kill_and_reap(child_pids())


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, universities: int = 5
) -> dict:
    """One run of one workload; returns report lines and the result."""
    import harness
    import layers
    from data import LubmInput
    from spans import Instrumentation, Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    if cls.PIN_CPU:
        # Client, server thread and probe share one CPU, so the probe
        # reads the speed of the CPU doing the work and requests hand
        # off between threads without cross-CPU wake-ups.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    data = LubmInput(seed, universities)
    tracer = Tracer() if traced else None
    workload = cls(data, tracer)
    instrumentation = layers.instrument(Instrumentation(tracer)) if traced else None

    probe = harness.HandoffProbe() if workload.HANDOFF_PROBE else None
    setups = []
    for index in range(SETUPS):
        last = index == SETUPS - 1
        if traced and last:
            instrumentation.install()
        try:
            setups.append(harness.timed_setup(workload.setup, probe))
        except BaseException:
            # Release whatever the failed set-up started (worker
            # processes, sockets); its own error is the one reported.
            with contextlib.suppress(Exception):
                workload.teardown()
            raise
        finally:
            if traced and last:
                instrumentation.uninstall()
                setup_mark = len(tracer.spans)
        if not last:
            workload.teardown()
    try:
        return _measure_and_report(
            workload, seconds, traced, tracer, instrumentation, setups,
            setup_mark if traced else 0, probe,
        )
    finally:
        workload.teardown()
        if probe is not None:
            probe.close()


def _measure_and_report(
    workload, seconds, traced, tracer, instrumentation, setups, setup_mark,
    probe,
) -> dict:
    import harness
    import layers
    import tables
    from workloads import read_metrics

    name = workload.name
    before = layers.snapshot(workload)
    untraced, traced_samples = harness.Samples(), harness.Samples()

    def samples_for(index: int):
        # The traced run alternates untraced and traced slices, so the
        # trace overhead is measured on the same data and host state.
        tracing = traced and index % 2 == 1
        if traced:
            (instrumentation.install if tracing else instrumentation.uninstall)()
        workload.tracing = tracing
        return traced_samples if tracing else untraced

    gc.collect()
    gc.freeze()
    try:
        harness.measure(seconds, workload.next_op, samples_for, probe)
    finally:
        if traced:
            instrumentation.uninstall()
        workload.tracing = False
        gc.unfreeze()
    after = layers.snapshot(workload)
    workload.verify()

    reads = untraced.count("read")
    writes = untraced.count("write")
    attempted = untraced.ops + traced_samples.ops
    failed = workload.failed + workload.verifier.mismatches
    checked = workload.verifier.checked
    rss = harness.peak_rss_mb() + workload.rss_mb()
    end_to_end = {
        "setup_s": _metric(harness.median([s for s, _ in setups]), "s"),
        **{
            key: _metric(value, "1/s" if key == "throughput_ops" else "ms")
            for key, value in read_metrics(untraced, workload).items()
        },
        "peak_rss_mb": _metric(rss, "MB"),
    }
    report = {
        "workload": name,
        "seed": workload.data.seed,
        "reads": reads,
        "writes": writes,
        "checked": checked,
        "setup_raw_s": [round(r, 4) for _, r in setups],
        "setup_scaled_s": [round(s, 4) for s, _ in setups],
        "probe_ms_median": harness.median(untraced.probes),
        "scale_median": harness.median(untraced.factors),
        "raw": {
            "read_geomean_ms": harness.geomean(
                untraced.class_medians("read", raw=True).values()
            ),
            "throughput_ops": untraced.ops / untraced.raw_busy_s,
        },
    }
    if name != "paper-tables":
        report["class_median_ms"] = {
            cls: round(value, 4)
            for cls, value in sorted(untraced.class_medians("read").items())
        }
    # Printed with the metrics but not part of the result line: the
    # result carries failures as ``failed`` and write latency as the
    # per-layer ``write_p50_ms``/``write_p90_ms``.
    extra = {"error_rate": _metric(failed / max(attempted, 1), "ratio")}
    if writes:
        for q in (50, 90):
            extra[f"write_p{q}_ms"] = _metric(
                harness.percentile(untraced.pooled("write"), q / 100), "ms"
            )
    lines = []
    if name == "paper-tables":
        lines += tables.render(untraced)
    if traced:
        metrics = layers.per_layer(
            workload, tracer, instrumentation, untraced, traced_samples,
            before, after, setup_mark,
        )
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"spans-{name}-{workload.data.seed}.jsonl")
    else:
        metrics = end_to_end
    return {
        "lines": lines,
        "report": report,
        "extra": extra,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def print_result(outcome: dict) -> None:
    for line in outcome["lines"]:
        print(line)
    report = outcome["report"]
    for key, value in report.items():
        print(f"# {key}: {value}")
    metrics = {**outcome["result"]["metrics"], **outcome["extra"]}
    for key, metric in metrics.items():
        print(f"{key:40s} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps(outcome["result"]), flush=True)


def run_all(args) -> int:
    """Every workload in its own process; one summary result line."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        completed = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600
        )
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            return completed.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r} "
            f"(known: all, {', '.join(WORKLOADS)})"
        )
    try:
        outcome = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        stop_children()
    print_result(outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
