"""The live-server HTTP benchmark target and its JSON report."""

import json

import pytest

from repro.bench.http_bench import run_http_bench
from repro.bench.report import write_report


@pytest.fixture(scope="module")
def report():
    # A generous overhead gate: timing ratios are environment noise at
    # this tiny scale; the correctness checks are what the test gates.
    return run_http_bench(
        universities=1, seed=0, family=8, rounds=2, workers=2,
        max_overhead=100.0,
    )


def test_http_bench_correctness_gates(report):
    assert report["agrees"], report["rows_crosschecked"]
    assert report["rows_crosschecked"] == {"json": True, "binary": True}
    assert report["concurrent"]["matches_serial"]
    assert report["smoke"]["ok"], report["smoke"]


def test_http_bench_report_shape(report, tmp_path):
    for leg in ("inproc", "inproc_cached", "http_json", "http_binary"):
        assert report[leg]["requests"] == 16
        assert report[leg]["p50_ms"] >= 0
        assert report[leg]["p95_ms"] >= report[leg]["p50_ms"]
    assert report["json_p50_overhead"] > 0
    assert report["binary_p50_overhead"] > 0
    assert report["serialize_json"]["total_bytes"] > 0
    assert report["serialize_binary"]["total_bytes"] > 0

    out = tmp_path / "BENCH_http.json"
    write_report(report, str(out))
    parsed = json.loads(out.read_text())
    assert parsed["bench"] == "http"
    assert parsed["config"]["family"] == 8
    assert parsed["ok"] == report["ok"]


def test_http_bench_smoke_probe_inventory(report):
    probes = report["smoke"]
    for name in (
        "malformed_query_400_parse_error",
        "unknown_format_406",
        "missing_parameter_400",
        "stats_ok",
        "stats_http_keepalive",
        "explain_ok",
        "explain_missing_parameter_400",
        "update_applied",
        "update_visible_and_restored",
    ):
        assert probes[name], name
