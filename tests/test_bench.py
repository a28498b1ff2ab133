"""Tests for the wall-clock benchmark subsystem and its report schema."""

import json

import pytest

from repro.bench import (
    attach_baseline,
    baseline_from,
    check_against_baseline,
    load_report,
    run_benchmarks,
    run_e2e_benchmarks,
    run_scale_benchmarks,
    write_report,
)


@pytest.fixture(scope="module")
def quick_report():
    # One round keeps this a smoke test; workload sizes are the real ones.
    return run_benchmarks(quick=True, rounds=1)


def test_quick_report_schema(quick_report):
    assert quick_report["schema"] == 1
    assert quick_report["mode"] == "quick"
    assert quick_report["rounds"] == 1
    assert "platform" in quick_report["machine"]
    results = quick_report["results"]
    assert set(results) == {"kernel", "hop"}  # quick mode skips the sweep
    for doc in results.values():
        assert doc["metric"] == "events_per_sec"
        assert doc["median"] > 0
        assert len(doc["runs"]) == 1
        assert doc["events_per_run"] > 0


def test_report_round_trips_through_json(tmp_path, quick_report):
    path = tmp_path / "bench.json"
    write_report(str(path), quick_report)
    assert load_report(str(path)) == quick_report


def test_attach_baseline_computes_speedups(quick_report):
    report = json.loads(json.dumps(quick_report))
    baseline = baseline_from(report, note="self")
    attach_baseline(report, baseline)
    assert report["baseline"]["note"] == "self"
    # Self-comparison is exactly 1.0x.
    for name in report["results"]:
        assert report["speedup_vs_baseline"][name] == pytest.approx(1.0)


def test_check_against_baseline_flags_regressions(quick_report):
    committed = json.loads(json.dumps(quick_report))
    # Identical run: no failures.
    assert check_against_baseline(quick_report, committed) == []
    # A >30% slowdown in the fresh run gates.
    slow = json.loads(json.dumps(quick_report))
    slow["results"]["kernel"]["median"] *= 0.5
    failures = check_against_baseline(slow, committed, tolerance=0.30)
    assert len(failures) == 1 and "kernel" in failures[0]
    # Within tolerance passes.
    near = json.loads(json.dumps(quick_report))
    near["results"]["kernel"]["median"] *= 0.8
    assert check_against_baseline(near, committed, tolerance=0.30) == []
    # Missing benchmarks are reported (with suite and metric named).
    empty = {"results": {}}
    failures = check_against_baseline(empty, committed)
    assert len(failures) == 2
    for f in failures:
        assert "[suite=kernel]" in f and "(events_per_sec)" in f
    # ... unless the fresh run is a declared subset (quick mode).
    assert check_against_baseline(empty, committed, missing_ok=True) == []


def test_check_failure_messages_name_suite_and_metric(quick_report):
    """Satellite of issue 7: a CI log must say *which* suite/metric
    regressed, not just that a threshold tripped."""
    committed = json.loads(json.dumps(quick_report))
    slow = json.loads(json.dumps(quick_report))
    slow["results"]["hop"]["median"] *= 0.5
    (failure,) = check_against_baseline(slow, committed, suite="scale")
    assert "[suite=scale]" in failure
    assert "hop" in failure
    assert "(events_per_sec)" in failure
    assert "floor" in failure


@pytest.fixture(scope="module")
def quick_e2e_report():
    return run_e2e_benchmarks(quick=True, rounds=1)


def test_e2e_report_schema(quick_e2e_report):
    assert quick_e2e_report["schema"] == 1
    assert quick_e2e_report["rounds"] == 1
    results = quick_e2e_report["results"]
    assert set(results) == {"e2e_hit", "e2e_fill", "e2e_hot"}
    for doc in results.values():
        assert doc["metric"] == "ops_per_sec"
        assert doc["median"] > 0
        assert len(doc["runs"]) == 1
        assert doc["events_per_run"] > 0  # ops driven per run


def test_e2e_ops_per_sec_gates_like_events_per_sec(quick_e2e_report):
    """The 30% regression gate covers every *_per_sec metric, so the
    committed BENCH_e2e.json participates alongside the kernel suite."""
    committed = json.loads(json.dumps(quick_e2e_report))
    assert check_against_baseline(quick_e2e_report, committed) == []
    slow = json.loads(json.dumps(quick_e2e_report))
    slow["results"]["e2e_hot"]["median"] *= 0.5
    failures = check_against_baseline(slow, committed, tolerance=0.30)
    assert len(failures) == 1 and "e2e_hot" in failures[0]


def test_committed_e2e_report_matches_schema():
    import os

    path = os.path.join(os.path.dirname(__file__), "..", "BENCH_e2e.json")
    report = load_report(path)
    assert set(report["results"]) == {"e2e_hit", "e2e_fill", "e2e_hot"}
    for doc in report["results"].values():
        assert doc["metric"] == "ops_per_sec"
        assert doc["median"] > 0


def test_committed_report_claims_the_required_speedup():
    """The repo's committed BENCH_kernel.json must document >= 1.5x on
    the bare kernel versus the recorded pre-PR baseline."""
    import os

    path = os.path.join(os.path.dirname(__file__), "..", "BENCH_kernel.json")
    report = load_report(path)
    assert report["baseline"]["results"]["kernel"]["median"] > 0
    assert report["speedup_vs_baseline"]["kernel"] >= 1.5


@pytest.fixture(scope="module")
def quick_scale_report():
    # Quick mode: the 1k client point only, one round per variant.
    return run_scale_benchmarks(quick=True, rounds=1)


def test_scale_report_schema(quick_scale_report):
    report = quick_scale_report
    assert report["schema"] == 1
    assert report["mode"] == "quick"
    assert report["shards"] == 1
    results = report["results"]
    assert set(results) == {
        "scale_1k_heap",
        "scale_1k_tier2",
        "scale_1k_e2e_scalar",
    }
    for doc in results.values():
        assert doc["metric"] == "ops_per_sec"
        assert doc["median"] > 0
        assert doc["events_per_run"] > 0
    # The batched tier schedules far fewer events for the same ops.
    assert (
        results["scale_1k_tier2"]["events_per_run"]
        < results["scale_1k_heap"]["events_per_run"] / 2
    )
    assert set(report["speedup_vs_heap"]) == {"scale_1k"}
    assert set(report["speedup_vs_heap"]["scale_1k"]) == {"tier2"}
    assert "speedup_e2e" not in report


def test_e2e_merged_metrics_are_shard_invariant():
    """The end-to-end cells are independent, so the deterministic merged
    metrics (ops, events) must not depend on how the cell range is split
    across shards."""
    import json

    from repro.bench.scale import _e2e_run

    m1, _ = _e2e_run(4_000, 1)
    m4, _ = _e2e_run(4_000, 4)
    strip = lambda m: {
        k: v for k, v in m.items() if k not in ("shards", "per_shard")
    }
    assert json.dumps(strip(m1), sort_keys=True) == json.dumps(
        strip(m4), sort_keys=True
    )
    assert m4["shards"] == 4
    assert m1["ops"] == 4_000 * 2 and m1["events"] > 0


def test_committed_scale_report_claims_the_required_speedup():
    """The repo's committed BENCH_scale.json must document the second
    speed tier (>= 3x ops/sec over the per-visit heap variant at 100k
    clients) and carry the end-to-end points at 100k and 1M clients."""
    import os

    path = os.path.join(os.path.dirname(__file__), "..", "BENCH_scale.json")
    report = load_report(path)
    expected = {
        f"scale_{point}_{variant}"
        for point in ("1k", "10k", "100k")
        for variant in ("heap", "tier2")
    } | {f"scale_{point}_e2e_scalar" for point in ("100k", "1m")}
    assert set(report["results"]) == expected
    assert report["speedup_vs_heap"]["scale_100k"]["tier2"] >= 3.0
    # An end-to-end run over 1M clients (replicated independent cells),
    # not bare timers: the committed report carries the event counts.
    assert report["results"]["scale_1m_e2e_scalar"]["events_per_run"] > 0
