"""Tests of the benchmark itself, on its ``tiny`` shapes.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from driver import PROBES, SETUP_PROBES, run_rep  # noqa: E402
from ledger import LAYERS  # noqa: E402
from metrics import scaled_rate, scaled_setup_s  # noqa: E402
from workloads import READ, WORKLOADS, make_plan  # noqa: E402

from repro.core.keys import data_key  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, seed: int = 1, trace: int = 0, cwd: Path = ROOT):
    """Run the benchmark command on the tiny shape; returns (exit code, stdout)."""
    cmd = [sys.executable, str(cwd / SPEC["command"][1]), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def digest_of(stdout: str) -> dict:
    line = next(l for l in stdout.splitlines() if l.startswith("digest "))
    return json.loads(line[len("digest "):])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_names_match(workload):
    code, out = run_bench(workload)
    assert code == 0
    res = result_of(out)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] > 0
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_same_seed_same_digest_other_seed_differs():
    a = run_rep(make_plan("write-mix", 5, "tiny")).digest()
    b = run_rep(make_plan("write-mix", 5, "tiny")).digest()
    c = run_rep(make_plan("write-mix", 6, "tiny")).digest()
    assert a == b
    assert a["sha256"] != c["sha256"]


def test_sim_metrics_and_digest_repeat_for_a_seed():
    outs = [run_bench("stat-hot", seed=9)[1] for _ in range(2)]
    sim = [{k: v for k, v in result_of(o)["metrics"].items() if k.startswith("sim_")} for o in outs]
    assert sim[0] == sim[1] and sim[0]
    assert digest_of(outs[0]) == digest_of(outs[1])
    assert digest_of(run_bench("stat-hot", seed=10)[1]) != digest_of(outs[0])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    code, out = run_bench(workload, trace=1)
    assert code == 0
    res = result_of(out)
    assert res["correct"] is True
    metrics = res["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for layer in LAYERS:
        assert f"{layer}.host_us_per_op" in metrics
    value = {k: v["value"] for k, v in metrics.items()}
    if workload == "stat-hot":
        assert value["gluster.server.fops_per_op"] == 0
        assert value["storage.accesses_per_op"] == 0
    if workload == "read-spill":
        assert value["storage.accesses_per_op"] > 0
        assert value["memcached.engine.evictions_per_op"] > 0
    if workload == "write-mix":
        # Every layer the write path crosses did work in the timed phase.
        for layer in LAYERS:
            assert value[f"{layer}.host_us_per_op"] > 0, layer
        assert value["core.smcache.readbacks_per_write"] == 1


def test_probes_sample_only_untraced_timed_phases():
    """Untraced repetitions run the host-speed probe all through the
    timed phase and leave its time out of ``timed_s``; traced ones do
    not probe there.  Every repetition probes through set-up."""
    plan = make_plan("read-spill", 3, "tiny")
    rep = run_rep(plan)
    assert len(rep.probe_s) >= PROBES
    assert len(rep.setup_probe_s) >= SETUP_PROBES + 2
    assert 0 < rep.timed_s and 0 < rep.setup_s
    assert scaled_rate(rep) > 0 and scaled_setup_s(rep) > 0
    traced = run_rep(plan, wrap=lambda g: g)
    assert traced.probe_s == []


def test_checker_counts_a_corrupted_cached_block():
    """Flip the bytes of one cached block through the MCD engine's
    public API: the read that serves it must be counted as failed."""
    plan = make_plan("write-mix", 2, "tiny")
    written = {op[4] for ops in plan.timed for op in ops if op[0] != READ}
    _, f, off, _, _ = next(op for op in plan.timed[0] if op[0] == READ and op[4] not in written)
    key = data_key(plan.paths[f], off)
    corrupted = []

    def corrupt(tb, plan):
        for mcd in tb.mcds:
            item = mcd.engine.get(key)
            if item is not None:
                bad = replace(item.value, data=bytes(b ^ 0xFF for b in item.value.data))
                mcd.engine.set(key, bad, item.nbytes)
                corrupted.append(mcd)

    clean = run_rep(plan)
    rep = run_rep(plan, after_setup=corrupt)
    assert clean.failed == 0
    assert corrupted
    assert rep.failed >= 1
    assert "match no admissible write" in rep.first_failure


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, out = run_bench("stat-hot", cwd=tmp_path)
    assert code != 0
    assert '"correct"' not in out
