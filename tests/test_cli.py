"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import SUGAR, main
from repro.harness import get
from repro.harness.experiment import ExperimentResult


def test_list_prints_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig5" in out
    assert "fig10" in out
    assert "ablation-blocksize" in out


def test_run_single_experiment(capsys):
    rc = main(["run", "fig6c", "--scale", "smoke"])
    out = capsys.readouterr().out
    assert "record size" in out
    assert "checks passed" in out
    assert rc == 0  # fig6c's checks hold at smoke scale


def test_list_includes_fault_and_replication_experiments(capsys):
    main(["list"])
    out = capsys.readouterr().out
    assert "chaos" in out
    assert "hotspot" in out


def test_chaos_rejects_out_of_range_replicas(capsys):
    # 9 replicas can't fit the smoke-scale MCD count: graceful exit 2,
    # not a traceback (validated before any simulation runs).
    assert main(["chaos", "--scale", "smoke", "--replicas", "9"]) == 2
    assert "replicas" in capsys.readouterr().err


def test_run_unknown_experiment(capsys):
    assert main(["run", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_bad_scale_rejected():
    with pytest.raises(SystemExit):
        main(["run", "fig5", "--scale", "enormous"])


def test_report_writes_file(tmp_path, capsys):
    # Point the report at a temp file; smoke scale keeps it quick.
    out_file = tmp_path / "EXP.md"
    rc = main(["report", "--scale", "smoke", "--output", str(out_file)])
    assert rc == 0
    text = out_file.read_text()
    assert "# EXPERIMENTS" in text
    assert "Fig 5" in text


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_run_json_output(capsys):
    rc = main(["run", "fig6c", "--scale", "smoke", "--json"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert rc == 0
    assert doc["experiment_id"] == "fig6c"
    assert doc["scale"] == "smoke"
    assert doc["x_values"] and doc["series"]
    assert all({"name", "passed", "detail"} <= set(c) for c in doc["checks"])
    assert doc["all_passed"] is True


def test_run_trace_and_metrics_artifacts(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.jsonl"
    main(
        [
            "run",
            "fig5",
            "--scale",
            "smoke",
            "--trace-out",
            str(trace),
            "--metrics-out",
            str(metrics),
        ]
    )
    err = capsys.readouterr().err
    assert "wrote" in err

    events = json.loads(trace.read_text())
    assert events and all(e["ph"] in ("X", "M") for e in events)
    assert {"client", "network", "mcd", "server", "disk"} <= {
        e["cat"] for e in events if e["ph"] == "X"
    }

    components = [json.loads(line) for line in metrics.read_text().splitlines()]
    names = {c["component"] for c in components}
    assert "mcd" in names and "tiers" in names
    assert any(n.startswith("cmcache.") for n in names)


def test_run_prints_tier_breakdown(capsys):
    main(["run", "fig5", "--scale", "smoke"])
    out = capsys.readouterr().out
    assert "per-tier latency breakdown" in out
    assert "disk" in out


@pytest.mark.parametrize("exp_id", SUGAR)
def test_sugar_subcommand_dispatches_like_run(exp_id, monkeypatch, capsys):
    calls = []

    def fake_run(scale, **kwargs):
        calls.append((scale, kwargs))
        result = ExperimentResult(exp_id, scale)
        result.check("ran", True, f"kwargs={sorted(kwargs)}")
        return result

    monkeypatch.setattr(get(exp_id), "run", fake_run)
    assert main([exp_id, "--scale", "smoke", "--json"]) == 0
    sugar_out = json.loads(capsys.readouterr().out)
    assert main(["run", exp_id, "--scale", "smoke", "--json"]) == 0
    run_out = json.loads(capsys.readouterr().out)
    assert [scale for scale, _ in calls] == ["smoke", "smoke"]
    assert sugar_out["experiment_id"] == run_out["experiment_id"] == exp_id
    # Only `chaos --replicas` adds a runner kwarg, at the runner's default.
    assert calls[0][1] == ({"replicas": 1} if exp_id == "chaos" else {})
    assert calls[1][1] == {}


def test_sugar_help_comes_from_the_registry(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = " ".join(capsys.readouterr().out.split())
    for exp_id in SUGAR:
        exp = get(exp_id)
        assert f"{exp.title} ({exp.figure})" in out


def test_subcommands_are_the_fixed_set_plus_registry_sugar(capsys):
    # A sugar command exists only for an id in SUGAR: an experiment
    # removed from the registry leaves no top-level subcommand behind.
    with pytest.raises(SystemExit):
        main(["--help"])
    choices = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out).group(1)
    fixed = {"list", "run", "run-all", "bench", "analyze", "report"}
    assert set(choices.split(",")) == fixed | set(SUGAR)
    with pytest.raises(SystemExit) as exc:
        main(["no-such-experiment", "--scale", "smoke"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
