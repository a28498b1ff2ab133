"""IMCa benchmark: closed-loop GlusterFS + IMCa workloads, end to end
and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload stat-hot --seed 1 --seconds 20 --trace 0

Each run repeats (build testbed, set up, timed phase) at least
``MIN_REPS`` times, and then while another repetition still fits in
``--seconds`` of host time.
A repetition's modelled behaviour depends only on the seed, so every
repetition must produce the same simulated-statistics digest; host
metrics combine the repetitions as ``metrics.py`` describes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics: the
traced ones wrap each layer's entry points (see ``ledger.py``), and
``trace.overhead_frac`` is the traced timed phase's host time over the
untraced one's, minus one.

The human-readable report goes first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The program under test: the checkout's own sources, never an
#: installed copy.
SRC = ROOT / "src"

#: Repetitions per run (per kind, in a traced run), whatever --seconds says.
MIN_REPS = 2


def run_metadata(seed: int, scheduler: str) -> dict:
    """Seed, program identity, interpreter, cores and DES scheduler.

    ``git_sha`` is read only when the checkout is itself a repository
    (git would otherwise search the parent directories);
    ``src_sha256`` identifies the program's sources either way.
    """
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return {
        "seed": seed,
        "git_sha": sha,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "scheduler": scheduler,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a seconds-long shape for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from driver import run_rep
    from ledger import Ledger
    from metrics import end_to_end, per_layer, ratio, scaled_rate, scaled_setup_s
    from workloads import WORKLOADS, make_plan

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    plan = make_plan(args.workload, args.seed, args.size)
    deadline = time.perf_counter() + args.seconds
    untraced, traced = [], []
    rss_mib = 0.0
    while True:
        started = time.perf_counter()
        untraced.append(run_rep(plan))
        if not rss_mib:
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            ledger = Ledger()
            with ledger.installed():
                rep = run_rep(
                    plan,
                    wrap=lambda g: ledger.drive(g, "bench"),
                    on_timed=lambda tb, start: ledger.reset(tb.sim) if start else ledger.close(),
                )
            traced.append((rep, ledger.summary()))
        now = time.perf_counter()
        if len(untraced) >= MIN_REPS and now + (now - started) > deadline:
            break

    reps = untraced + [r for r, _ in traced]
    digests = {r.digest()["sha256"] for r in reps}
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    correct = failed == 0 and len(digests) == 1

    meta = run_metadata(args.seed, reps[0].scheduler)
    meta.update(workload=args.workload, size=args.size, reps=len(untraced), traced_reps=len(traced))
    print("meta " + json.dumps(meta, sort_keys=True))
    print("digest " + json.dumps(reps[0].digest(), sort_keys=True))
    if len(digests) != 1:
        print(f"error: repetitions disagree on the simulated digest: {sorted(digests)}")
    for r in reps:
        if r.first_failure:
            print(f"error: {r.failed} failed ops; first: {r.first_failure}")
            break

    for i, r in enumerate(untraced):
        print(
            f"rep {i} setup_s={r.setup_s:.4f} setup_probe_median_s={statistics.median(r.setup_probe_s):.6f}"
            f" scaled_setup_s={scaled_setup_s(r):.4f} timed_s={r.timed_s:.4f} ops_per_s={r.ops / r.timed_s:.1f}"
            f" probe_median_s={statistics.median(r.probe_s):.6f} scaled_ops_per_s={scaled_rate(r):.1f}"
        )
    e2e, by_kind = end_to_end(untraced, rss_mib)
    for kind, s in by_kind.items():
        print(f"op {kind:5s} n={s['n']} sim_p50={s['p50_us']:.3f} us sim_p99={s['p99_us']:.3f} us")
    print(f"errors failed={failed} attempted={attempted} error_rate={ratio(failed, attempted):.6f}")
    metrics = e2e
    if args.trace:
        rep, led = traced[0]
        for entry, n in sorted(led["calls"].items()):
            print(f"calls {entry} = {n / rep.ops:.4f}/op")
        metrics = per_layer(traced, untraced)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
