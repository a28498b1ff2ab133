"""End-to-end and per-layer metrics from a run's repetitions.

``ops_per_s`` is each untraced repetition's timed ops per host second,
scaled to a reference host speed, and the median of that over the
repetitions.  On a shared host, spells in which other tenants slow
this process by up to 1.7 times come and go every few seconds, and
some last longer than a run, so raw rates spread by a quarter from
run to run.  A fixed loop (``driver.probe``) therefore runs 64 times
through each timed phase, outside its measured time, and the rate is
scaled by the median probe time over ``PROBE_REF_S``: a repetition
slowed by its neighbours reads like one on the reference host, while
a change to the program, which the probe does not run, moves the rate
in full.

``setup_s`` is the median of the repetitions' set-up times, scaled in
the same way by probes run through set-up (``SETUP_PROBES`` in the
warm pass, one before it, one after).  Per-layer
host costs are medians over the traced repetitions.  Sim-time metrics
come from the first repetition: every repetition of a run has the
same simulated digest, so any would do.  A ratio whose base is empty (say, the stat hit ratio on a
workload that issues no stat) reads 0.
"""

from __future__ import annotations

import statistics

from driver import percentile
from ledger import BASE, LAYERS


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: The probe's median time inside a timed phase on the host the
#: benchmark was tuned on (a 2-vCPU VM on a 2.1 GHz Xeon) when no
#: neighbour slowed it: ``ops_per_s`` is in ops per second at that
#: speed.
PROBE_REF_S = 2.25e-3


def at_ref_speed(seconds: float, probes) -> float:
    """Host *seconds* measured alongside *probes*, at the reference speed."""
    return seconds * PROBE_REF_S / statistics.median(probes)


def scaled_rate(rep) -> float:
    """Timed ops per host second at the reference host speed."""
    return rep.ops / at_ref_speed(rep.timed_s, rep.probe_s)


def scaled_setup_s(rep) -> float:
    """Set-up host seconds at the reference host speed."""
    return at_ref_speed(rep.setup_s, rep.setup_probe_s)


def end_to_end(reps, rss_mib: float) -> tuple[dict, dict]:
    """End-to-end metrics ``{name: (value, unit)}`` and per-op-kind
    latency summaries for the report.  *rss_mib* is the process's peak
    resident size after the first repetition."""
    first = reps[0]
    pooled = [x for xs in first.latencies.values() for x in xs]
    metrics = {
        "ops_per_s": (statistics.median(scaled_rate(r) for r in reps), "1/s"),
        "setup_s": (statistics.median(scaled_setup_s(r) for r in reps), "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
        "sim_ops_per_s": (first.ops / first.sim_s, "1/s"),
        "sim_mean_us": (statistics.fmean(pooled) * 1e6, "us"),
        "sim_p99_us": (percentile(pooled, 0.99) * 1e6, "us"),
    }
    by_kind = {
        kind: {"n": len(xs), "p50_us": percentile(xs, 0.50) * 1e6, "p99_us": percentile(xs, 0.99) * 1e6}
        for kind, xs in sorted(first.latencies.items())
    }
    return metrics, by_kind


def per_layer(traced, untraced) -> dict:
    """Per-layer metrics ``{name: (value, unit)}`` from a traced run."""
    rep, led = traced[0]
    ops = rep.ops
    dt = rep.sim_s
    writes = len(rep.latencies.get("write", ()))
    events = rep.after.events - rep.before.events
    cm, sm, eng = rep.delta("cm"), rep.delta("sm"), rep.delta("engine")
    pc, st = rep.delta("pagecache"), rep.delta("storage")

    def self_us(layer: str) -> float:
        return statistics.median(ld["self_s"].get(layer, 0.0) for _, ld in traced) / ops * 1e6

    def busy_max(name: str) -> float:
        a, b = getattr(rep.after, name), getattr(rep.before, name)
        return max(((x - y) / dt for x, y in zip(a, b)), default=0.0)

    def sim_p(layer: str, p: float) -> float:
        xs = led["sim_durations"].get(layer)
        return percentile(xs, p) * 1e6 if xs else 0.0

    m = {
        "sim.events_per_op": (events / ops, "events/op"),
        "sim.host_ns_per_event": (
            statistics.median(ld["self_s"].get("sim", 0.0) for _, ld in traced) / events * 1e9,
            "ns/event",
        ),
        "net.rpc.calls_per_op": (led["calls"].get("net.rpc:Endpoint.call", 0) / ops, "calls/op"),
        "net.rpc.sim_us_p50": (sim_p("net.rpc", 0.50), "us"),
        "net.rpc.sim_us_p99": (sim_p("net.rpc", 0.99), "us"),
        "net.nic.busy_frac_max": (busy_max("nic_busy"), "frac"),
        "net.fabric.bytes_per_op": (
            (rep.after.net.get("bytes", 0) - rep.before.net.get("bytes", 0)) / ops, "B/op"
        ),
        "memcached.client.keys_per_op": (led["mc_keys"] / ops, "keys/op"),
        "memcached.engine.get_hit_ratio": (
            ratio(eng.get("get_hits", 0), eng.get("get_hits", 0) + eng.get("get_misses", 0)), "ratio"
        ),
        "memcached.engine.evictions_per_op": (eng.get("evictions", 0) / ops, "evictions/op"),
        "memcached.daemon.cpu_busy_frac_max": (busy_max("mcd_cpu_busy"), "frac"),
        "core.cmcache.stat_hit_ratio": (
            ratio(cm.get("stat_hits", 0), cm.get("stat_hits", 0) + cm.get("stat_misses", 0)), "ratio"
        ),
        "core.cmcache.read_hit_ratio": (
            ratio(cm.get("read_hits", 0), cm.get("read_hits", 0) + cm.get("read_misses", 0)), "ratio"
        ),
        "core.smcache.pushes_per_write": (
            ratio(sm.get("block_pushes", 0) + sm.get("stat_pushes", 0), writes), "pushes/write"
        ),
        "core.smcache.readbacks_per_write": (ratio(sm.get("write_readbacks", 0), writes), "readbacks/write"),
        "gluster.server.fops_per_op": ((rep.after.server_fops - rep.before.server_fops) / ops, "fops/op"),
        "gluster.server.sim_us_p99": (sim_p("gluster.server", 0.99), "us"),
        "gluster.server.io_busy_frac": ((rep.after.io_busy - rep.before.io_busy) / dt, "frac"),
        "oscache.page_hit_ratio": (
            ratio(pc.get("page_hits", 0), pc.get("page_hits", 0) + pc.get("page_misses", 0)), "ratio"
        ),
        "storage.accesses_per_op": ((st.get("reads", 0) + st.get("writes", 0)) / ops, "accesses/op"),
        "storage.busy_frac_max": (busy_max("disk_busy"), "frac"),
    }
    for kind in ("stat", "read", "write"):
        xs = rep.latencies.get(kind, ())
        m[f"gluster.client.sim_{kind}_p50_us"] = (percentile(xs, 0.50) * 1e6 if xs else 0.0, "us")
        m[f"gluster.client.sim_{kind}_p99_us"] = (percentile(xs, 0.99) * 1e6 if xs else 0.0, "us")
        m[f"gluster.client.{kind}_samples"] = (len(xs), "count")
    for layer in LAYERS:
        m[f"{layer}.host_us_per_op"] = (self_us(layer), "us/op")
    m["unattributed_us_per_op"] = (self_us(BASE), "us/op")
    # Traced and untraced repetitions alternate: compare each pair.
    m["trace.overhead_frac"] = (
        statistics.median(t.timed_s / u.timed_s for (t, _), u in zip(traced, untraced)) - 1.0,
        "frac",
    )
    return m
