"""One repetition: build the testbed, set it up, run the timed phase.

Set-up (untimed for ``ops_per_s``, reported as ``setup_s``): build the
GlusterFS + IMCa testbed with the default ``IMCaConfig``, create and
populate the files through client 0, let the brick's write-back drain,
open every file on every client, and run the warm pass.  The timed
phase then runs every client's op list as one closed loop: a client
issues its next op only when the previous one returns.  All clients
are coroutines of one simulator in this process.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from checker import RefModel
from workloads import OP_NAMES, READ, RECORD, STAT, Plan

from repro.cluster import TestbedConfig, build_gluster_testbed

#: Populate writes are this large (the brick stores them as one extent run).
POPULATE_CHUNK = 256 * 1024

#: Probes per timed phase and per warm pass (see ``ProbeClock``).
PROBES = 64
SETUP_PROBES = 16

#: The host-speed probe: ``PROBE_N`` random lookups in a table of
#: ``PROBE_KEYS`` ints (about 2 ms and 6 MiB).  The table is large
#: enough that lookups miss the CPU caches, as the simulator's do.
PROBE_N = 5_000
PROBE_KEYS = 1 << 16
_probe_table: dict = {}


def percentile(xs, p: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    s = sorted(xs)
    return s[max(0, min(len(s) - 1, math.ceil(p * len(s)) - 1))]


def probe() -> float:
    """Host seconds of a fixed pure-Python loop: how fast the host runs
    this interpreter right now, whatever the program under test does."""
    table = _probe_table
    if not table:
        table.update((i, i) for i in range(PROBE_KEYS))
    mask = PROBE_KEYS - 1
    t = time.perf_counter()
    x = s = 0
    for _ in range(PROBE_N):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        s += table[x & mask]
    return time.perf_counter() - t


class ProbeClock:
    """Runs ``probe()`` after every *every*-th completed op of a phase,
    so the probes sample the host's speed all through the phase."""

    __slots__ = ("every", "left", "probes")

    def __init__(self, every: int):
        self.every = every
        self.left = every
        self.probes: list[float] = []

    def tick(self) -> None:
        self.left -= 1
        if not self.left:
            self.left = self.every
            self.sample()

    def sample(self) -> None:
        self.probes.append(probe())


@dataclass
class Snapshot:
    """Counters read at one instant of a testbed (all cumulative)."""

    now: float
    events: int
    cm: dict
    sm: dict
    engine: dict
    pagecache: dict
    storage: dict
    net: dict
    server_fops: int
    nic_busy: list
    mcd_cpu_busy: list
    io_busy: float
    disk_busy: list


@dataclass
class Rep:
    """What one repetition measured."""

    setup_s: float
    timed_s: float
    #: Host seconds of each probe run in the timed phase (untraced
    #: repetitions only; ``timed_s`` leaves them out).
    probe_s: list
    #: Host seconds of each probe run in set-up (``setup_s`` leaves
    #: them out).
    setup_probe_s: list
    ops: int
    before: Snapshot
    after: Snapshot
    #: Sim latency (seconds) of every timed op, by op kind.
    latencies: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    first_failure: Optional[str] = None
    scheduler: str = ""

    @property
    def sim_s(self) -> float:
        return self.after.now - self.before.now

    def delta(self, name: str) -> dict:
        a, b = getattr(self.after, name), getattr(self.before, name)
        return {k: a.get(k, 0) - b.get(k, 0) for k in a}

    def digest(self) -> dict:
        """The simulated-statistics digest: identical for identical
        modelled behaviour, whatever the host did."""
        lat = {}
        h = hashlib.sha256()
        for kind, xs in sorted(self.latencies.items()):
            h.update(kind.encode())
            h.update(repr(xs).encode())
            lat[kind] = {
                "n": len(xs),
                "p50_us": percentile(xs, 0.50) * 1e6,
                "p99_us": percentile(xs, 0.99) * 1e6,
            }
        body = {
            "clock": repr(self.after.now),
            "events": self.after.events,
            "cmcache": self.after.cm,
            "smcache": self.after.sm,
            "engine": self.after.engine,
            "pagecache": self.after.pagecache,
            "latency": lat,
            "latency_sha256": h.hexdigest(),
        }
        body["sha256"] = hashlib.sha256(
            json.dumps(body, sort_keys=True).encode()
        ).hexdigest()
        return body


def snapshot(tb) -> Snapshot:
    sim = tb.sim
    nodes = [c.node for c in tb.clients] + [s.node for s in tb.servers]
    nodes += [m.node for m in tb.mcds]
    nics = [tb.net.nic(n) for n in nodes]
    fs = [s.fs for s in tb.servers]
    pc: dict = {}
    st: dict = {}
    for f in fs:
        for k, v in f.page_cache.stats.as_dict().items():
            pc[k] = pc.get(k, 0) + v
        for k, v in f.device.stats.as_dict().items():
            st[k] = st.get(k, 0) + v
    return Snapshot(
        now=sim.now,
        events=sim._seq,
        cm=tb.cm_stats(),
        sm=tb.sm_stats(),
        engine=tb.mcd_stats(),
        pagecache=pc,
        storage=st,
        net=tb.net.stats.as_dict(),
        server_fops=sum(sum(s.stats.as_dict().values()) for s in tb.servers),
        nic_busy=[x.busy_time for nic in nics for x in (nic.tx, nic.rx)],
        mcd_cpu_busy=[m.node.cpu.busy_time / m.node.cpu.servers for m in tb.mcds],
        io_busy=sum(s.io_pool.busy_time / s.io_pool.servers for s in tb.servers),
        disk_busy=[d.arm.busy_time for f in fs for d in f.device.members],
    )


def _run_all(sim, gens) -> None:
    procs = [sim.process(g) for g in gens]
    sim.run(until=sim.all_of(procs))


def _drain_disks(tb) -> None:
    """Advance the clock until the brick's write-back has reached disk."""
    sim = tb.sim
    done = max(
        d.arm.backlog() for s in tb.servers for d in s.fs.device.members
    )
    if done > 0.0:
        sim.run(until=sim.now + done)


def closed_loop(client, ops, fds, plan: Plan, model: RefModel, lat: dict, counts: list, tick=None):
    """One client's closed loop over *ops* (a simulator process body).

    ``counts[0]`` counts attempted ops; latencies are appended to
    ``lat[kind]`` in sim seconds; failures go to *model*; *tick*, if
    given, is called when each op has completed.
    """
    sim = client.sim
    paths = plan.paths
    payloads = plan.payloads
    stat_lat, read_lat, write_lat = lat["stat"], lat["read"], lat["write"]
    for kind, f, off, pid, rec in ops:
        counts[0] += 1
        t0 = sim.now
        try:
            if kind == READ:
                cut = model.read_begin(rec)
                try:
                    result = yield from client.read(fds[f], off, RECORD)
                except BaseException:
                    model.read_abort(rec)
                    raise
                read_lat.append(sim.now - t0)
                model.read_end(rec, cut, result)
            elif kind == STAT:
                st = yield from client.stat(paths[f])
                stat_lat.append(sim.now - t0)
                model.check_stat(f, st)
            else:
                data = payloads[pid]
                entry = model.write_begin(rec, data, t0)
                yield from client.write(fds[f], off, RECORD, data)
                write_lat.append(sim.now - t0)
                model.write_end(rec, entry, sim.now)
        except Exception as e:  # an op that raises is a failed op; keep going
            model.fail(f"{OP_NAMES[kind]} {paths[f]}@{off}: {e!r}")
        if tick is not None:
            tick()


def setup(tb, plan: Plan) -> list[dict]:
    """Create, populate, drain and open; returns per-client fd tables."""
    sim = tb.sim
    shape = plan.shape
    c0 = tb.clients[0]

    def populate():
        for i, path in enumerate(plan.paths):
            fd = yield from c0.create(path)
            if plan.contents is not None:
                body = plan.contents[i]
                for off in range(0, len(body), POPULATE_CHUNK):
                    chunk = body[off : off + POPULATE_CHUNK]
                    yield from c0.write(fd, off, len(chunk), chunk)
            else:
                yield from c0.truncate(path, plan.sizes[i])
            yield from c0.close(fd)

    _run_all(sim, [populate()])
    _drain_disks(tb)
    fds: list[dict] = [{} for _ in tb.clients]
    if shape.data:

        def open_all(client, table):
            for i, path in enumerate(plan.paths):
                table[i] = yield from client.open(path)

        _run_all(sim, [open_all(c, fds[i]) for i, c in enumerate(tb.clients)])
    return fds


def run_rep(
    plan: Plan,
    wrap: Optional[Callable] = None,
    after_setup: Optional[Callable] = None,
    on_timed: Optional[Callable] = None,
) -> Rep:
    """Build, set up and run one repetition of *plan*.

    *wrap* turns each client's timed-loop generator into the generator
    the simulator runs (the traced run charges it to the ``bench``
    layer).  *after_setup(tb, plan)* runs after the warm pass.
    *on_timed(tb, start)* is called with ``start=True`` just before and
    ``False`` just after the timed phase.
    """
    shape = plan.shape
    model = RefModel(plan)
    lat = {name: [] for name in OP_NAMES}
    counts = [0]
    setup_clock = ProbeClock(max(1, sum(map(len, plan.warm)) // SETUP_PROBES))
    t0 = time.perf_counter()
    tb = build_gluster_testbed(
        TestbedConfig(
            num_clients=shape.clients,
            num_mcds=shape.mcds,
            mcd_memory=shape.mcd_memory,
            server_cache_bytes=shape.page_cache,
        )
    )
    fds = setup(tb, plan)
    setup_clock.sample()
    _run_all(
        tb.sim,
        [
            closed_loop(c, plan.warm[i], fds[i], plan, model, lat, counts, setup_clock.tick)
            for i, c in enumerate(tb.clients)
        ],
    )
    setup_clock.sample()
    setup_s = time.perf_counter() - t0 - sum(setup_clock.probes)
    if after_setup is not None:
        after_setup(tb, plan)

    lat = {name: [] for name in OP_NAMES}
    clock = ProbeClock(max(1, plan.timed_op_count // PROBES))
    tick = clock.tick if wrap is None else None
    gens = [
        closed_loop(c, plan.timed[i], fds[i], plan, model, lat, counts, tick)
        for i, c in enumerate(tb.clients)
    ]
    if wrap is not None:
        gens = [wrap(g) for g in gens]
    before = snapshot(tb)
    procs = [tb.sim.process(g) for g in gens]
    done = tb.sim.all_of(procs)
    if on_timed is not None:
        on_timed(tb, True)
    t1 = time.perf_counter()
    tb.sim.run(until=done)
    timed_s = time.perf_counter() - t1 - sum(clock.probes)
    if on_timed is not None:
        on_timed(tb, False)
    after = snapshot(tb)
    return Rep(
        setup_s=setup_s,
        timed_s=timed_s,
        probe_s=clock.probes,
        setup_probe_s=setup_clock.probes,
        ops=plan.timed_op_count,
        before=before,
        after=after,
        latencies={k: v for k, v in lat.items() if v},
        attempted=counts[0],
        failed=model.failed,
        first_failure=model.first_failure,
        scheduler=tb.sim.scheduler,
    )
