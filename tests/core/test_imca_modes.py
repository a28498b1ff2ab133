"""IMCa modes: threaded updates, failures, block sizes, selectors."""

import pytest

from repro.cluster import TestbedConfig, build_gluster_testbed
from repro.core.config import IMCaConfig
from repro.util import KiB, MiB


def make(num_clients=1, num_mcds=1, imca=None, **kw):
    return build_gluster_testbed(
        TestbedConfig(num_clients=num_clients, num_mcds=num_mcds, imca=imca or IMCaConfig(), **kw)
    )


def drive(tb, gen):
    p = tb.sim.process(gen)
    tb.sim.run()
    return p.value


# -- threaded updates (Fig 6(c)) -------------------------------------------
def write_latency(threaded):
    tb = make(imca=IMCaConfig(threaded_updates=threaded))
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        t0 = tb.sim.now
        n = 32
        for i in range(n):
            yield from c.write(fd, i * 2 * KiB, 2 * KiB)
        return (tb.sim.now - t0) / n

    return drive(tb, w()), tb


def test_threaded_updates_cut_write_latency():
    """§5.3: 'By offloading the additional Read to a separate thread
    ... the Write latency can be reduced'."""
    sync_lat, _ = write_latency(threaded=False)
    thr_lat, _ = write_latency(threaded=True)
    assert thr_lat < sync_lat * 0.75


def test_threaded_mode_still_reaches_coherent_state():
    tb = make(imca=IMCaConfig(threaded_updates=True))
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 4 * KiB, b"x" * 4 * KiB)
        return None

    drive(tb, w())  # run() drains the update thread too
    tb2_items = sum(m.engine.curr_items for m in tb.mcds)
    assert tb2_items >= 2  # blocks + stat eventually pushed


@pytest.mark.parametrize("threads", [0, -1])
def test_config_rejects_fewer_than_one_update_thread(threads):
    # Threaded mode needs at least one worker to drain the update queue.
    with pytest.raises(ValueError, match="update_threads"):
        IMCaConfig(threaded_updates=True, update_threads=threads)


def test_threaded_write_latency_close_to_nocache():
    """Fig 6(c): threaded IMCa write latency ~= NoCache write latency."""
    thr_lat, _ = write_latency(threaded=True)

    tb = build_gluster_testbed(TestbedConfig(num_clients=1))
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        t0 = tb.sim.now
        for i in range(32):
            yield from c.write(fd, i * 2 * KiB, 2 * KiB)
        return (tb.sim.now - t0) / 32

    nocache_lat = drive(tb, w())
    assert thr_lat == pytest.approx(nocache_lat, rel=0.15)


# -- MCD failures (§4.4) ---------------------------------------------------------
def test_mcd_failure_transparent_correctness():
    """'Failures in MCDs do not impact correctness'."""
    tb = make(num_mcds=2)
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 8 * KiB, b"k" * 8 * KiB)
        tb.mcds[0].kill()
        r = yield from c.read(fd, 0, 8 * KiB)  # some blocks unreachable
        yield from c.write(fd, 0, KiB, b"m" * KiB)  # pushes fail silently
        r2 = yield from c.read(fd, 0, 2 * KiB)
        st = yield from c.stat("/f")
        return r, r2, st

    r, r2, st = drive(tb, w())
    assert r.data == b"k" * 8 * KiB
    assert r2.data == b"m" * KiB + b"k" * KiB
    assert st.size == 8 * KiB


def test_mcd_failure_degrades_to_server_path():
    tb = make(num_mcds=1)
    c = tb.clients[0]
    cm = tb.cmcaches[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 4 * KiB)
        tb.mcds[0].kill()
        before = tb.server.stats.get("fop_read", 0)
        yield from c.read(fd, 0, 4 * KiB)
        return tb.server.stats.get("fop_read", 0) - before

    server_reads = drive(tb, w())
    assert server_reads == 1  # forwarded to the server
    assert cm.mc.stats.get("errors") >= 1


def test_mcd_restart_rejoins_cold():
    tb = make(num_mcds=1)
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 4 * KiB, b"a" * 4 * KiB)
        tb.mcds[0].kill()
        tb.mcds[0].restart()
        r1 = yield from c.read(fd, 0, 4 * KiB)  # miss -> server, repopulates
        r2 = yield from c.read(fd, 0, 4 * KiB)  # hit
        return r1, r2

    r1, r2 = drive(tb, w())
    assert r1.data == r2.data == b"a" * 4 * KiB
    assert tb.cmcaches[0].metrics.get("read_hits") == 1


# -- block size behaviour (§4.3.1 / Fig 6) ------------------------------------------
@pytest.mark.parametrize("block_size", [256, 2 * KiB, 8 * KiB])
def test_block_sizes_all_correct(block_size):
    tb = make(imca=IMCaConfig(block_size=block_size))
    c = tb.clients[0]
    payload = bytes(i % 256 for i in range(20 * KiB))

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, len(payload), payload)
        r = yield from c.read(fd, 3 * KiB + 7, 9 * KiB)
        return r

    r = drive(tb, w())
    assert r.data == payload[3 * KiB + 7 : 3 * KiB + 7 + 9 * KiB]


def test_small_blocks_mean_more_mcd_trips_for_large_reads():
    """§5.3: 'Smaller block sizes ... degrade the performance of larger
    Reads, since CMCache must make multiple trips to the MCDs'."""

    def read_latency(block_size):
        tb = make(imca=IMCaConfig(block_size=block_size))
        c = tb.clients[0]

        def w():
            fd = yield from c.create("/f")
            yield from c.write(fd, 0, 64 * KiB)
            t0 = tb.sim.now
            for _ in range(8):
                yield from c.read(fd, 0, 64 * KiB)
            return (tb.sim.now - t0) / 8

        return drive(tb, w())

    assert read_latency(256) > read_latency(8 * KiB)


# -- selector (§5.5) -------------------------------------------------------------------
def test_modulo_selector_round_robins_blocks():
    tb = make(num_mcds=4, imca=IMCaConfig(selector="modulo"))
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 64 * KiB)  # 32 blocks over 4 MCDs
        r = yield from c.read(fd, 0, 64 * KiB)
        return r

    r = drive(tb, w())
    assert r.size == 64 * KiB
    data_items = [
        sum(1 for k in m.engine._items if not k.endswith(":stat")) for m in tb.mcds
    ]
    assert data_items == [8, 8, 8, 8]


# -- capacity misses (§5.4) ---------------------------------------------------------------
def test_small_mcd_memory_causes_capacity_misses():
    """Fig 8 mechanism: a working set larger than the MCD array evicts
    blocks and reads start missing."""
    tb = make(num_mcds=1, mcd_memory=2 * MiB, imca=IMCaConfig(block_size=2 * KiB))
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        size = 8 * MiB  # >> 2 MiB of MCD memory
        step = 64 * KiB
        for off in range(0, size, step):
            yield from c.write(fd, off, step)
        # Sequential re-read: head of file long evicted.
        r = yield from c.read(fd, 0, 64 * KiB)
        return r

    r = drive(tb, w())
    assert r.size == 64 * KiB
    assert tb.cmcaches[0].metrics.get("read_misses", 0) >= 1
    assert tb.mcd_stats().get("evictions", 0) > 0
