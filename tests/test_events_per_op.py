"""Exact scheduled-event cost of the warm IMCa hit paths.

Events per op are deterministic, so they are pinned exactly: a change
that adds a process, a start event or a join to a hit path fails here
with the op named, long before it shows as a throughput drift.  The
testbed is the default GlusterFS + IMCa build with two MCDs (CRC32
placement); ``/a`` is a two-block file whose ``:stat`` key lives with
block 0 and apart from block 1.
"""

import pytest

from repro.cluster import TestbedConfig, build_gluster_testbed

PATH = "/a"


@pytest.fixture(scope="module")
def costs():
    tb = build_gluster_testbed(TestbedConfig(num_clients=1, num_mcds=2))
    sim = tb.sim
    client = tb.clients[0]
    cm = tb.cmcaches[0]
    mc = cm.mc
    bs = cm.mapper.block_size
    placement = (
        mc._read_idx(cm._keys.data_key(PATH, 0), 0),
        mc._read_idx(cm._keys.data_key(PATH, bs), 1),
        mc._read_idx(cm._keys.stat_key(PATH), None),
    )
    out = {}

    def measure(name, gen):
        seq, calls = sim._seq, mc.endpoint.stats.get("calls", 0)
        value = yield from gen
        out[name] = (sim._seq - seq, mc.endpoint.stats.get("calls", 0) - calls, value)

    def scenario():
        fd = yield from client.create(PATH)
        yield from client.write(fd, 0, 2 * bs, b"x" * (2 * bs))
        # Warm: the read-back fills the blocks, the write the stat entry.
        yield from client.read(fd, 0, bs)
        yield from client.read(fd, bs, bs)
        yield from client.stat(PATH)
        yield sim.timeout(1.0)
        yield from measure("stat", client.stat(PATH))
        yield from measure("read_one_mcd", client.read(fd, 0, bs))
        yield from measure("read_two_mcds", client.read(fd, bs, bs))
        yield from measure("get_multi_empty", mc.get_multi([]))

    sim.process(scenario())
    sim.run()
    return {"placement": placement, "stats": tb.cm_stats(), **out}


def test_keys_land_where_the_cases_say(costs):
    block0, block1, stat = costs["placement"]
    assert block0 == stat != block1


def test_every_measured_read_and_stat_hit(costs):
    assert costs["stats"]["stat_hits"] == 2
    assert costs["stats"]["read_hits"] == 4
    assert costs["stats"].get("read_misses", 0) == 0


def test_warm_stat_hit_costs_five_events(costs):
    events, calls, _ = costs["stat"]
    assert (events, calls) == (5, 1)


def test_one_mcd_read_hit_costs_five_events(costs):
    """Block and ``:stat`` share a multi-get batch, driven inline: the
    same cost as a stat hit, with no batch process or join."""
    events, calls, result = costs["read_one_mcd"]
    assert (events, calls) == (5, 1)
    assert result.data == b"x" * result.size


def test_two_mcd_read_hit_costs_eleven_events(costs):
    """One batch inline, one child process joined directly."""
    events, calls, _ = costs["read_two_mcds"]
    assert (events, calls) == (11, 2)


def test_empty_get_multi_schedules_nothing(costs):
    assert costs["get_multi_empty"] == (0, 0, {})
