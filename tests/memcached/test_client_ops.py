"""Network tests for the extended client command set."""

import pytest

from repro.memcached import MemcacheClient, MemcachedDaemon
from repro.net import Endpoint, IPOIB, Network, Node
from repro.sim import Simulator
from repro.util import MiB


def make(n_mcds=1):
    sim = Simulator()
    net = Network(sim, IPOIB)
    cnode = Node(sim, "client")
    cep = Endpoint(net, cnode)
    daemons = [MemcachedDaemon(sim, net, Node(sim, f"m{i}"), 16 * MiB) for i in range(n_mcds)]
    return sim, MemcacheClient(cep, daemons), daemons


def drive(sim, gen):
    p = sim.process(gen)
    sim.run(until=p)
    return p.value


def test_scalar_client_issues_one_rpc_per_get():
    """Six concurrent gets of one key cost six RPCs: the client never
    folds identical in-flight gets together."""
    sim, mc, _ = make()
    drive(sim, mc.set("k", b"v", 1))
    mc.endpoint.stats.values.clear()
    got = []

    def proc():
        v = yield from mc.get("k")
        got.append(v.value)

    for _ in range(6):
        sim.process(proc())
    sim.run()
    assert got == [b"v"] * 6
    assert mc.endpoint.stats.values["calls"] == 6


def test_add_and_replace():
    sim, mc, _ = make()

    def w():
        a1 = yield from mc.add("k", b"1", 1)
        a2 = yield from mc.add("k", b"2", 1)
        r1 = yield from mc.replace("k", b"3", 1)
        r2 = yield from mc.replace("ghost", b"4", 1)
        v = yield from mc.get("k")
        return a1, a2, r1, r2, v.value

    assert drive(sim, w()) == (True, False, True, False, b"3")


def test_cas_over_network():
    sim, mc, _ = make()

    def w():
        yield from mc.set("k", b"v1", 2)
        item = yield from mc.get("k")
        good = yield from mc.cas("k", b"v2", 2, item.cas)
        stale = yield from mc.cas("k", b"v3", 2, item.cas)
        missing = yield from mc.cas("nope", b"v", 1, 1)
        return good, stale, missing

    assert drive(sim, w()) == ("STORED", "EXISTS", "NOT_FOUND")


def test_incr_decr_touch():
    sim, mc, _ = make()

    def w():
        yield from mc.set("n", 5, 2)
        up = yield from mc.incr("n", 10)
        down = yield from mc.decr("n", 3)
        missing = yield from mc.incr("ghost")
        touched = yield from mc.touch("n", 60)
        untouched = yield from mc.touch("ghost", 60)
        return up, down, missing, touched, untouched

    assert drive(sim, w()) == (15, 12, None, True, False)


def test_append_prepend_over_network():
    sim, mc, _ = make()

    def w():
        yield from mc.set("k", b"mid", 3)
        ok1 = yield from mc.append("k", b">", 1)
        ok2 = yield from mc.prepend("k", b"<", 1)
        v = yield from mc.get("k")
        return ok1, ok2, v.value, v.nbytes

    ok1, ok2, value, nbytes = drive(sim, w())
    assert ok1 and ok2
    assert value == b"<mid>"
    assert nbytes == 5


def test_extended_ops_survive_dead_server():
    sim, mc, daemons = make()
    daemons[0].kill()

    def w():
        results = []
        results.append((yield from mc.add("k", b"v", 1)))
        results.append((yield from mc.cas("k", b"v", 1, 1)))
        results.append((yield from mc.incr("k")))
        results.append((yield from mc.touch("k", 5)))
        results.append((yield from mc.append("k", b"x", 1)))
        return results

    assert drive(sim, w()) == [False, "NOT_FOUND", None, False, False]
    assert mc.stats.get("errors") == 5
