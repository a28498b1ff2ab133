"""Tests for calls that must fail before any request traffic starts.

An unknown service is rejected up front: no request bytes cross the
network, no simulated time passes and the call is not counted, whether
one call or a same-instant group of calls asks for it.
"""

from repro.net import IPOIB, Network, Node
from repro.net.rpc import Endpoint, RpcUnavailable
from repro.sim import Simulator


def make_pair():
    sim = Simulator()
    net = Network(sim, IPOIB)
    a, b = Node(sim, "a"), Node(sim, "b")
    cep = Endpoint(net, a)
    sep = Endpoint(net, b)

    def echo(call):
        return call.args * 2, 64
        yield  # pragma: no cover  (generator handler that never waits)

    sep.register("echo", echo)
    return sim, cep, b


def test_unknown_service_raises_before_the_window_opens():
    sim, cep, dst = make_pair()
    caught = []

    def proc():
        try:
            yield from cep.call(dst, "ghost", None)
        except RpcUnavailable as e:
            caught.append((str(e), sim.now))

    for _ in range(3):
        sim.process(proc())
    sim.run()
    assert len(caught) == 3
    assert all("ghost" in msg and at == 0.0 for msg, at in caught)
    assert "calls" not in cep.stats.values
