"""Resilience-layer tests: physical failure timing, deadlines, retries."""

import pytest

from repro.net import (
    Endpoint,
    IPOIB,
    LinkImpairment,
    Network,
    NetworkError,
    Node,
    RetryPolicy,
    RpcTimeout,
    RpcUnavailable,
)
from repro.sim import Simulator
from repro.sim.rand import RandomStreams
from repro.util import USEC


def make_net(nodes=2):
    sim = Simulator()
    net = Network(sim, IPOIB)
    ns = [Node(sim, f"n{i}") for i in range(nodes)]
    for n in ns:
        net.attach(n)
    return sim, net, ns


def make_pair():
    sim = Simulator()
    net = Network(sim, IPOIB)
    client, server = Node(sim, "client"), Node(sim, "server")
    cep, sep = Endpoint(net, client), Endpoint(net, server)
    return sim, net, client, server, cep, sep


# --------------------------------------------------------------------------- #
# Fabric: failure timing is physical
# --------------------------------------------------------------------------- #
def test_dead_destination_error_charges_the_one_way_trip():
    """The sender pays CPU + NIC + wire before learning the peer is
    dead — failure cannot be detected faster than the message travels."""
    sim, net, (a, b) = make_net()
    b.fail()
    seen = []

    def proc():
        try:
            yield net.transfer(a, b, 100)
        except NetworkError as e:
            seen.append((sim.now, str(e)))

    sim.process(proc())
    sim.run()
    (t, msg), = seen
    assert "down" in msg
    # At least the wire latency; in the same ballpark as a healthy
    # one-way traversal (bounded well below an RPC round trip).
    assert IPOIB.wire_latency <= t < 2 * IPOIB.wire_latency + 50 * USEC
    assert net.stats.get("undeliverable") == 1


def test_dead_source_raises_synchronously():
    sim, net, (a, b) = make_net()
    a.fail()
    with pytest.raises(NetworkError):
        net.transfer(a, b, 100)


def test_impairment_validation_and_restore():
    sim, net, (a, b) = make_net()
    with pytest.raises(ValueError):
        LinkImpairment(extra_latency=-1.0)
    with pytest.raises(ValueError):
        LinkImpairment(loss_prob=1.5)
    with pytest.raises(ValueError):
        net.degrade(b.name, loss_prob=0.5)  # no loss_rng wired
    net.degrade(b.name, extra_latency=1e-3)
    assert net.impairment(b.name).extra_latency == 1e-3
    net.restore(b.name)
    assert net.impairment(b.name) is None


def test_message_loss_surfaces_as_network_error_after_the_trip():
    sim, net, (a, b) = make_net()
    net.loss_rng = RandomStreams(1).stream("net.loss")
    net.degrade(b.name, loss_prob=1.0)
    seen = []

    def proc():
        try:
            yield net.transfer(a, b, 100)
        except NetworkError as e:
            seen.append((sim.now, str(e)))

    sim.process(proc())
    sim.run()
    (t, msg), = seen
    assert "lost" in msg
    assert t >= IPOIB.wire_latency
    assert net.stats.get("lost") == 1


def test_loss_draws_are_seed_deterministic():
    def outcomes(seed):
        sim, net, (a, b) = make_net()
        net.loss_rng = RandomStreams(seed).stream("net.loss")
        net.degrade(b.name, loss_prob=0.5)
        results = []

        def proc():
            for _ in range(20):
                try:
                    yield net.transfer(a, b, 64)
                    results.append(1)
                except NetworkError:
                    results.append(0)

        sim.process(proc())
        sim.run()
        return results

    assert outcomes(5) == outcomes(5)
    assert outcomes(5) != outcomes(6)


# --------------------------------------------------------------------------- #
# RPC: deadlines and retries
# --------------------------------------------------------------------------- #
def test_slow_call_times_out_at_the_deadline():
    sim, net, client, server, cep, sep = make_pair()

    def sluggish(call):
        yield call.dst.cpu.run(0.05)
        return "late", 16

    sep.register("sluggish", sluggish)
    seen = []

    def proc():
        try:
            yield from cep.call(server, "sluggish", timeout=0.002)
        except RpcTimeout as e:
            seen.append((sim.now, str(e)))

    sim.process(proc())
    sim.run()
    assert seen and seen[0][0] == pytest.approx(0.002)
    assert cep.stats.get("timeouts") == 1


def test_fast_call_with_deadline_succeeds():
    sim, net, client, server, cep, sep = make_pair()

    def echo(call):
        yield call.dst.cpu.run(5 * USEC)
        return "fast", 16

    sep.register("echo", echo)
    got = []

    def proc():
        reply = yield from cep.call(server, "echo", timeout=0.01)
        got.append(reply)

    sim.process(proc())
    sim.run()
    assert got == ["fast"]
    assert cep.stats.get("timeouts", 0) == 0


def test_retry_rides_through_a_server_flap():
    sim, net, client, server, cep, sep = make_pair()

    def echo(call):
        yield call.dst.cpu.run(5 * USEC)
        return "ok", 16

    sep.register("echo", echo)
    server.fail()

    def revive():
        yield sim.timeout(0.003)
        server.recover()

    sim.process(revive())
    policy = RetryPolicy(max_retries=10, backoff=1e-3, backoff_factor=2.0)
    got = []

    def proc():
        reply = yield from cep.call_retry(server, "echo", policy=policy)
        got.append((sim.now, reply))

    sim.process(proc())
    sim.run()
    assert got and got[0][1] == "ok"
    assert got[0][0] > 0.003  # could not finish before the flap ended
    assert cep.stats.get("retries") >= 1


def test_retry_budget_exhaustion_reraises():
    sim, net, client, server, cep, sep = make_pair()
    sep.register("echo", lambda call: iter(()))
    server.fail()
    policy = RetryPolicy(max_retries=2, backoff=1e-4)
    seen = []

    def proc():
        try:
            yield from cep.call_retry(server, "echo", policy=policy)
        except RpcUnavailable:
            seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert len(seen) == 1
    assert cep.stats.get("retries") == 2


def test_backoff_schedule_and_jitter():
    plain = RetryPolicy(max_retries=4, backoff=1e-3, backoff_factor=2.0, max_backoff=3e-3)
    assert [plain.delay_for(i) for i in range(4)] == [1e-3, 2e-3, 3e-3, 3e-3]
    with pytest.raises(ValueError):
        RetryPolicy(jitter=0.1)  # jitter requires an rng
    rng_a = RandomStreams(9).stream("rpc.jitter")
    rng_b = RandomStreams(9).stream("rpc.jitter")
    a = RetryPolicy(max_retries=4, backoff=1e-3, jitter=0.2, rng=rng_a)
    b = RetryPolicy(max_retries=4, backoff=1e-3, jitter=0.2, rng=rng_b)
    da = [a.delay_for(i) for i in range(6)]
    db = [b.delay_for(i) for i in range(6)]
    assert da == db  # same seed, same jitter draws
    assert all(1e-3 <= d <= 1e-3 * 1.2 for d in da[:1])
    assert any(d != plain.delay_for(i) for i, d in enumerate(da[:4]))


def test_no_timeout_no_policy_is_the_historical_path():
    """Default arguments must not change healthy-path behaviour."""
    sim, net, client, server, cep, sep = make_pair()

    def echo(call):
        yield call.dst.cpu.run(5 * USEC)
        return "x", 16

    sep.register("echo", echo)
    t, calls = [], []

    def proc():
        r1 = yield from cep.call(server, "echo")
        t.append(sim.now)
        calls.append(cep.stats.get("calls"))
        r2 = yield from cep.call_retry(server, "echo", policy=None)
        t.append(sim.now)
        calls.append(cep.stats.get("calls"))
        assert r1 == r2 == "x"

    sim.process(proc())
    sim.run()
    assert t[1] - t[0] == pytest.approx(t[0])  # identical round-trip cost
    assert calls == [1, 2]  # each counts one call, exactly like call()

    # A dead destination fails the call when it is driven, not when the
    # generator is made.
    server.fail()
    gen = cep.call_retry(server, "echo", policy=None)
    seen = []

    def dead():
        try:
            yield from gen
        except RpcUnavailable:
            seen.append(sim.now)

    sim.process(dead())
    sim.run()
    assert len(seen) == 1 and seen[0] > t[1]
