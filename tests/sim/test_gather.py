"""Tests for ``Simulator.gather``: the kernel's one fan-out/join primitive.

``gather`` drives its first branch inline in the caller and spawns the
rest, so it must be indistinguishable from spawning every branch and
joining with ``all_of`` in everything but the events it schedules.
"""

import pytest

from repro.sim import FifoStation, Simulator


def _station_run(join):
    """Three branches contend for one station from t=1.

    Returns the start-order log, the completion log and the results.
    *join* is ``"gather"`` or ``"all_of"``.
    """
    sim = Simulator()
    st = FifoStation(sim)
    starts, ends, out = [], [], []

    def branch(tag, service, steps):
        starts.append((tag, sim.now))
        for _ in range(steps):
            yield st.run(service)
        ends.append((tag, sim.now))
        return tag

    def caller():
        yield sim.timeout(1.0)
        gens = [branch("a", 0.5, 2), branch("b", 0.25, 1), branch("c", 1.0, 1)]
        if join == "gather":
            results = yield from sim.gather(gens, "g")
        else:
            procs = [sim.process(g, name="g") for g in gens]
            done = yield sim.all_of(procs)
            results = [done[p] for p in procs]
        out.append((sim.now, results))

    sim.process(caller())
    sim.run()
    return starts, ends, out, sim


def test_branches_start_in_list_order_at_the_callers_instant():
    starts, _, _, _ = _station_run("gather")
    assert starts == [("a", 1.0), ("b", 1.0), ("c", 1.0)]


def test_station_reservation_order_matches_spawning_every_branch():
    g_starts, g_ends, g_out, _ = _station_run("gather")
    s_starts, s_ends, s_out, _ = _station_run("all_of")
    assert g_starts == s_starts
    assert g_ends == s_ends
    assert g_out == s_out


def test_nested_fan_out_starts_the_inline_path_depth_first():
    """Siblings are created before the inline branch runs, so an inline
    branch that fans out again starts its own inline branch at once, but
    its spawned children queue behind the outer siblings.  (Spawning
    every branch would start ``a0`` after ``c``; creating the siblings
    after the inline branch would start ``a1`` before ``b``.)"""
    sim = Simulator()
    st = FifoStation(sim)
    starts = []

    def leaf(tag):
        starts.append(tag)
        yield st.run(1.0)
        return tag

    def inner(tag):
        starts.append(tag)
        return (yield from sim.gather([leaf(tag + "0"), leaf(tag + "1")]))

    def caller():
        return (yield from sim.gather([inner("a"), leaf("b"), inner("c")]))

    proc = sim.process(caller())
    sim.run()
    assert starts == ["a", "a0", "b", "c", "c0", "a1", "c1"]
    assert proc.value == [["a0", "a1"], "b", ["c0", "c1"]]
    assert sim.now == 5.0


def test_results_come_back_in_list_order():
    _, ends, out, _ = _station_run("gather")
    # "b" and "c" finish before "a"'s second visit, yet the result list
    # follows the branch list, not completion order.
    assert [tag for tag, _ in ends] == ["b", "c", "a"]
    assert out == [(3.25, ["a", "b", "c"])]


@pytest.mark.parametrize("width, saved", [(1, 3), (2, 3), (3, 2)])
def test_events_saved_over_spawning_every_branch(width, saved):
    """The inline branch saves its start and completion events; with
    one or two branches the ``AllOf`` join goes too."""

    def run(join):
        sim = Simulator()
        out = []

        def branch(i):
            yield sim.timeout(1.0 + i)
            return i

        def caller():
            gens = [branch(i) for i in range(width)]
            if join == "gather":
                out.append((yield from sim.gather(gens)))
            else:
                procs = [sim.process(g) for g in gens]
                done = yield sim.all_of(procs)
                out.append([done[p] for p in procs])

        sim.process(caller())
        sim.run()
        return out, sim.now, sim._seq, sim._proc_seq

    g_out, g_now, g_seq, g_procs = run("gather")
    s_out, s_now, s_seq, s_procs = run("all_of")
    assert (g_out, g_now) == (s_out, s_now) == ([list(range(width))], float(width))
    assert s_procs - g_procs == 1
    assert s_seq - g_seq == saved


def test_child_done_before_the_inline_branch_is_joined_without_waiting():
    """The child finishes first; the join reads its value at once and
    schedules no join event."""
    sim = Simulator()
    out = []

    def branch(delay, value):
        yield sim.timeout(delay)
        return value

    def caller():
        out.append((yield from sim.gather([branch(2.0, "x"), branch(1.0, "y")])))

    sim.process(caller())
    sim.run()
    assert out == [["x", "y"]]
    # caller start, child start, 2 timeouts, child and caller completion.
    assert sim._seq == 6
    assert sim.now == 2.0


def test_zero_branches_return_empty_without_scheduling():
    sim = Simulator()
    gen = sim.gather([])
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == []
    assert sim._seq == 0
    assert sim._proc_seq == 0


def test_one_branch_costs_exactly_a_plain_yield_from():
    def run(use_gather):
        sim = Simulator()
        st = FifoStation(sim)
        out = []

        def branch():
            yield sim.timeout(1.0)
            yield st.run(0.5)
            return sim.now

        def caller():
            if use_gather:
                out.append((yield from sim.gather([branch()], "g")))
            else:
                out.append([(yield from branch())])

        sim.process(caller())
        procs_before = sim._proc_seq
        sim.run()
        return out, sim._seq, sim._proc_seq - procs_before

    assert run(True) == run(False) == ([[1.5]], 4, 0)


def test_inline_branch_failure_reaches_the_caller():
    sim = Simulator()
    caught = []

    def bad():
        yield sim.timeout(1.0)
        raise KeyError("inline")

    def good():
        yield sim.timeout(2.0)
        return "ok"

    def caller():
        try:
            yield from sim.gather([bad(), good()])
        except KeyError as exc:
            caught.append((sim.now, exc.args[0]))

    sim.process(caller())
    sim.run()
    assert caught == [(1.0, "inline")]


@pytest.mark.parametrize("width", [2, 3])
def test_child_failing_while_caller_is_inline_is_held_for_the_join(width):
    """The child dies at t=1 while the caller is still inside the inline
    branch (until t=2): the run loop must not treat that as an unhandled
    failure, and the caller gets the exception when it reaches the join."""
    sim = Simulator()
    caught = []

    def slow():
        yield sim.timeout(2.0)
        return "slow"

    def dies():
        yield sim.timeout(1.0)
        raise ValueError("child")

    def caller():
        gens = [slow(), dies()] + [slow() for _ in range(width - 2)]
        try:
            yield from sim.gather(gens)
        except ValueError as exc:
            caught.append((sim.now, exc.args[0]))
        yield sim.timeout(1.0)
        caught.append(("after", sim.now))

    sim.process(caller())
    sim.run()
    assert caught == [(2.0, "child"), ("after", 3.0)]


@pytest.mark.parametrize("width", [2, 3])
def test_child_failing_after_the_join_starts_fails_the_caller(width):
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)
        return "quick"

    def dies():
        yield sim.timeout(2.0)
        raise RuntimeError("late")

    def caller():
        gens = [quick()] + [quick() for _ in range(width - 2)] + [dies()]
        yield from sim.gather(gens)

    proc = sim.process(caller())
    with pytest.raises(RuntimeError, match="late"):
        sim.run(until=proc)
    assert sim.now == 2.0


def test_inline_failure_releases_children_still_running():
    """The inline branch raises at t=1: the caller gets that exception at
    once.  A child that had already failed (t=0.5) is dropped; a child
    still running is released, so its different failure at t=2 reaches
    the run loop instead of vanishing."""
    sim = Simulator()
    caught = []

    def bad_inline():
        yield sim.timeout(1.0)
        raise KeyError("inline")

    def early():
        yield sim.timeout(0.5)
        raise ValueError("early child")

    def late():
        yield sim.timeout(2.0)
        raise RuntimeError("late child")

    def caller():
        try:
            yield from sim.gather([bad_inline(), early(), late()])
        except KeyError as exc:
            caught.append((sim.now, exc.args[0]))

    sim.process(caller())
    with pytest.raises(RuntimeError, match="late child"):
        sim.run()
    assert caught == [(1.0, "inline")]
    assert sim.now == 2.0


def test_inline_failure_leaves_a_succeeding_child_alone():
    sim = Simulator()
    caught = []

    def bad_inline():
        yield sim.timeout(1.0)
        raise KeyError("inline")

    def ok():
        yield sim.timeout(2.0)
        return "ok"

    def caller():
        try:
            yield from sim.gather([bad_inline(), ok()])
        except KeyError as exc:
            caught.append((sim.now, exc.args[0]))

    sim.process(caller())
    sim.run()
    assert caught == [(1.0, "inline")]
    assert sim.now == 2.0
