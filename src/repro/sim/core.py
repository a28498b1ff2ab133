"""The discrete-event simulator core: clock, event queue, and run loop.

The event queue is one global binary heap of ``(time, priority, seq,
event)`` entries.  ``seq`` is unique, so entries pop in a strict total
order and a run is exactly reproducible.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from itertools import repeat
from typing import Any, Generator, Iterable, Sequence

from repro.sim.errors import EmptySchedule, StopSimulation
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    NORMAL,
    PENDING,
    PooledTimeout,
    STOP,
    Timeout,
)
from repro.sim.process import Process, ProcessGenerator


class Simulator:
    """A deterministic discrete-event simulator.

    Time is a float in seconds, starting at ``initial_time``.  Events at
    equal timestamps are ordered by priority then FIFO by scheduling
    sequence, so runs are exactly reproducible.

    Examples
    --------
    >>> sim = Simulator()
    >>> def hello(sim):
    ...     yield sim.timeout(1.0)
    ...     return sim.now
    >>> proc = sim.process(hello(sim))
    >>> sim.run()
    >>> proc.value
    1.0
    """

    #: Cap on the recycled-timeout free list: a one-off burst of pooled
    #: timeouts (a stampede, a fan-out) must not pin thousands of dead
    #: event objects for the rest of the run.  Steady-state reuse needs
    #: only about one pooled event per concurrently-waiting process.
    TIMEOUT_POOL_MAX = 1024

    #: Event-queue kind; kept because benchmark run metadata records it.
    scheduler = "heap"

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        #: Monotone process counter; gives every Process a stable per-sim
        #: serial so observers (the span tracer) can key per-process
        #: state deterministically across runs.
        self._proc_seq = 0
        self._active_process: Process | None = None
        #: Free list of processed :class:`PooledTimeout` events; the run
        #: loop refills it, :meth:`pooled_timeout` drains it.
        self._timeout_pool: list[PooledTimeout] = []
        #: Whether analytic stations should accumulate per-visit wait
        #: statistics.  Observability bundles flip this on when a tracer
        #: or sampler is attached; unobserved experiment runs skip the
        #: bookkeeping on every reservation.  Bare simulators keep it on
        #: so direct station users (tests, notebooks) see their stats.
        self.track_station_waits = True

    # -- public clock/state ----------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Process | None:
        return self._active_process

    @property
    def pending(self) -> int:
        """Number of scheduled-but-unprocessed events."""
        return len(self._heap)

    # -- event factories --------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def pooled_timeout(self, delay: float) -> Timeout:
        """A recycled valueless timeout for internal one-shot waits.

        Semantically ``timeout(delay)``, but the event object is reused
        once processed (see :class:`PooledTimeout`).  Callers must yield
        it immediately and never retain it past its firing; *delay* is
        trusted to be non-negative.
        """
        pool = self._timeout_pool
        if pool:
            ev = pool.pop()
            ev.callbacks = []
            ev._value = None
            ev.delay = delay
            self._seq += 1
            heappush(self._heap, (self._now + delay, NORMAL, self._seq, ev))
            return ev
        return PooledTimeout(self, delay)

    def process(self, generator: ProcessGenerator, name: str | None = None) -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def gather(
        self, gens: Sequence[ProcessGenerator], name: str | None = None
    ) -> Generator[Event, Any, list]:
        """Run *gens* concurrently; results in list order.

        Use as ``results = yield from sim.gather(gens, name)``.
        ``gens[0]`` runs inline in the caller, with no process, start or
        completion event; ``gens[1:]`` become child processes named
        *name*, joined directly if there is one and with ``AllOf`` if
        more.  The children are created first, so every branch reaches
        its first yield at the caller's instant in list order, as if all
        had been spawned, and keeps that order on shared stations.

        A failing branch fails the caller.  A child that fails while the
        caller is still in the inline branch is held for the join.  If
        the inline branch raises, the caller gets that exception at
        once: a child that had already failed is dropped, and a child
        still running is released, so a later failure of it reaches the
        run loop as an unjoined process's would.
        """
        if not gens:
            return []
        procs = [Process(self, gen, name=name) for gen in gens[1:]]
        for proc in procs:
            proc._defused = True  # held for the join, not the run loop
        try:
            first = yield from gens[0]
        except BaseException:
            for proc in procs:
                if not proc.triggered:
                    proc._defused = False
            raise
        if not procs:
            return [first]
        if len(procs) == 1:
            return [first, (yield procs[0])]
        done = yield AllOf(self, procs)
        return [first, *(done[p] for p in procs)]

    # -- scheduling --------------------------------------------------------
    def _schedule(
        self,
        event: Event,
        priority: int = NORMAL,
        delay: float = 0.0,
        *,
        at: float | None = None,
    ) -> None:
        """Schedule *event*; every schedule entry's sequence number is
        minted here.  ``at`` pins an exact absolute timestamp
        (``now + delay`` is not float-exact when ``delay`` was derived
        from ``at - now``).
        """
        self._seq += 1
        heappush(
            self._heap,
            (self._now + delay if at is None else at, priority, self._seq, event),
        )

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` if none)."""
        return self._heap[0][0] if self._heap else float("inf")

    def _run_loop(self, limit: int = -1) -> int:
        """Pop and dispatch events until the schedule empties or *limit*
        events have been processed (negative = unbounded).

        This is the **only** event-processing path in the engine:
        :meth:`run` calls it unbounded, :meth:`step` calls it with
        ``limit=1``, so the two cannot drift.  Returns the number of
        events processed.

        The loop is the kernel's hottest code; everything it touches is
        bound to locals once.  Exhaustion surfaces as ``IndexError``
        from *pop*, which is caught *around the pop alone* — an
        ``IndexError`` escaping a user callback still propagates.
        """
        # `partial` binds the heap at C level: per-pop cost is
        # indistinguishable from an inline `heappop(self._heap)`.
        pop = partial(heappop, self._heap)
        pool = self._timeout_pool
        pool_max = self.TIMEOUT_POOL_MAX
        pooled_cls = PooledTimeout
        processed = 0
        # `repeat` is a C-level iterator: the bounded/unbounded budget
        # costs nothing per iteration, unlike an int countdown.
        for _ in repeat(None) if limit < 0 else repeat(None, limit):
            try:
                when, _, _, event = pop()
            except IndexError:
                break
            processed += 1
            self._now = when
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            if event._ok:
                if event.__class__ is pooled_cls:
                    if len(pool) < pool_max:
                        pool.append(event)
            elif not event._defused:
                # Nobody handled the failure: surface it.
                raise event._value
        return processed

    def step(self) -> None:
        """Process exactly one event (advance the clock to it)."""
        if not self._run_loop(1):
            raise EmptySchedule("no more events")

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the heap empties, *until* time passes, or *until*
        event fires.  Returns the until-event's value when given one,
        and raises its exception if it failed.
        """
        stop_event: Event | None = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:  # already processed
                if not stop_event._ok:
                    raise stop_event._value
                return stop_event._value
            stop_event.callbacks.append(self._stop_on)
        else:
            at = float(until)
            if not at >= self._now:  # also rejects NaN
                raise ValueError(f"until={at} is not a time >= now ({self._now})")
            stop_event = Event(self)
            stop_event._ok = True
            stop_event._value = None
            # STOP priority: the clock halts *before* any user event
            # scheduled at `at`.
            self._schedule(stop_event, STOP, at=at)
            stop_event.callbacks.append(self._stop_on)

        try:
            self._run_loop()
        except StopSimulation as stop:
            return stop.value

        if until is not None and isinstance(until, Event) and until._value is PENDING:
            raise EmptySchedule(
                "simulation ran out of events before the until-event fired"
            )
        return None

    @staticmethod
    def _stop_on(event: Event) -> None:
        if not event._ok:
            raise event._value
        raise StopSimulation(event._value)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Simulator t={self._now:.9f} pending={self.pending}>"
