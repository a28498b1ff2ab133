"""Analytic FIFO queueing stations.

A :class:`FifoStation` models a work-conserving FIFO service centre with
``servers`` identical servers (a NIC serialiser, a disk arm, a pool of
service threads).  Because every job's service demand is known when it
arrives, the start/completion times can be computed *analytically* at
reservation time — one heap event per visit instead of the
request/hold/release triple of a :class:`~repro.sim.resources.Resource`.
This is the standard flow-level optimisation that keeps paper-scale
workloads (millions of operations) tractable in pure Python.

Semantics: reservations are served in reservation order.  When two
messages are committed in the same simulation instant this matches FIFO
exactly; reservations made "from the future" (pipelined hops, see
:meth:`FifoStation.reserve`) may order slightly differently from a true
arrival-time sort, which perturbs individual waits but conserves total
busy time — aggregate latency/throughput statistics are unaffected.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING

from repro.sim.events import NORMAL, PooledTimeout, Timeout
from repro.util.stats import OnlineStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


class FifoStation:
    """A c-server FIFO station with analytic reservation."""

    __slots__ = (
        "sim",
        "name",
        "servers",
        "_free",
        "_latest_free",
        "busy_time",
        "jobs",
        "wait_stats",
        "_track_waits",
        "_created_at",
    )

    def __init__(self, sim: "Simulator", servers: int = 1, name: str = "") -> None:
        if servers < 1:
            raise ValueError("servers must be >= 1")
        self.sim = sim
        self.name = name
        self.servers = servers
        # Earliest-free-server heap; server assignment by earliest free
        # time is exact for FIFO multi-server queues.
        self._free = [0.0] * servers
        #: Latest free time across all servers, maintained incrementally:
        #: every reservation's end is >= the popped minimum, so the max
        #: never decreases and ``max(latest, end)`` is exact.
        self._latest_free = 0.0
        self.busy_time = 0.0
        self.jobs = 0
        self.wait_stats = OnlineStats()
        # Per-visit wait statistics are skipped when the owning
        # simulator is unobserved (no tracer/sampler attached); bare
        # simulators default to tracking.
        self._track_waits = getattr(sim, "track_station_waits", True)
        self._created_at = sim.now

    def reserve(self, service: float, arrival: float | None = None) -> tuple[float, float]:
        """Reserve one server for *service* seconds.

        Returns ``(start, end)``.  *arrival* defaults to the current
        simulation time; hops chained through several stations pass the
        upstream completion time instead.
        """
        if service < 0:
            raise ValueError(f"negative service time: {service}")
        if arrival is None:
            arrival = self.sim._now
        free_heap = self._free
        if self.servers == 1:
            # Single-server fast path: the one-entry "heap" is a plain cell.
            free = free_heap[0]
            start = free if free > arrival else arrival
            end = start + service
            free_heap[0] = end
        else:
            free = heappop(free_heap)
            start = free if free > arrival else arrival
            end = start + service
            heappush(free_heap, end)
        if end > self._latest_free:
            self._latest_free = end
        self.busy_time += service
        self.jobs += 1
        if self._track_waits:
            self.wait_stats.add(start - arrival)
        return start, end

    def run(self, service: float) -> Timeout:
        """Reserve and return a timeout that fires at completion.

        ``yield station.run(cost)`` is the one-event replacement for the
        request/timeout/release pattern.  The returned timeout is drawn
        from the simulator's recycling pool: yield it immediately and do
        not retain it past its firing.

        This is :meth:`reserve` plus :meth:`Simulator.pooled_timeout`
        fused into one call — the kernel's single hottest entry point.
        """
        if service < 0:
            raise ValueError(f"negative service time: {service}")
        sim = self.sim
        arrival = sim._now
        free_heap = self._free
        if self.servers == 1:
            free = free_heap[0]
            start = free if free > arrival else arrival
            end = start + service
            free_heap[0] = end
        else:
            free = heappop(free_heap)
            start = free if free > arrival else arrival
            end = start + service
            heappush(free_heap, end)
        if end > self._latest_free:
            self._latest_free = end
        self.busy_time += service
        self.jobs += 1
        if self._track_waits:
            self.wait_stats.add(start - arrival)
        # Inlined sim.pooled_timeout(end - arrival); `arrival + delay`
        # (not `end`) preserves the seed's float arithmetic exactly.
        delay = end - arrival
        pool = sim._timeout_pool
        if pool:
            ev = pool.pop()
            ev.callbacks = []
            ev.delay = delay
            sim._seq += 1
            heappush(sim._heap, (arrival + delay, NORMAL, sim._seq, ev))
            return ev
        return PooledTimeout(sim, delay)

    def reserve_batch(
        self, services, arrival: float | None = None
    ) -> tuple[float, float]:
        """Admit a burst of visits in one vectored reservation.

        Returns ``(first_start, last_end)``.  The burst is served in
        sequence order, back to back: on a single-server station the
        whole batch collapses to **one** aggregate reservation of
        ``sum(services)`` seconds (one float add per visit avoided); on
        a multi-server station each visit still walks the earliest-free
        heap so server assignment stays exact, but no per-visit event is
        scheduled either way.

        Per-visit wait statistics degenerate to "wait of the burst":
        every visit is recorded as having waited from *arrival* to the
        burst's first start.  Aggregate busy time and job counts are
        exact.
        """
        if arrival is None:
            arrival = self.sim._now
        n = len(services)
        if n == 0:
            return arrival, arrival
        if self.servers == 1:
            if min(services) < 0:
                raise ValueError(f"negative service time in batch: {services}")
            total = sum(services)
            free = self._free[0]
            start = free if free > arrival else arrival
            end = start + total
            self._free[0] = end
            first_start = start
        else:
            free_heap = self._free
            first_start = None
            total = 0.0
            end = arrival
            for service in services:
                if service < 0:
                    raise ValueError(f"negative service time in batch: {services}")
                free = heappop(free_heap)
                start = free if free > arrival else arrival
                visit_end = start + service
                heappush(free_heap, visit_end)
                total += service
                if first_start is None or start < first_start:
                    first_start = start
                if visit_end > end:
                    end = visit_end
        if end > self._latest_free:
            self._latest_free = end
        self.busy_time += total
        self.jobs += n
        if self._track_waits:
            wait = first_start - arrival
            for _ in range(n):
                self.wait_stats.add(wait)
        return first_start, end

    def run_batch(self, services) -> Timeout:
        """Reserve a burst of visits and return **one** timeout that
        fires when the last visit completes.

        ``yield station.run_batch(costs)`` retires the whole burst with
        a single schedule entry and a single process wakeup, instead of
        the per-visit timeout of ``for c in costs: yield
        station.run(c)``.  The returned timeout is drawn from the
        simulator's recycling pool: yield it immediately and do not
        retain it past its firing.
        """
        sim = self.sim
        arrival = sim._now
        _, end = self.reserve_batch(services, arrival)
        delay = end - arrival
        pool = sim._timeout_pool
        if pool:
            ev = pool.pop()
            ev.callbacks = []
            ev.delay = delay
            sim._seq += 1
            heappush(sim._heap, (arrival + delay, NORMAL, sim._seq, ev))
            return ev
        return PooledTimeout(sim, delay)

    def next_free(self) -> float:
        """Earliest time a server becomes available."""
        # The earliest-free heap invariant keeps the minimum at index 0.
        return self._free[0]

    def backlog(self) -> float:
        """Seconds until *all* servers are free (queue depth proxy)."""
        remaining = self._latest_free - self.sim._now
        return remaining if remaining > 0.0 else 0.0

    def utilization(self, since: float | None = None) -> float:
        """Busy fraction of total server-time since *since* (creation
        by default).  May exceed 1.0 transiently because reservations
        extend into the future."""
        if since is None:
            since = self._created_at
        elapsed = self.sim.now - since
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * self.servers)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<FifoStation {self.name or id(self):} servers={self.servers} "
            f"jobs={self.jobs} backlog={self.backlog():.6f}s>"
        )
