"""A memcached daemon running on a simulated node.

"Memcached is usually run as a daemon on spare nodes ... The Memcache
daemon may be accessed through TCP/IP connections" (§2.2).  The daemon
wraps a :class:`MemcachedEngine` behind one RPC service.  Per-op CPU is
tiny compared to a file-server op — an event-loop hash-table lookup —
which is precisely why a bank of MCDs scales past the GlusterFS server
(§4.4 "Latency for requests read from the cache is lower").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.memcached.engine import MemcachedEngine, McError
from repro.memcached.tenancy import TenantArbiter
from repro.net.fabric import Network, Node
from repro.net.rpc import Endpoint, RpcCall
from repro.obs.trace import NULL_TRACER
from repro.util.units import GiB, USEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

#: RPC service name.
SERVICE = "memcached"

#: Per-command CPU cost (hash lookup + event loop) and per-byte copy.
OP_CPU = 3 * USEC
COPY_PER_BYTE = 1.0 / (4 * GiB)

#: Wire framing per key/value in requests/responses.
KEY_WIRE_OVERHEAD = 24
VALUE_WIRE_OVERHEAD = 40


@dataclass
class McValue:
    """Client-visible stored value."""

    value: Any
    nbytes: int
    flags: int
    cas: int


class MemcachedDaemon:
    """One MCD: engine + RPC service on its node."""

    def __init__(
        self,
        sim: "Simulator",
        net: Network,
        node: Node,
        mem_limit: int,
        tracer=NULL_TRACER,
        tenancy_factory: Optional[Callable[[int], TenantArbiter]] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.mem_limit = mem_limit
        #: Builds a *fresh* arbiter per engine (mem_limit -> arbiter):
        #: arbitration state is process state and must die with it.
        self.tenancy_factory = tenancy_factory
        self.engine = MemcachedEngine(
            mem_limit,
            clock=lambda: sim.now,
            tenancy=tenancy_factory(mem_limit) if tenancy_factory else None,
        )
        self.endpoint = Endpoint(net, node, tracer=tracer)
        self.tracer = tracer
        self.endpoint.register(SERVICE, self._handle)
        #: Lifecycle counters for the fault layer.
        self.crashes = 0
        self.restarts = 0

    @property
    def alive(self) -> bool:
        return self.node.alive

    def kill(self) -> None:
        """Fail the node; in-flight and future requests error out.

        §4.4: "Failures in MCDs do not impact correctness" — the client
        treats errors as misses."""
        if self.node.alive:
            self.crashes += 1
        self.node.fail()

    def restart(self) -> None:
        """Recover with an empty cache (a restarted daemon is cold).

        The engine is *rebuilt*, not flushed: ``flush_all`` unlinks
        items but keeps slab pages assigned to their classes and the CAS
        counter running, whereas a real restart loses the process image.
        A fresh engine makes the cold start provable — no item, page
        assignment, or CAS value survives.
        """
        sim = self.sim
        self.engine = MemcachedEngine(
            self.mem_limit,
            clock=lambda: sim.now,
            tenancy=self.tenancy_factory(self.mem_limit) if self.tenancy_factory else None,
        )
        self.restarts += 1
        self.node.recover()

    # -- RPC handler ---------------------------------------------------------
    def _handle(self, call: RpcCall):
        if self.tracer.enabled:
            with self.tracer.span("mcd", f"mcd.{call.args[0]}"):
                result = yield from self._serve(call)
            return result
        result = yield from self._serve(call)
        return result

    def _serve(self, call: RpcCall):
        op, payload = call.args
        cpu = self.node.cpu
        eng = self.engine
        if op == "get_multi":
            keys: list[str] = payload
            yield cpu.run(OP_CPU * max(1, len(keys)))
            items = eng.get_multi(keys)
            resp_bytes = sum(
                it.nbytes + VALUE_WIRE_OVERHEAD + len(k) for k, it in items.items()
            )
            if resp_bytes:
                yield cpu.run(COPY_PER_BYTE * resp_bytes)
            reply = {
                k: McValue(it.value, it.nbytes, it.flags, it.cas) for k, it in items.items()
            }
            return reply, resp_bytes
        if op in ("set", "add", "replace"):
            key, value, nbytes, flags, ttl = payload
            yield cpu.run(OP_CPU + COPY_PER_BYTE * nbytes)
            ok = getattr(eng, op)(key, value, nbytes, flags, ttl)
            return ok, 8
        if op in ("append", "prepend"):
            key, value, nbytes = payload
            yield cpu.run(OP_CPU + COPY_PER_BYTE * nbytes)
            ok = getattr(eng, op)(key, value, nbytes)
            return ok, 8
        if op == "cas":
            key, value, nbytes, cas, flags, ttl = payload
            yield cpu.run(OP_CPU + COPY_PER_BYTE * nbytes)
            return eng.cas(key, value, nbytes, cas, flags, ttl), 8
        if op == "delete":
            yield cpu.run(OP_CPU)
            return eng.delete(payload), 8
        if op == "delete_multi":
            keys = payload
            yield cpu.run(OP_CPU * max(1, len(keys)))
            return sum(1 for k in keys if eng.delete(k)), 8
        if op == "incr":
            key, delta = payload
            yield cpu.run(OP_CPU)
            return eng.incr(key, delta), 8
        if op == "decr":
            key, delta = payload
            yield cpu.run(OP_CPU)
            return eng.decr(key, delta), 8
        if op == "touch":
            key, ttl = payload
            yield cpu.run(OP_CPU)
            return eng.touch(key, ttl), 8
        if op == "flush_all":
            yield cpu.run(OP_CPU)
            eng.flush_all()
            return True, 8
        if op == "scan":
            cursor, limit, with_values = payload
            yield cpu.run(OP_CPU * max(1, limit))
            next_cursor, entries = eng.scan(cursor, limit)
            if not with_values:
                entries = [(k, None, nbytes, flags, ttl) for k, _v, nbytes, flags, ttl in entries]
                resp_bytes = sum(len(e[0]) + KEY_WIRE_OVERHEAD for e in entries)
            else:
                resp_bytes = sum(e[2] + VALUE_WIRE_OVERHEAD + len(e[0]) for e in entries)
            if resp_bytes:
                yield cpu.run(COPY_PER_BYTE * resp_bytes)
            return (next_cursor, entries), resp_bytes
        if op == "stats":
            yield cpu.run(OP_CPU)
            return eng.stat_dict(), 512
        raise McError(f"unknown command {op!r}")


def request_size(op: str, payload: Any) -> int:
    """Wire size of a request (keys + values + framing)."""
    if op == "get_multi":
        return sum(len(k) + KEY_WIRE_OVERHEAD for k in payload)
    if op in ("set", "add", "replace"):
        key, _value, nbytes, _flags, _ttl = payload
        return len(key) + KEY_WIRE_OVERHEAD + nbytes
    if op in ("append", "prepend"):
        key, _value, nbytes = payload
        return len(key) + KEY_WIRE_OVERHEAD + nbytes
    if op == "cas":
        key, _value, nbytes, _cas, _flags, _ttl = payload
        return len(key) + KEY_WIRE_OVERHEAD + nbytes
    if op == "delete":
        return len(payload) + KEY_WIRE_OVERHEAD
    if op == "delete_multi":
        return sum(len(k) + KEY_WIRE_OVERHEAD for k in payload)
    if op in ("incr", "decr", "touch"):
        return len(payload[0]) + KEY_WIRE_OVERHEAD
    return KEY_WIRE_OVERHEAD
