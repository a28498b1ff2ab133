"""libmemcache-style client: server selection, multi-get, failure
transparency.

The client owns the key→server mapping (CRC32 by default, modulo for
the §5.5 striping experiment) and degrades gracefully when daemons die:
a failed server makes gets miss and stores no-ops, never an error —
"IMCa can transparently account for failures in MCDs" (§4.4).

With a :class:`HealthPolicy` the client also *tracks* daemon health:
after ``eject_after`` consecutive RPC errors a server is ejected and
skipped outright (zero simulated cost — the fast degraded path), then
re-probed after ``cooldown``.  Rejoin mandates a purge (``flush_all``)
so a daemon that merely blinked — recovered without a cold restart —
can never serve pre-crash data.

With ``replicas > 1`` each key has R distinct owners (primary = the
base selector's pick, the rest via a ketama-ring walk).  Reads spread
over the live replicas with a seeded round-robin; stores, concats,
touches and deletes fan out to **all** replicas, because a purge that
skips a replica leaves stale stat data serveable.  ``replicas == 1``
takes the exact legacy code paths, byte for byte.

With a :class:`~repro.memcached.membership.McdMembership` the server
set is *live*: every selection consults the membership's current key
ring (stable node ids, so "server index" everywhere below means "node
id"), a miss on a remapped key inside a forwarding window consults the
old owner and backfills the new one (demand backfill), and mutations
during a window fan out to both owners so the old copy can never go
stale while it is a legitimate read source.  ``membership is None``
keeps the frozen-list legacy paths, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.memcached.daemon import McValue, MemcachedDaemon, SERVICE, request_size
from repro.memcached.hashing import (
    Crc32Selector,
    KetamaSelector,
    ReplicatedSelector,
    ServerSelector,
)
from repro.net.fabric import Node
from repro.net.rpc import Endpoint, RetryPolicy, RpcError, RpcUnavailable
from repro.util.stats import Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.memcached.membership import McdMembership
    from repro.sim.core import Simulator


@dataclass
class HealthPolicy:
    """Client-side MCD health tracking knobs.

    ``retry`` (optional) adds per-call deadlines/backoff to every MCD
    RPC; ejection counts a call as one error after its retries are
    exhausted.  ``purge_on_rejoin`` is the coherence guarantee: the
    probe that readmits a server first wipes it, forcing cold-start
    semantics even when the daemon recovered with its memory intact.
    """

    eject_after: int = 3
    cooldown: float = 0.02
    purge_on_rejoin: bool = True
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        if self.eject_after < 1:
            raise ValueError(f"eject_after must be >= 1: {self.eject_after}")
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0: {self.cooldown}")


class _ServerHealth:
    """Per-server error tracking (ejected when ``ejected_until >= 0``).

    ``probing`` marks an in-flight half-open rejoin probe: concurrent
    callers that find the cooldown elapsed must not start a second
    probe (double purge, double-counted rejoin) — they skip the server
    until the probe settles.
    """

    __slots__ = ("consecutive_errors", "ejected_until", "probing")

    def __init__(self) -> None:
        self.consecutive_errors = 0
        self.ejected_until = -1.0
        self.probing = False


class MemcacheClient:
    """A client node's view of the MCD array."""

    def __init__(
        self,
        endpoint: Endpoint,
        servers: list[MemcachedDaemon],
        selector: Optional[ServerSelector] = None,
        health: Optional[HealthPolicy] = None,
        replicas: int = 1,
        rr_seed: int = 0,
        membership: Optional["McdMembership"] = None,
    ) -> None:
        if not servers:
            raise ValueError("need at least one memcached server")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1: {replicas}")
        if membership is not None and replicas > 1:
            raise ValueError("elastic membership requires replicas == 1")
        self.endpoint = endpoint
        self.servers = list(servers)
        self.selector = selector or Crc32Selector()
        self.health = health
        self.replicas = replicas
        #: Live membership view; None freezes the server list (legacy).
        self.membership = membership
        #: Set when the primary selector is the consistent ring — the
        #: only selector that can compute a key's *old* owner, which is
        #: what forwarding windows and write fan-out need.
        self._ketama: Optional[KetamaSelector] = (
            self.selector if membership is not None and isinstance(self.selector, KetamaSelector) else None
        )
        self._health_by_id: dict[int, _ServerHealth] = {}
        #: None when replication is off: every path below checks this
        #: and falls through to the exact legacy code.
        self._replication: Optional[ReplicatedSelector] = (
            ReplicatedSelector(self.selector, replicas) if replicas > 1 else None
        )
        #: Seeded round-robin read spreading (per-client seed, so
        #: different clients start on different replicas; per-key
        #: cursors so every key's reads split evenly).
        self._rr = rr_seed
        self._rr_by_key: dict[str, int] = {}
        self._health = [_ServerHealth() for _ in self.servers]
        self.stats = Counter()
        # Spans share the endpoint's tracer; MCD time observed from the
        # client side (RPC wait included) is attributed to the mcd tier.
        self.tracer = endpoint.tracer

    # -- plumbing ------------------------------------------------------------
    def add_server(self, server: MemcachedDaemon) -> None:
        """Grow the cache bank (§4.4: "Additional caching nodes can be
        easily added").  Keys re-map according to the selector — modulo
        N remaps almost everything; ketama only ~1/(N+1)."""
        self.servers.append(server)
        self._health.append(_ServerHealth())

    def server_for(self, key: str, hint: Optional[int] = None) -> MemcachedDaemon:
        return self._server_at(self._idx_for(key, hint))

    def _idx_for(self, key: str, hint: Optional[int] = None) -> int:
        if self.membership is not None:
            ring = self.membership.ring_ids
            if self._ketama is not None:
                return self._ketama.owner(key, ring)
            # Positional selector over the live list: the naive-resize
            # comparison case — a membership change renumbers the map.
            return ring[self.selector.select(key, len(ring), hint)]
        return self.selector.select(key, len(self.servers), hint)

    def _server_at(self, idx: int) -> MemcachedDaemon:
        if self.membership is not None:
            return self.membership.daemon(idx)
        return self.servers[idx]

    def _health_at(self, idx: int) -> _ServerHealth:
        if self.membership is not None:
            h = self._health_by_id.get(idx)
            if h is None:
                h = self._health_by_id[idx] = _ServerHealth()
            return h
        return self._health[idx]

    def _all_idxs(self) -> list[int]:
        if self.membership is not None:
            return list(self.membership.reachable_ids())
        return list(range(len(self.servers)))

    def _window_targets(self, key: str, hint: Optional[int] = None) -> Optional[list[int]]:
        """``[owner, *old owners]`` while *key* sits in an active
        forwarding window, else None (take the single-owner path).

        Mutations must reach the old copy too — the purge fan-out
        invariant extended across a resize: until the window closes the
        old owner is a legitimate read source (:meth:`_forward_get`),
        so a store or delete that skips it leaves stale data serveable.
        """
        if self.membership is None or self._ketama is None or not self.membership.windows:
            return None
        owner = self._idx_for(key, hint)
        peers = self.membership.window_peers(
            key, owner, self._ketama, self.endpoint.net.sim.now
        )
        if not peers:
            return None
        self.stats.inc("window_writes", len(peers))
        if self.tracer.oplog is not None:
            self.tracer.op_count("window_writes", len(peers))
            self.tracer.op_tag("resize-window-write")
        return [owner] + peers

    def _replicas_for(self, key: str, hint: Optional[int] = None) -> list[int]:
        """All owners of *key* (primary first); ``[primary]`` when off."""
        if self._replication is None:
            return [self._idx_for(key, hint)]
        return self._replication.replicas_for(key, len(self.servers), hint)

    def _read_idx(self, key: str, hint: Optional[int] = None) -> int:
        """The replica a read goes to: seeded per-key round-robin over
        the replicas not currently sitting out an ejection cooldown (all
        of them, if every replica is ejected).  The cursor is per key —
        a cursor shared across keys correlates with periodic batch
        shapes and can park a hot key on one replica, reshuffling load
        instead of splitting it; per-key rotation splits every key's
        reads exactly 1/R.  Cursor memory is one small int per distinct
        key this client has read (bounded by its keyspace)."""
        if self._replication is None:
            return self._idx_for(key, hint)
        replicas = self._replication.replicas_for(key, len(self.servers), hint)
        live = [i for i in replicas if not self._cooling(i)]
        if not live:
            live = replicas
        elif len(live) < len(replicas):
            self.stats.inc("replica_failovers", len(replicas) - len(live))
            if self.tracer.oplog is not None:
                self.tracer.op_count(
                    "replica_failovers", len(replicas) - len(live)
                )
        cursor = self._rr_by_key.get(key, self._rr)
        self._rr_by_key[key] = cursor + 1
        choice = live[cursor % len(live)]
        if choice != replicas[0]:
            self.stats.inc("replica_reads")
        return choice

    def _cooling(self, idx: int) -> bool:
        """True while *idx* is ejected and not yet probeable."""
        if self.health is None:
            return False
        h = self._health_at(idx)
        return h.ejected_until >= 0.0 and (
            self.endpoint.net.sim.now < h.ejected_until or h.probing
        )

    def ejected(self, idx: int) -> bool:
        """Whether server *idx* is currently ejected (for observers)."""
        return self._health_at(idx).ejected_until >= 0.0

    def _call(self, idx: int, op: str, payload: Any) -> Generator:
        server = self._server_at(idx)
        policy = self.health
        h: Optional[_ServerHealth] = None
        if policy is not None:
            h = self._health_at(idx)
            if h.ejected_until >= 0.0:
                if self.endpoint.net.sim.now < h.ejected_until or h.probing:
                    # Fast degraded path: no RPC, no simulated time —
                    # the caller sees a miss instantly.  ``probing``
                    # keeps concurrent batches from racing into a
                    # second half-open probe of the same server.
                    self.stats.inc("ejected_skips")
                    if self.tracer.oplog is not None:
                        self.tracer.op_count("ejected_skips")
                    raise RpcUnavailable(
                        f"{server.node.name} ejected (cooldown in progress)"
                    )
                yield from self._probe_rejoin(idx, op)
        try:
            reply = yield from self.endpoint.call_retry(
                server.node,
                SERVICE,
                (op, payload),
                req_size=request_size(op, payload),
                policy=policy.retry if policy is not None else None,
            )
        except RpcError:
            if h is not None:
                self._note_failure(h)
            raise
        if h is not None:
            h.consecutive_errors = 0
        return reply

    def _note_failure(self, h: _ServerHealth) -> None:
        h.consecutive_errors += 1
        if h.consecutive_errors >= self.health.eject_after and h.ejected_until < 0.0:
            h.ejected_until = self.endpoint.net.sim.now + self.health.cooldown
            h.consecutive_errors = 0
            self.stats.inc("ejections")
            if self.tracer.oplog is not None:
                self.tracer.op_count("mcd_ejections")

    def _probe_rejoin(self, idx: int, op: str) -> Generator:
        """Half-open probe after cooldown: purge, then readmit.

        The purge is mandatory (unless the op *is* the purge): a server
        that revived without a cold restart still holds pre-crash items,
        and SMCache updates issued while it was ejected never reached
        it, so anything it holds is potentially stale.  A failed probe
        re-ejects for another cooldown.
        """
        policy = self.health
        server = self._server_at(idx)
        h = self._health_at(idx)
        h.probing = True
        try:
            if policy.purge_on_rejoin and op != "flush_all":
                try:
                    yield from self.endpoint.call_retry(
                        server.node,
                        SERVICE,
                        ("flush_all", None),
                        req_size=request_size("flush_all", None),
                        policy=policy.retry,
                    )
                except RpcError:
                    h.ejected_until = self.endpoint.net.sim.now + policy.cooldown
                    self.stats.inc("failed_probes")
                    raise
                self.stats.inc("rejoin_purges")
            h.ejected_until = -1.0
            h.consecutive_errors = 0
            self.stats.inc("rejoins")
        finally:
            h.probing = False

    # -- retrieval -------------------------------------------------------------
    def get(self, key: str, hint: Optional[int] = None) -> Generator:
        """Fetch one value; returns :class:`McValue` or None on miss.

        A dead server counts as a miss (plus an ``errors`` stat).
        """
        idx = self._read_idx(key, hint)
        try:
            if self.tracer.enabled:
                with self.tracer.span("mcd", "mc.get"):
                    reply = yield from self._call(idx, "get_multi", [key])
            else:
                reply = yield from self._call(idx, "get_multi", [key])
        except RpcError:
            self.stats.inc("errors")
            if self.membership is None:
                self.stats.inc("misses")
                return None
            reply = {}
        value = reply.get(key)
        if value is None and self.membership is not None:
            value = yield from self._forward_get(key, idx)
        self.stats.inc("hits" if value is not None else "misses")
        return value

    def _forward_get(self, key: str, owner: int) -> Generator:
        """Demand backfill: a miss on a remapped key during a forwarding
        window consults the old owner before falling through to the
        server, and copies any hit onto the current owner.

        The copy uses ``add`` (store-if-absent): a window write may
        already have placed a fresher value on the new owner, and the
        stale forwarded copy must never clobber it.  Returns the value
        or None; the caller books the hit/miss.
        """
        if self._ketama is None or not self.membership.windows:
            return None
        src = self.membership.forward_source(
            key, owner, self._ketama, self.endpoint.net.sim.now
        )
        if src is None:
            return None
        self.stats.inc("forward_probes")
        if self.tracer.oplog is not None:
            self.tracer.op_count("forward_probes")
            self.tracer.op_tag("resize-forward")
        try:
            reply = yield from self._call(src, "get_multi", [key])
        except RpcError:
            self.stats.inc("errors")
            return None
        value = reply.get(key)
        if value is None:
            return None
        self.stats.inc("backfill_hits")
        if self.tracer.oplog is not None:
            self.tracer.op_count("backfill_hits")
            self.tracer.op_tag("resize-backfill")
        try:
            ok = yield from self._call(
                owner, "add", (key, value.value, value.nbytes, value.flags, 0)
            )
            if ok:
                self.stats.inc("backfill_copies")
        except RpcError:
            self.stats.inc("errors")
        return value

    def get_multi(
        self, keys: list[str], hints: Optional[list[Optional[int]]] = None
    ) -> Generator:
        """Fetch many keys, batched one request per server.

        Returns ``{key: McValue}`` containing only the hits.  Batches to
        distinct servers are issued back-to-back (pipelined on the
        client NIC) and all responses are awaited.  Duplicate keys are
        deduplicated before batching — the result dict can only hold one
        entry per key, so counting misses as ``len(keys) - len(out)``
        would book every duplicated hit as a phantom miss.
        """
        if hints is None:
            hints = [None] * len(keys)
        elif len(hints) != len(keys):
            # zip() would silently drop the tail keys from the fetch,
            # turning a caller bug into phantom misses.
            raise ValueError(
                f"get_multi: {len(keys)} keys but {len(hints)} hints"
            )
        by_server: dict[int, list[str]] = {}
        seen: set[str] = set()
        for key, hint in zip(keys, hints):
            if key in seen:
                continue
            seen.add(key)
            by_server.setdefault(self._read_idx(key, hint), []).append(key)
        sim = self.endpoint.net.sim
        batches = [self._get_batch(idx, batch) for idx, batch in by_server.items()]
        if self.tracer.enabled:
            with self.tracer.span("mcd", "mc.get_multi"):
                results = yield from sim.gather(batches, "mc-multiget")
        else:
            results = yield from sim.gather(batches, "mc-multiget")
        out: dict[str, McValue] = {}
        for partial in results:
            out.update(partial)
        if (
            self.membership is not None
            and self._ketama is not None
            and self.membership.windows
            and len(out) < len(seen)
        ):
            for idx, batch in by_server.items():
                for key in batch:
                    if key in out:
                        continue
                    value = yield from self._forward_get(key, idx)
                    if value is not None:
                        out[key] = value
        self.stats.inc("hits", len(out))
        self.stats.inc("misses", len(seen) - len(out))
        return out

    def _get_batch(self, idx: int, keys: list[str]) -> Generator:
        try:
            if self.tracer.enabled:
                with self.tracer.span("mcd", "mc.batch"):
                    reply = yield from self._call(idx, "get_multi", keys)
            else:
                reply = yield from self._call(idx, "get_multi", keys)
        except RpcError:
            self.stats.inc("errors")
            return {}
        return reply

    # -- replica fan-out -------------------------------------------------------
    def _fanout(
        self, idxs: list[int], op: str, payload: Any, count_replicas: bool = True
    ) -> Generator:
        """Issue *op* to every server in *idxs* concurrently; returns the
        per-server results in *idxs* order (None where the RPC failed).

        Used for stores and invalidations in replicated mode: all
        replicas must see every write and every purge, or a stale copy
        survives on the replica the purge skipped.
        """
        def one(idx: int) -> Generator:
            try:
                reply = yield from self._call(idx, op, payload)
            except RpcError:
                self.stats.inc("errors")
                return None
            return reply

        results = yield from self.endpoint.net.sim.gather(
            [one(i) for i in idxs], "mc-fanout"
        )
        if count_replicas and len(idxs) > 1:
            self.stats.inc("replica_writes", len(idxs) - 1)
        return results

    # -- storage ---------------------------------------------------------------
    def set(
        self,
        key: str,
        value: Any,
        nbytes: int,
        flags: int = 0,
        ttl: float = 0,
        hint: Optional[int] = None,
    ) -> Generator:
        """Store; False when the server is down or rejected the item.

        With replication the store fans out to every replica; True when
        at least one replica stored the item (the value is serveable)."""
        if self._replication is not None:
            idxs = self._replicas_for(key, hint)
            if self.tracer.enabled:
                with self.tracer.span("mcd", "mc.set"):
                    results = yield from self._fanout(idxs, "set", (key, value, nbytes, flags, ttl))
            else:
                results = yield from self._fanout(idxs, "set", (key, value, nbytes, flags, ttl))
            self.stats.inc("sets")
            return any(bool(r) for r in results)
        widxs = self._window_targets(key, hint)
        if widxs is not None:
            if self.tracer.enabled:
                with self.tracer.span("mcd", "mc.set"):
                    results = yield from self._fanout(
                        widxs, "set", (key, value, nbytes, flags, ttl), count_replicas=False
                    )
            else:
                results = yield from self._fanout(
                    widxs, "set", (key, value, nbytes, flags, ttl), count_replicas=False
                )
            self.stats.inc("sets")
            return any(bool(r) for r in results)
        idx = self._idx_for(key, hint)
        try:
            if self.tracer.enabled:
                with self.tracer.span("mcd", "mc.set"):
                    ok = yield from self._call(idx, "set", (key, value, nbytes, flags, ttl))
            else:
                ok = yield from self._call(idx, "set", (key, value, nbytes, flags, ttl))
        except RpcError:
            self.stats.inc("errors")
            return False
        self.stats.inc("sets")
        return ok

    def add(self, key: str, value: Any, nbytes: int, flags: int = 0, ttl: float = 0,
            hint: Optional[int] = None) -> Generator:
        """Store only if absent."""
        ok = yield from self._storage("add", key, value, nbytes, flags, ttl, hint)
        return ok

    def replace(self, key: str, value: Any, nbytes: int, flags: int = 0, ttl: float = 0,
                hint: Optional[int] = None) -> Generator:
        """Store only if present."""
        ok = yield from self._storage("replace", key, value, nbytes, flags, ttl, hint)
        return ok

    def _storage(self, op: str, key: str, value: Any, nbytes: int, flags: int,
                 ttl: float, hint: Optional[int]) -> Generator:
        if self._replication is not None:
            results = yield from self._fanout(
                self._replicas_for(key, hint), op, (key, value, nbytes, flags, ttl)
            )
            self.stats.inc("sets")
            return any(bool(r) for r in results)
        widxs = self._window_targets(key, hint)
        if widxs is not None:
            # add/replace resolve against the *current* owner; a
            # successful store is then mirrored onto the old copy with a
            # plain set — fanning the conditional op out verbatim could
            # leave the two owners holding different values (e.g. add
            # succeeding on the empty new node but not on the old one).
            try:
                ok = yield from self._call(widxs[0], op, (key, value, nbytes, flags, ttl))
            except RpcError:
                self.stats.inc("errors")
                return False
            self.stats.inc("sets")
            if ok:
                yield from self._fanout(
                    widxs[1:], "set", (key, value, nbytes, flags, ttl), count_replicas=False
                )
            return ok
        idx = self._idx_for(key, hint)
        try:
            ok = yield from self._call(idx, op, (key, value, nbytes, flags, ttl))
        except RpcError:
            self.stats.inc("errors")
            return False
        self.stats.inc("sets")
        return ok

    def cas(self, key: str, value: Any, nbytes: int, cas: int, flags: int = 0,
            ttl: float = 0, hint: Optional[int] = None) -> Generator:
        """Compare-and-swap; returns 'STORED' / 'EXISTS' / 'NOT_FOUND' /
        'NOT_STORED' (allocation failure), or 'NOT_FOUND' when the
        server is down.

        cas targets the **primary** replica only: CAS tokens are
        per-engine counters, so a token from one replica can never match
        on another — fanning out would always answer EXISTS there.
        """
        idx = self._idx_for(key, hint)
        try:
            verdict = yield from self._call(idx, "cas", (key, value, nbytes, cas, flags, ttl))
        except RpcError:
            self.stats.inc("errors")
            return "NOT_FOUND"
        if verdict == "STORED":
            yield from self._invalidate_window_peers(key, hint)
        return verdict

    def _invalidate_window_peers(self, key: str, hint: Optional[int]) -> Generator:
        """cas/incr/decr mutate the primary copy only (their tokens and
        counters are per-engine), so during a forwarding window the old
        owner's copy is invalidated rather than updated — a forward
        probe must never serve the pre-mutation value."""
        targets = self._window_targets(key, hint)
        if targets is None:
            return
        for peer in targets[1:]:
            try:
                yield from self._call(peer, "delete", key)
            except RpcError:
                self.stats.inc("errors")

    def append(self, key: str, value: Any, nbytes: int, hint: Optional[int] = None) -> Generator:
        ok = yield from self._concat("append", key, value, nbytes, hint)
        return ok

    def prepend(self, key: str, value: Any, nbytes: int, hint: Optional[int] = None) -> Generator:
        ok = yield from self._concat("prepend", key, value, nbytes, hint)
        return ok

    def _concat(self, op: str, key: str, value: Any, nbytes: int,
                hint: Optional[int]) -> Generator:
        if self._replication is not None:
            results = yield from self._fanout(
                self._replicas_for(key, hint), op, (key, value, nbytes)
            )
            return any(bool(r) for r in results)
        widxs = self._window_targets(key, hint)
        if widxs is not None:
            # Concats commute with the coherence invariant: whichever
            # copies exist get the same bytes appended.
            results = yield from self._fanout(
                widxs, op, (key, value, nbytes), count_replicas=False
            )
            return any(bool(r) for r in results)
        idx = self._idx_for(key, hint)
        try:
            ok = yield from self._call(idx, op, (key, value, nbytes))
        except RpcError:
            self.stats.inc("errors")
            return False
        return ok

    def incr(self, key: str, delta: int = 1, hint: Optional[int] = None) -> Generator:
        """Numeric increment; None on miss or dead server.

        Like cas, incr/decr stay on the primary replica: replicated
        counters would drift apart under read-spreading, so counter
        keys are treated as unreplicated."""
        idx = self._idx_for(key, hint)
        try:
            value = yield from self._call(idx, "incr", (key, delta))
        except RpcError:
            self.stats.inc("errors")
            return None
        if value is not None:
            yield from self._invalidate_window_peers(key, hint)
        return value

    def decr(self, key: str, delta: int = 1, hint: Optional[int] = None) -> Generator:
        idx = self._idx_for(key, hint)
        try:
            value = yield from self._call(idx, "decr", (key, delta))
        except RpcError:
            self.stats.inc("errors")
            return None
        if value is not None:
            yield from self._invalidate_window_peers(key, hint)
        return value

    def touch(self, key: str, ttl: float, hint: Optional[int] = None) -> Generator:
        if self._replication is not None:
            results = yield from self._fanout(
                self._replicas_for(key, hint), "touch", (key, ttl)
            )
            return any(bool(r) for r in results)
        widxs = self._window_targets(key, hint)
        if widxs is not None:
            results = yield from self._fanout(
                widxs, "touch", (key, ttl), count_replicas=False
            )
            return any(bool(r) for r in results)
        idx = self._idx_for(key, hint)
        try:
            ok = yield from self._call(idx, "touch", (key, ttl))
        except RpcError:
            self.stats.inc("errors")
            return False
        return ok

    def delete(self, key: str, hint: Optional[int] = None) -> Generator:
        """Remove *key*; with replication the delete reaches **every**
        replica — a skipped replica would keep serving the stale value."""
        if self._replication is not None:
            with self.tracer.span("mcd", "mc.delete"):
                results = yield from self._fanout(
                    self._replicas_for(key, hint), "delete", key
                )
            ok = any(bool(r) for r in results)
            if ok:
                self.stats.inc("deletes")
            return ok
        widxs = self._window_targets(key, hint)
        if widxs is not None:
            with self.tracer.span("mcd", "mc.delete"):
                results = yield from self._fanout(
                    widxs, "delete", key, count_replicas=False
                )
            ok = any(bool(r) for r in results)
            if ok:
                self.stats.inc("deletes")
            return ok
        idx = self._idx_for(key, hint)
        try:
            with self.tracer.span("mcd", "mc.delete"):
                ok = yield from self._call(idx, "delete", key)
        except RpcError:
            self.stats.inc("errors")
            return False
        self.stats.inc("deletes")
        return ok

    def delete_multi(self, keys: list[str], hints: Optional[list[Optional[int]]] = None) -> Generator:
        """Best-effort bulk delete, batched one RPC per server (used by
        SMCache purges, which may cover every block of a file).

        In replicated mode every key's batch lands on **all** of its
        replicas; ``deletes`` counts primary-copy removals (the legacy
        meaning) and ``replica_deletes`` the extra replica copies.
        """
        if hints is None:
            hints = [None] * len(keys)
        elif len(hints) != len(keys):
            # zip() would silently skip deleting the tail keys — a
            # coherence hole, not just a perf bug, for SMCache purges.
            raise ValueError(
                f"delete_multi: {len(keys)} keys but {len(hints)} hints"
            )
        primary: dict[int, list[str]] = {}
        extras: dict[int, list[str]] = {}
        for key, hint in zip(keys, hints):
            # During a forwarding window a key's delete must also reach
            # its old owner — same invariant as the replica fan-out.
            idxs = self._window_targets(key, hint) or self._replicas_for(key, hint)
            primary.setdefault(idxs[0], []).append(key)
            for i in idxs[1:]:
                extras.setdefault(i, []).append(key)
        deleted = 0
        with self.tracer.span("mcd", "mc.delete_multi"):
            for idx, batch in primary.items():
                try:
                    deleted += yield from self._call(idx, "delete_multi", batch)
                except RpcError:
                    self.stats.inc("errors")
            for idx, batch in extras.items():
                try:
                    n = yield from self._call(idx, "delete_multi", batch)
                    self.stats.inc("replica_deletes", n)
                except RpcError:
                    self.stats.inc("errors")
        self.stats.inc("deletes", deleted)
        return deleted

    def flush_all(self) -> Generator:
        for idx in self._all_idxs():
            try:
                yield from self._call(idx, "flush_all", None)
            except RpcError:
                self.stats.inc("errors")

    def stats_all(self) -> Generator:
        """Collect engine stats from every live server."""
        out = []
        for idx in self._all_idxs():
            try:
                d = yield from self._call(idx, "stats", None)
            except RpcError:
                d = None
            out.append(d)
        return out
