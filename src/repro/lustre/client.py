"""The Lustre client: in-kernel VFS entry, DLM-protected client cache,
striped data path.

Reads take a PR lock (one MDS enqueue per file, cached until revoked or
dropped) and fill a local chunk cache from the OSTs; subsequent reads
under the same lock are served at memory-copy cost — the paper's
*warm* configuration.  "For the cold cache case ... the client file
system is unmounted and then remounted" (§5.3): :meth:`drop_caches`
models exactly that.  Writes take a PW lock (revoking every other
client's cache — the coherency traffic that limits Lustre's
scalability per §1) and go through to the OSTs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.localfs.types import ReadResult, StatBuf, slice_result
from repro.lustre.costs import (
    CLIENT_COPY_BW,
    CLIENT_OP_CPU,
    FETCH_CHUNK,
    RPC_OVERHEAD,
)
from repro.lustre.ldlm import PR, PW
from repro.lustre.mds import MetadataServer, SERVICE as MDS_SERVICE
from repro.lustre.ost import ObjectServer, SERVICE as OST_SERVICE
from repro.lustre.striping import StripeLayout
from repro.net.fabric import Node
from repro.net.rpc import Endpoint, RpcCall
from repro.oscache.lru import LruCache
from repro.util.stats import Counter
from repro.util.units import GiB

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


class LustreClient:
    """One mounted Lustre client."""

    def __init__(
        self,
        sim: "Simulator",
        node: Node,
        endpoint: Endpoint,
        mds: MetadataServer,
        osts: list[ObjectServer],
        cache_bytes: int = 1 * GiB,
    ) -> None:
        if not osts:
            raise ValueError("need at least one OST")
        self.sim = sim
        self.node = node
        self.endpoint = endpoint
        self.mds = mds
        self.osts = osts
        self.holder = f"lustre-client/{node.name}"
        self.layout = StripeLayout(count=len(osts), stripe_size=mds.layout.stripe_size)
        #: (path, chunk index) -> chunk ReadResult, LRU-bounded.
        self.cache = LruCache(max(1, cache_bytes // FETCH_CHUNK))
        #: Locks this client believes it holds: path -> mode.
        self.locks: dict[str, str] = {}
        self._fds: dict[int, str] = {}
        self._next_fd = 3
        self.stats = Counter()
        endpoint.register("ldlm", self._ldlm_callback)
        mds.register_client(self.holder, node)

    # -- DLM client side ------------------------------------------------------
    def _ldlm_callback(self, call: RpcCall) -> Generator:
        """Blocking AST from the MDS: drop lock + cached pages."""
        op, path = call.args
        assert op == "revoke"
        yield self.node.cpu.run(CLIENT_OP_CPU)
        self.locks.pop(path, None)
        self._invalidate_file(path)
        self.stats.inc("lock_revoked")
        return None, 16

    def _invalidate_file(self, path: str) -> None:
        doomed = [k for k in self.cache if k[0] == path]
        for k in doomed:
            self.cache.remove(k)

    def _ensure_lock(self, path: str, mode: str) -> Generator:
        held = self.locks.get(path)
        if held == mode or held == PW:
            return
        yield from self._mds_call("enqueue", (self.holder, path, mode))
        self.locks[path] = mode
        self.stats.inc("lock_enqueues")

    # -- RPC helpers --------------------------------------------------------------
    def _mds_call(self, op: str, args: tuple) -> Generator:
        reply = yield from self.endpoint.call(
            self.mds.node, MDS_SERVICE, (op, args), req_size=RPC_OVERHEAD
        )
        return reply

    def _ost_call(self, ost: ObjectServer, op: str, args: tuple, req_size: int) -> Generator:
        reply = yield from self.endpoint.call(ost.node, OST_SERVICE, (op, args), req_size=req_size)
        return reply

    def _vfs(self) -> Generator:
        yield self.node.cpu.run(CLIENT_OP_CPU)

    # -- fd bookkeeping --------------------------------------------------------------
    def _new_fd(self, path: str) -> int:
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = path
        return fd

    def path_of(self, fd: int) -> str:
        return self._fds[fd]

    # -- POSIX ops -----------------------------------------------------------------------
    def create(self, path: str) -> Generator:
        yield from self._vfs()
        yield from self._mds_call("create", (path,))
        return self._new_fd(path)

    def open(self, path: str) -> Generator:
        yield from self._vfs()
        yield from self._mds_call("open", (path,))
        return self._new_fd(path)

    def stat(self, path: str) -> Generator:
        """getattr at the MDS + size glimpse at the last-stripe OST."""
        yield from self._vfs()
        self.stats.inc("stats")
        stat, layout = yield from self._mds_call("getattr", (path,))
        stat = stat.copy()
        glimpse_ost = self.osts[layout.last_ost(stat.size, path)]
        obj_stat: Optional[StatBuf] = yield from self._ost_call(
            glimpse_ost, "glimpse", (path,), RPC_OVERHEAD
        )
        if obj_stat is not None:
            if len(self.osts) == 1:
                size = obj_stat.size
            else:
                # Aggregate object sizes across the stripe set.
                size = 0
                for ost in self.osts:
                    s = (
                        obj_stat
                        if ost is glimpse_ost
                        else (yield from self._ost_call(ost, "glimpse", (path,), RPC_OVERHEAD))
                    )
                    if s is not None:
                        size += s.size
            stat.size = max(stat.size, size)
            stat.mtime = max(stat.mtime, obj_stat.mtime)
        return stat

    def read(self, fd: int, offset: int, size: int) -> Generator:
        """PR-locked, chunk-cached ranged read."""
        path = self.path_of(fd)
        yield from self._vfs()
        self.stats.inc("reads")
        if size <= 0:
            return ReadResult(offset=offset, size=0)
        yield from self._ensure_lock(path, PR)

        first = offset // FETCH_CHUNK
        last = (offset + size - 1) // FETCH_CHUNK
        # Identify contiguous runs of missing pages; fetch each run as
        # one ranged read (readahead-style), striped over the OSTs.
        missing_runs: list[tuple[int, int]] = []  # (first page, n pages)
        pages: dict[int, Optional[ReadResult]] = {}
        for page in range(first, last + 1):
            cached = self.cache.get((path, page))
            pages[page] = cached
            if cached is None:
                self.stats.inc("cache_misses")
                if missing_runs and sum(missing_runs[-1]) == page:
                    missing_runs[-1] = (missing_runs[-1][0], missing_runs[-1][1] + 1)
                else:
                    missing_runs.append((page, 1))
            else:
                self.stats.inc("cache_hits")
        for run_first, n_pages in missing_runs:
            # One fill per missing run: the client knows the read's full
            # extent, so the fill covers it (striped over the OSTs).
            span = yield from self._fetch_range(
                path, run_first * FETCH_CHUNK, n_pages * FETCH_CHUNK
            )
            for i in range(n_pages):
                page = run_first + i
                frag = slice_result(
                    span,
                    max(span.offset, page * FETCH_CHUNK),
                    FETCH_CHUNK,
                )
                pages[page] = frag
                self.cache.put((path, page), frag)
        parts = [pages[p] for p in range(first, last + 1) if pages[p] is not None]
        # Local copy cost for the bytes handed to the application.
        yield self.node.cpu.run(size / CLIENT_COPY_BW)
        return self._assemble(parts, offset, size)

    def _fetch_range(self, path: str, offset: int, size: int) -> Generator:
        """One ranged fetch, with per-OST runs issued in parallel."""
        runs = self.layout.split(offset, size, path)
        results: list[ReadResult] = yield from self.sim.gather(
            [
                self._ost_call(
                    self.osts[ost_idx], "read", (path, obj_off, length), RPC_OVERHEAD
                )
                for ost_idx, obj_off, _f, length in runs
            ],
            "lustre-fetch",
        )

        intervals: list[tuple[int, int, int]] = []
        data_parts: list[Optional[bytes]] = []
        total = 0
        for (ost_idx, obj_off, file_off, length), r in zip(runs, results):
            shift = file_off - obj_off
            intervals.extend((s + shift, e + shift, v) for s, e, v in r.intervals)
            data_parts.append(r.data)
            total += r.size
            if r.size < length:
                break  # EOF within this stripe run
        data = None
        if data_parts and all(d is not None for d in data_parts):
            data = b"".join(data_parts)  # type: ignore[arg-type]
        return ReadResult(offset=offset, size=total, intervals=intervals, data=data)

    @staticmethod
    def _assemble(parts: list[ReadResult], offset: int, size: int) -> ReadResult:
        intervals: list[tuple[int, int, int]] = []
        data_parts: list[bytes] = []
        have_data = True
        pos = offset
        end = offset + size
        for part in parts:
            if pos >= end:
                break
            sliced = slice_result(part, max(pos, part.offset), min(end, part.offset + part.size) - max(pos, part.offset))
            if sliced.size == 0:
                break
            intervals.extend(sliced.intervals)
            if sliced.data is None:
                have_data = False
            else:
                data_parts.append(sliced.data)
            pos = sliced.offset + sliced.size
        actual = pos - offset
        data = b"".join(data_parts) if have_data and actual else None
        if data is not None and len(data) != actual:
            data = None
        return ReadResult(offset=offset, size=actual, intervals=intervals, data=data)

    def write(self, fd: int, offset: int, size: int, data=None) -> Generator:
        """PW-locked write-through to the OSTs."""
        path = self.path_of(fd)
        yield from self._vfs()
        self.stats.inc("writes")
        if size <= 0:
            return 0
        yield from self._ensure_lock(path, PW)
        runs = self.layout.split(offset, size, path)

        def one(ost_idx: int, obj_off: int, file_off: int, length: int) -> Generator:
            payload = None
            if data is not None:
                lo = file_off - offset
                payload = data[lo : lo + length]
            return self._ost_call(
                self.osts[ost_idx],
                "write",
                (path, obj_off, length, payload),
                RPC_OVERHEAD + length,
            )

        # Write RPCs to the stripe set proceed concurrently.
        versions = yield from self.sim.gather([one(*run) for run in runs], "lustre-write")
        version = max(versions)
        # Keep our own cache coherent with what we just wrote.
        for chunk in range(offset // FETCH_CHUNK, (offset + size - 1) // FETCH_CHUNK + 1):
            self.cache.remove((path, chunk))
        return version

    def unlink(self, path: str) -> Generator:
        yield from self._vfs()
        yield from self._mds_call("unlink", (path,))
        for ost in self.osts:
            yield from self._ost_call(ost, "destroy", (path,), RPC_OVERHEAD)
        self._invalidate_file(path)

    def close(self, fd: int) -> Generator:
        yield from self._vfs()
        self._fds.pop(fd, None)

    def drop_caches(self) -> Generator:
        """Unmount/remount: release every lock, empty the cache (§5.3)."""
        yield from self._vfs()
        yield from self._mds_call("release_all", (self.holder,))
        self.locks.clear()
        self.cache.clear()
        self.stats.inc("remounts")
