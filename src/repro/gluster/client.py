"""The GlusterFS client mount: FUSE entry + fd table + xlator stack.

"a small portion of GlusterFS is in the kernel and the remaining
portion is in userspace.  The calls are translated from the kernel VFS
to the userspace daemon through ... FUSE" (§2.1) — each operation
charges a FUSE/VFS crossing on the client CPU before winding the stack.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.gluster.costs import FUSE_OP_CPU
from repro.gluster.xlator import Xlator
from repro.localfs.types import ReadResult, StatBuf
from repro.net.fabric import Node
from repro.obs.trace import NULL_TRACER
from repro.util.stats import Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


class BadFd(Exception):
    """Operation on a closed or never-opened file descriptor."""


class GlusterClient:
    """A mounted GlusterFS client on one node."""

    def __init__(
        self, sim: "Simulator", node: Node, stack_top: Xlator, tracer=NULL_TRACER
    ) -> None:
        self.sim = sim
        self.node = node
        self.stack = stack_top
        self._fds: dict[int, str] = {}
        self._next_fd = 3
        self.stats = Counter()
        self.tracer = tracer

    # -- fd bookkeeping ------------------------------------------------------
    def _new_fd(self, path: str) -> int:
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = path
        return fd

    def path_of(self, fd: int) -> str:
        try:
            return self._fds[fd]
        except KeyError:
            raise BadFd(f"fd {fd} is not open") from None

    # -- POSIX-style entry points ------------------------------------------------
    def create(self, path: str) -> Generator:
        """creat(2): create + open; returns an fd."""
        self.stats.inc("creates")
        with self.tracer.span("client", "client.create"):
            self.tracer.op_set(client=self.node.name, path=path)
            yield self.node.cpu.run(FUSE_OP_CPU)
            yield from self.stack.create(path)
        return self._new_fd(path)

    def open(self, path: str) -> Generator:
        """open(2); returns an fd."""
        self.stats.inc("opens")
        with self.tracer.span("client", "client.open"):
            self.tracer.op_set(client=self.node.name, path=path)
            yield self.node.cpu.run(FUSE_OP_CPU)
            yield from self.stack.open(path)
        return self._new_fd(path)

    def read(self, fd: int, offset: int, size: int) -> Generator:
        """pread(2); returns a :class:`ReadResult`."""
        path = self.path_of(fd)
        self.stats.inc("reads")
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("client", "client.read"):
                if tracer.oplog is not None:
                    tracer.op_set(
                        client=self.node.name, path=path, nbytes=size
                    )
                yield self.node.cpu.run(FUSE_OP_CPU)
                result: ReadResult = yield from self.stack.read(path, offset, size)
        else:
            yield self.node.cpu.run(FUSE_OP_CPU)
            result = yield from self.stack.read(path, offset, size)
        return result

    def write(self, fd: int, offset: int, size: int, data=None) -> Generator:
        """pwrite(2); returns the server-assigned version."""
        path = self.path_of(fd)
        self.stats.inc("writes")
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("client", "client.write"):
                if tracer.oplog is not None:
                    tracer.op_set(
                        client=self.node.name, path=path, nbytes=size
                    )
                yield self.node.cpu.run(FUSE_OP_CPU)
                version = yield from self.stack.write(path, offset, size, data)
        else:
            yield self.node.cpu.run(FUSE_OP_CPU)
            version = yield from self.stack.write(path, offset, size, data)
        return version

    def stat(self, path: str) -> Generator:
        """stat(2) by path."""
        self.stats.inc("stats")
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("client", "client.stat"):
                if tracer.oplog is not None:
                    tracer.op_set(client=self.node.name, path=path)
                yield self.node.cpu.run(FUSE_OP_CPU)
                result: StatBuf = yield from self.stack.stat(path)
        else:
            yield self.node.cpu.run(FUSE_OP_CPU)
            result = yield from self.stack.stat(path)
        return result

    def fstat(self, fd: int) -> Generator:
        result = yield from self.stat(self.path_of(fd))
        return result

    def truncate(self, path: str, length: int) -> Generator:
        with self.tracer.span("client", "client.truncate"):
            yield self.node.cpu.run(FUSE_OP_CPU)
            result = yield from self.stack.truncate(path, length)
        return result

    def unlink(self, path: str) -> Generator:
        self.stats.inc("unlinks")
        with self.tracer.span("client", "client.unlink"):
            self.tracer.op_set(client=self.node.name, path=path)
            yield self.node.cpu.run(FUSE_OP_CPU)
            yield from self.stack.unlink(path)

    def fsync(self, fd: int) -> Generator:
        """fsync(2): returns once the server's write-back is durable."""
        path = self.path_of(fd)
        self.stats.inc("fsyncs")
        with self.tracer.span("client", "client.fsync"):
            self.tracer.op_set(client=self.node.name, path=path)
            yield self.node.cpu.run(FUSE_OP_CPU)
            yield from self.stack.fsync(path)

    def close(self, fd: int) -> Generator:
        """close(2): winds a flush then releases the fd."""
        path = self.path_of(fd)
        self.stats.inc("closes")
        with self.tracer.span("client", "client.close"):
            self.tracer.op_set(client=self.node.name, path=path)
            yield self.node.cpu.run(FUSE_OP_CPU)
            yield from self.stack.flush(path)
        del self._fds[fd]
