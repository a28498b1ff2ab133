"""The per-layer ledger: host self time and call counts by layer.

The traced run wraps each layer's public entry points from here, at
run time, without touching the program's files.  Every wrapped call
(and every resumption of a wrapped generator) pushes its layer on a
stack; host time between two transitions is charged to whichever
layer is on top, so each layer gets its *self* time and the layers sum
exactly to the wall time of the timed phase.  Time spent inside the
simulator's event loop but in no wrapped call is the kernel's
(``sim``); time outside the event loop stays ``unattributed``.

Wrapped entry points, by layer (named after the ``repro`` package):

=================  ==================================================
``gluster.client``  ``GlusterClient.*``, ``ClientProtocol.*``
``core.cmcache``    ``CMCacheXlator.*``
``core.smcache``    ``SMCacheXlator.*``
``memcached.client`` ``MemcacheClient.get/get_multi/set/delete/delete_multi``
``memcached.daemon`` the MCD's RPC handler
``memcached.engine`` ``MemcachedEngine.get/get_multi/set/delete``
``net.rpc``         ``Endpoint.call``
``net.fabric``      ``Network.transfer/transfer_batch``
``gluster.server``  the brick's fop handler and ``PosixXlator.*``
``localfs``         ``LocalFS.*``
``oscache``         ``PageCache.lookup/insert``
``storage``         ``Raid0.access_time``
``sim``             ``Simulator._run_loop`` (the event loop)
``bench``           the benchmark's own closed-loop clients and checker
=================  ==================================================
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, Optional

from repro.core.cmcache import CMCacheXlator
from repro.core.smcache import SMCacheXlator
from repro.gluster.client import GlusterClient
from repro.gluster.protocol import ClientProtocol
from repro.gluster.server import GlusterServer, PosixXlator
from repro.localfs.fs import LocalFS
from repro.memcached.client import MemcacheClient
from repro.memcached.daemon import MemcachedDaemon
from repro.memcached.engine import MemcachedEngine
from repro.net.fabric import Network
from repro.net.rpc import Endpoint
from repro.oscache.pagecache import PageCache
from repro.sim.core import Simulator
from repro.storage.raid import Raid0

BASE = "unattributed"

#: Layers in report order.
LAYERS = (
    "sim", "net.rpc", "net.fabric", "memcached.client", "memcached.daemon",
    "memcached.engine", "core.cmcache", "core.smcache", "gluster.client",
    "gluster.server", "localfs", "oscache", "storage", "bench",
)


def _public(cls) -> list[str]:
    return [n for n, f in vars(cls).items() if not n.startswith("_") and inspect.isfunction(f)]


#: (class, method names, layer).
ENTRY_POINTS = (
    (GlusterClient, _public(GlusterClient), "gluster.client"),
    (ClientProtocol, _public(ClientProtocol), "gluster.client"),
    (CMCacheXlator, _public(CMCacheXlator), "core.cmcache"),
    (SMCacheXlator, _public(SMCacheXlator), "core.smcache"),
    (MemcacheClient, ["get", "get_multi", "set", "delete", "delete_multi"], "memcached.client"),
    (MemcachedDaemon, ["_handle"], "memcached.daemon"),
    (MemcachedEngine, ["get", "get_multi", "set", "delete"], "memcached.engine"),
    (Endpoint, ["call"], "net.rpc"),
    (Network, ["transfer", "transfer_batch"], "net.fabric"),
    (GlusterServer, ["_handle"], "gluster.server"),
    (PosixXlator, _public(PosixXlator), "gluster.server"),
    (LocalFS, _public(LocalFS), "localfs"),
    (PageCache, ["lookup", "insert"], "oscache"),
    (Raid0, ["access_time"], "storage"),
    (Simulator, ["_run_loop"], "sim"),
)

#: Entry points whose sim-time duration is recorded per call.
_SIM_TIMED = {(Endpoint, "call"): "net.rpc", (GlusterServer, "_handle"): "gluster.server"}

#: Keys a memcached client call touches, by method.
_KEYS = {"get": lambda a: 1, "set": lambda a: 1, "delete": lambda a: 1,
         "get_multi": lambda a: len(a[1]), "delete_multi": lambda a: len(a[1])}


class Ledger:
    """Self-time and count accumulators for one traced run."""

    def __init__(self) -> None:
        self.stack = [BASE]
        self.last = perf_counter()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: layer -> sim-time durations of its recorded calls.
        self.sim_durations: dict[str, list] = defaultdict(list)
        self.mc_keys = 0
        self.sim: Optional[Simulator] = None

    def reset(self, sim: Simulator) -> None:
        """Start accounting afresh (call outside the event loop)."""
        self.self_s.clear()
        self.calls.clear()
        self.sim_durations.clear()
        self.mc_keys = 0
        self.sim = sim
        self.last = perf_counter()

    def close(self) -> None:
        """Charge the time since the last transition to the current layer."""
        now = perf_counter()
        self.self_s[self.stack[-1]] += now - self.last
        self.last = now

    # -- transitions -----------------------------------------------------
    def _enter(self, layer: str) -> None:
        now = perf_counter()
        self.self_s[self.stack[-1]] += now - self.last
        self.last = now
        self.stack.append(layer)

    def _leave(self) -> None:
        now = perf_counter()
        self.self_s[self.stack.pop()] += now - self.last
        self.last = now

    def drive(self, gen, layer: str, sim_layer: Optional[str] = None):
        """Run generator *gen* as *layer*: every resumption is charged
        to it.  With *sim_layer*, record the call's sim-time duration."""
        t0 = self.sim.now if sim_layer is not None and self.sim is not None else None
        value = None
        exc: Optional[BaseException] = None
        while True:
            self._enter(layer)
            try:
                event = gen.send(value) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                self._leave()
                if t0 is not None:
                    self.sim_durations[sim_layer].append(self.sim.now - t0)
                return stop.value
            except BaseException:
                self._leave()
                raise
            self._leave()
            try:
                value = yield event
                exc = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as e:  # forwarded into the wrapped generator
                value, exc = None, e

    # -- wrapping --------------------------------------------------------
    def _wrap(self, cls, name: str, fn: Callable, layer: str) -> Callable:
        ledger = self
        key = f"{layer}:{cls.__name__}.{name}"
        keys = _KEYS.get(name) if layer == "memcached.client" else None
        if inspect.isgeneratorfunction(fn):
            sim_layer = _SIM_TIMED.get((cls, name))

            def gen_wrapper(*args, **kwargs):
                ledger.calls[key] += 1
                if keys is not None:
                    ledger.mc_keys += keys(args)
                return ledger.drive(fn(*args, **kwargs), layer, sim_layer)

            return gen_wrapper

        def wrapper(*args, **kwargs):
            ledger.calls[key] += 1
            ledger._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                ledger._leave()

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["Ledger"]:
        """Wrap every entry point for the duration of the block."""
        saved = []
        try:
            for cls, names, layer in ENTRY_POINTS:
                for name in names:
                    fn = vars(cls)[name]
                    saved.append((cls, name, fn))
                    setattr(cls, name, self._wrap(cls, name, fn, layer))
            yield self
        finally:
            for cls, name, fn in reversed(saved):
                setattr(cls, name, fn)

    def summary(self) -> dict:
        """Plain-data copy of what the last accounted phase recorded."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "mc_keys": self.mc_keys,
            "sim_durations": {k: list(v) for k, v in self.sim_durations.items()},
        }
