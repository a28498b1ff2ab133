"""Entry points the per-layer ledger wraps must stay generator functions.

The benchmark's layer ledger (``perfbench/ledger.py``) picks its wrapper
by ``inspect.isgeneratorfunction``: a generator entry point is driven
step by step, so its self time and sim-time duration (``net.rpc.sim_us_*``)
are charged to its layer.  A method flattened into a plain function that
returns a generator still works, but the ledger then times only the
call that builds the generator, and its cost silently moves to the
caller's layer.  The list is kept here, not imported from the
benchmark, so that the test stands on its own.
"""

import inspect

import pytest

from repro.core.cmcache import CMCacheXlator
from repro.core.smcache import SMCacheXlator
from repro.gluster.client import GlusterClient
from repro.gluster.protocol import ClientProtocol
from repro.gluster.server import GlusterServer
from repro.memcached.client import MemcacheClient
from repro.memcached.daemon import MemcachedDaemon
from repro.net.rpc import Endpoint

_FOPS = ["create", "open", "read", "write", "stat", "truncate", "unlink"]

GENERATOR_ENTRY_POINTS = [
    (Endpoint, ["call"]),
    (MemcacheClient, ["get", "get_multi", "set", "delete", "delete_multi"]),
    (MemcachedDaemon, ["_handle"]),
    (GlusterServer, ["_handle"]),
    (GlusterClient, _FOPS + ["fstat", "fsync", "close"]),
    (ClientProtocol, _FOPS + ["lookup", "flush", "fsync"]),
    (CMCacheXlator, _FOPS + ["flush"]),
    (SMCacheXlator, _FOPS + ["flush"]),
]


@pytest.mark.parametrize(
    "cls,name",
    [(cls, name) for cls, names in GENERATOR_ENTRY_POINTS for name in names],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_entry_point_is_a_generator_function(cls, name):
    assert inspect.isgeneratorfunction(vars(cls)[name]), f"{cls.__name__}.{name}"
