"""CRC32 correctness: known-answer vectors, the libmemcache fold's
range, and the key -> MCD placement it produces."""

import zlib

import pytest
from hypothesis import given, strategies as st

from repro.memcached.hashing import Crc32Selector
from repro.util.crc32 import crc32, memcache_hash


KNOWN = [
    (b"", 0x00000000),
    (b"a", 0xE8B7BE43),
    (b"abc", 0x352441C2),
    (b"123456789", 0xCBF43926),
    (b"/mnt/gluster/file0001:stat", None),  # value checked vs zlib below
]


@pytest.mark.parametrize("data,expected", KNOWN)
def test_known_vectors(data, expected):
    if expected is not None:
        assert crc32(data) == expected
    assert crc32(data) == zlib.crc32(data)


@given(st.binary(max_size=2048))
def test_matches_zlib(data):
    assert crc32(data) == zlib.crc32(data)


@given(st.binary(max_size=512), st.integers(1, 511))
def test_incremental_equals_oneshot(data, split):
    split = min(split, len(data))
    partial = crc32(data[:split])
    assert crc32(data[split:], partial) == crc32(data)


def test_str_input_utf8():
    assert crc32("abc") == crc32(b"abc")
    assert crc32("héllo") == crc32("héllo".encode("utf-8"))


@given(st.text(min_size=1, max_size=300))
def test_memcache_hash_range(key):
    h = memcache_hash(key)
    assert 0 <= h <= 0x7FFF


def test_memcache_hash_spreads_keys():
    """IMCa keys (path + block offset) must spread across servers."""
    for nservers in (2, 4, 6):
        buckets = [0] * nservers
        for i in range(4096):
            key = f"/mnt/gluster/d{i % 13}/file{i:06d}:{(i * 2048)}"
            buckets[memcache_hash(key) % nservers] += 1
        expected = 4096 / nservers
        for b in buckets:
            assert abs(b - expected) / expected < 0.25


#: (key, memcache_hash, Crc32Selector server for n=2, for n=4).  crc32
#: is zlib's, so the zlib-equality tests above compare zlib with itself;
#: these values, recorded with an independent table-driven CRC32, are
#: what pins the key -> MCD map.
PLACEMENT = [
    ("/bench/stat-hot/d3/f00123:stat", 10497, 1, 1),
    ("/bench/stat-hot/d1/f00001:stat", 24480, 0, 0),
    ("/bench/read-spill/d0/f00000:2048", 1383, 1, 3),
    ("/bench/write-mix/d7/f00511:0", 21359, 1, 3),
    ("/mnt/gluster/file0001:4096", 1490, 0, 2),
    ("/mnt/gluster/file0001:stat", 7730, 0, 2),
    ("/mnt/gluster/d5/file000042:1048576", 15742, 0, 2),
]


@pytest.mark.parametrize("key,h,on2,on4", PLACEMENT)
def test_placement_is_pinned(key, h, on2, on4):
    assert memcache_hash(key) == h
    assert memcache_hash(key.encode()) == h
    sel = Crc32Selector()
    assert sel.select(key, 2) == on2
    assert sel.select(key, 4) == on4
