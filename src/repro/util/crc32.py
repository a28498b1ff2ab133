"""CRC-32 (IEEE 802.3) and libmemcache's key hash.

libmemcache uses CRC32 of the key to pick a memcached server
(``crc32(key) % nservers`` after folding); IMCa inherits that default
(paper §4.2, §5.1).  The checksum itself is :func:`zlib.crc32`; the test
suite pins known-answer vectors and the resulting key placement.
"""

from __future__ import annotations

import zlib


def crc32(data: bytes | bytearray | memoryview | str, value: int = 0) -> int:
    """Return the CRC-32 checksum of *data*.

    ``str`` input is encoded as UTF-8 (memcached keys are byte strings;
    all keys IMCa generates are ASCII paths plus offsets).

    Parameters
    ----------
    data:
        The bytes to checksum.
    value:
        Running checksum from a previous call, for incremental use.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    return zlib.crc32(data, value)


def memcache_hash(key: bytes | str) -> int:
    """The key hash used by libmemcache's default CRC32 distribution.

    libmemcache folds the CRC to 15 bits: ``(crc32(key) >> 16) & 0x7fff``.
    The fold keeps the distribution uniform while avoiding the low-order
    bytes, which for short keys vary little.
    """
    return (crc32(key) >> 16) & 0x7FFF
