"""Seeded workload plans for the IMCa benchmark.

A plan holds everything the driver feeds the program: file paths,
initial file sizes and contents, and one closed-loop op list per
client for the warm pass and for the timed phase, with every write
payload already built.  It is made from the seed alone, before the
testbed exists, so the timed loop only walks lists and the program
sees nothing but the generated paths, offsets and bytes.

Three workloads (names are stable; later changes refer to them):

* ``stat-hot``  - many clients ``stat`` uniformly random paths of a
  shared file set whose stat entries fit the MCD array (paper Fig 5).
* ``read-spill`` - block-sized reads at skewed offsets (a hot set of
  records takes most reads) over a data set larger than both the MCD
  array and the server page cache, so capacity misses fall through to
  the brick and its disks.
* ``write-mix`` - 70/30 reads and writes of block-sized records over
  files that fit both the MCD array and the server page cache; writes
  take the server-first path with SMCache read-back (paper section 4.4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

KiB = 1024
MiB = 1024 * KiB

#: Op kinds in a plan's op tuples ``(kind, file, offset, payload, record)``.
STAT, READ, WRITE = 0, 1, 2
OP_NAMES = ("stat", "read", "write")

#: The record size: one IMCa block under the default ``IMCaConfig``.
RECORD = 2 * KiB


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload: cluster, data set and op counts."""

    clients: int
    mcds: int
    #: Memory of each MCD.
    mcd_memory: int
    #: Server page-cache budget.
    page_cache: int
    files: int
    #: Bytes per data file; for stat-only workloads, the largest size a
    #: file is truncated to (sizes are drawn per file, no data written).
    file_size: int
    #: Ops per client in the untimed warm pass and in the timed phase.
    warm_ops: int
    timed_ops: int
    write_frac: float = 0.0
    #: Skew: a seeded set of ``hot_frac`` of the records takes
    #: ``hot_share`` of the ops, uniformly; the rest take the remainder
    #: (``hot_frac`` 0 = uniform over all records).  Many equally hot
    #: records, unlike a Zipf head of a few, keep the cost of an op
    #: from hinging on where the seed places a handful of keys.
    hot_frac: float = 0.0
    hot_share: float = 0.0
    #: Whether files carry data (read/write workloads) or only a size.
    data: bool = True
    #: Warm by reading every record once (spread over the clients)
    #: instead of ``warm_ops`` random ops: for data sets that fit the
    #: MCD array, so the timed phase starts with all of it cached.
    warm_sweep: bool = False

    @property
    def records_per_file(self) -> int:
        return self.file_size // RECORD


#: ``SHAPES[workload][size]``; ``full`` is what the benchmark measures,
#: ``tiny`` keeps the benchmark's own tests fast.
SHAPES: dict[str, dict[str, Shape]] = {
    "stat-hot": {
        "full": Shape(
            clients=32, mcds=2, mcd_memory=8 * MiB, page_cache=64 * MiB,
            files=1024, file_size=1 * MiB, warm_ops=64, timed_ops=2500,
            data=False,
        ),
        "tiny": Shape(
            clients=4, mcds=2, mcd_memory=8 * MiB, page_cache=64 * MiB,
            files=32, file_size=64 * KiB, warm_ops=4, timed_ops=40,
            data=False,
        ),
    },
    "read-spill": {
        "full": Shape(
            clients=32, mcds=2, mcd_memory=4 * MiB, page_cache=4 * MiB,
            files=4, file_size=4 * MiB, warm_ops=400, timed_ops=750,
            hot_frac=0.25, hot_share=0.9,
        ),
        "tiny": Shape(
            clients=4, mcds=2, mcd_memory=2 * MiB, page_cache=1 * MiB,
            files=4, file_size=2 * MiB, warm_ops=300, timed_ops=100,
            hot_frac=0.25, hot_share=0.9,
        ),
    },
    "write-mix": {
        "full": Shape(
            clients=32, mcds=2, mcd_memory=8 * MiB, page_cache=16 * MiB,
            files=4, file_size=1 * MiB, warm_ops=0, timed_ops=600,
            write_frac=0.3, warm_sweep=True,
        ),
        "tiny": Shape(
            clients=4, mcds=2, mcd_memory=4 * MiB, page_cache=4 * MiB,
            files=2, file_size=128 * KiB, warm_ops=0, timed_ops=60,
            write_frac=0.3, warm_sweep=True,
        ),
    },
}

WORKLOADS = tuple(SHAPES)


@dataclass
class Plan:
    """Everything generated from one (workload, size, seed)."""

    workload: str
    seed: int
    shape: Shape
    paths: list[str]
    #: Initial size of each file (the stat reference model).
    sizes: list[int]
    #: Initial bytes of each file (``None`` for stat-only workloads).
    contents: Optional[list[bytes]]
    #: Per client: op tuples for the warm pass and the timed phase.
    warm: list[list[tuple]]
    timed: list[list[tuple]]
    #: Write payloads, indexed by an op tuple's payload field.
    payloads: list[bytes]

    @property
    def timed_op_count(self) -> int:
        return sum(len(ops) for ops in self.timed)

    def initial(self, record: int) -> bytes:
        """The populated bytes of *record*."""
        rpf = self.shape.records_per_file
        off = (record % rpf) * RECORD
        return self.contents[record // rpf][off : off + RECORD]


def _record_picker(rng: random.Random, shape: Shape):
    """Return ``pick(k) -> list[record]`` for the shape's skew.

    The hot set is a seeded sample of the records, so hot records are
    scattered over files and offsets.
    """
    n = shape.files * shape.records_per_file
    if shape.hot_frac <= 0.0:
        return lambda k: [rng.randrange(n) for _ in range(k)]
    order = list(range(n))
    rng.shuffle(order)
    cut = int(n * shape.hot_frac)
    hot, cold = order[:cut], order[cut:]
    share = shape.hot_share
    return lambda k: [rng.choice(hot if rng.random() < share else cold) for _ in range(k)]


def make_plan(workload: str, seed: int, size: str = "full") -> Plan:
    """Build the plan for *workload* from *seed* alone."""
    try:
        shape = SHAPES[workload][size]
    except KeyError:
        raise ValueError(f"unknown workload/size {workload!r}/{size!r}") from None
    rng = random.Random(f"{workload}:{seed}")
    paths = [f"/bench/{workload}/d{i % 8}/f{i:05d}" for i in range(shape.files)]
    payloads: list[bytes] = []
    if not shape.data:
        sizes = [rng.randrange(1, shape.file_size + 1) for _ in range(shape.files)]
        contents = None

        def ops_for(k: int) -> list[tuple]:
            return [(STAT, rng.randrange(shape.files), 0, -1, -1) for _ in range(k)]

    else:
        sizes = [shape.file_size] * shape.files
        contents = [rng.randbytes(shape.file_size) for _ in range(shape.files)]
        pick = _record_picker(rng, shape)
        rpf = shape.records_per_file

        def ops_for(k: int) -> list[tuple]:
            ops = []
            for rec in pick(k):
                f, off = divmod(rec, rpf)
                if rng.random() < shape.write_frac:
                    ops.append((WRITE, f, off * RECORD, len(payloads), rec))
                    payloads.append(rng.randbytes(RECORD))
                else:
                    ops.append((READ, f, off * RECORD, -1, rec))
            return ops

    if shape.warm_sweep:
        n = shape.files * shape.records_per_file
        rpf = shape.records_per_file
        warm = [
            [(READ, rec // rpf, rec % rpf * RECORD, -1, rec) for rec in range(c, n, shape.clients)]
            for c in range(shape.clients)
        ]
    else:
        warm = [ops_for(shape.warm_ops) for _ in range(shape.clients)]
    timed = [ops_for(shape.timed_ops) for _ in range(shape.clients)]
    return Plan(workload, seed, shape, paths, sizes, contents, warm, timed, payloads)
