"""Reference model and output checks for the benchmark's ops.

An op fails when it raises, when a ``stat`` reports a size other than
the model's, or when a read returns bytes that no admissible write
produced.  With concurrent writers a read of record *r* may return:

* the bytes of the last write to *r* completed before the read
  started, or
* the bytes of any write that started before the read returned,

and nothing else: a write is stale once another write to the same
record *started after it completed* and itself completed before the
read started.  That is the paper's section 4.4 contract (MCD state may
change only the hit rate, never the returned bytes), checked against
the exact history of the run rather than a quiescent snapshot.
"""

from __future__ import annotations

from typing import Optional

from workloads import RECORD, Plan

#: Start/end of the populate write every record begins with.
_BEFORE = -1.0


class RefModel:
    """Per-record write history plus file sizes, fed by the driver."""

    def __init__(self, plan: Plan) -> None:
        self.plan = plan
        self.sizes = list(plan.sizes)
        #: record -> [start, end or None, bytes] for writes still admissible.
        self._logs: dict[int, list[list]] = {}
        #: record -> latest start among writes completed so far.
        self._settled: dict[int, float] = {}
        #: record -> reads in flight (history is pruned only at zero).
        self._reading: dict[int, int] = {}
        self.failed = 0
        self.first_failure: Optional[str] = None

    def fail(self, why: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = why

    # -- stat ------------------------------------------------------------
    def check_stat(self, f: int, st) -> None:
        if st.size != self.sizes[f]:
            self.fail(f"stat {self.plan.paths[f]}: size {st.size} != {self.sizes[f]}")

    # -- writes ----------------------------------------------------------
    def write_begin(self, rec: int, data: bytes, now: float) -> list:
        log = self._logs.get(rec)
        if log is None:
            log = self._logs[rec] = [[_BEFORE, _BEFORE, self.plan.initial(rec)]]
        entry = [now, None, data]
        log.append(entry)
        return entry

    def write_end(self, rec: int, entry: list, now: float) -> None:
        entry[1] = now
        if entry[0] > self._settled.get(rec, _BEFORE):
            self._settled[rec] = entry[0]
        if not self._reading.get(rec):
            settled = self._settled[rec]
            self._logs[rec] = [e for e in self._logs[rec] if e[1] is None or e[1] >= settled]

    # -- reads -----------------------------------------------------------
    def read_begin(self, rec: int) -> float:
        """Note a read of *rec* starting now; returns its staleness cut."""
        self._reading[rec] = self._reading.get(rec, 0) + 1
        return self._settled.get(rec, _BEFORE)

    def read_end(self, rec: int, cut: float, result) -> None:
        self._reading[rec] -= 1
        data = result.data
        if result.size != RECORD or data is None:
            self.fail(f"read record {rec}: {result.size} bytes, data={data is not None}")
            return
        log = self._logs.get(rec)
        if log is None:
            ok = data == self.plan.initial(rec)
        else:
            ok = any(data == e[2] for e in log if e[1] is None or e[1] >= cut)
        if not ok:
            self.fail(f"read record {rec}: bytes match no admissible write")

    def read_abort(self, rec: int) -> None:
        self._reading[rec] -= 1
