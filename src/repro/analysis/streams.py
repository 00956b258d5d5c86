"""Spillable logs and chunk-fold helpers for the streaming pipeline.

The wild measurement used to accumulate every cross-day artifact in
memory: the raw ``ObservedOffer`` log grew by every offer ever milked
and the crawl archive held every profile snapshot ever fetched.  At
paper scale ("heavy traffic from millions of users") those measurement
accumulators — not the simulated world itself — dominate peak RSS.

This module is the constant-memory answer, extending the
``OnlineLockstepDetector`` incremental-fold idiom to the whole analysis
layer:

* :class:`SpillableLog` — an append-only record log that either keeps
  the records in memory (materialised mode) or spills encoded records
  to a JSONL file and keeps only a byte offset in memory.  It is the
  one place that knows which: callers hold the *locator* an append
  returns and read records back through it.  Restore truncates the
  spill file back to the checkpointed offset, the same WAL-truncation
  contract the recovery layer already uses.
* chunk folds (:func:`fold_distinct`, :func:`fold_group_min_max`,
  :class:`GroupFold`) — single-pass reductions over an iterable of
  :class:`ColumnarFrame` chunks that produce *exactly* the value the
  same reduction produces over one materialised frame.  The
  materialised path is the one-chunk special case, so both modes share
  one code path and byte-identity between them is structural, not
  coincidental.

Why the folds are exact, not approximate: every fold either reduces
with order-insensitive operations (set union, ``<``/``>`` min-max) or
appends in record order (group payload lists), and chunking preserves
record order — concatenating the chunks reproduces the full frame row
for row.  Dict insertion order gives first-seen group stability across
chunk boundaries: a group first seen in chunk 0 stays ahead of a group
first seen in chunk 3, exactly as in a single pass over the full frame.
"""

from __future__ import annotations

import json
import os
import weakref
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

from repro.analysis.columnar import ColumnarFrame


class SpillError(RuntimeError):
    """A spill file is missing or does not match its checkpoint."""


class SpillableLog:
    """Append-only record log with an optional disk spill.

    :meth:`append` returns a *locator* for its record — the list index
    in memory mode (``spill_path=None``), the line's byte offset in
    spill mode — and :meth:`read` returns the record at a locator;
    :meth:`items` yields ``(locator, record)`` pairs in append order.

    In memory mode :meth:`state_dict` is the encoded record list.  In
    spill mode each record is one encoded-JSON line, memory holds only
    ``(count, byte offset)``, and iteration replays the file;
    :meth:`load_state` truncates the file back to the checkpointed
    offset so a crash between checkpoint and append cannot leak
    phantom records into the resumed run.  A checkpoint written in the
    other mode is a :class:`SpillError`.
    """

    def __init__(self, encode: Callable[[object], object],
                 decode: Callable[[object], object],
                 spill_path: Optional[str] = None) -> None:
        self._encode = encode
        self._decode = decode
        self._spill_path = spill_path
        self._count = 0
        self._records: List[object] = []
        #: Bytes in the spill file: the next append's locator.
        self._size = 0
        self._handle = None
        if spill_path is not None:
            os.makedirs(os.path.dirname(spill_path) or ".", exist_ok=True)

    def _ensure_handle(self, preserve: bool = False):
        """Open the spill file on first use.

        A fresh run truncates whatever a previous run left behind; a
        resume (``preserve=True``, via :meth:`load_state`) keeps the
        existing bytes so they can be truncated back to the checkpoint
        offset instead.  The handle outlives ``run()`` (the results
        re-read the log), so it closes when the log is collected.
        """
        if self._handle is None:
            mode = "r+b" if preserve and os.path.exists(self._spill_path) \
                else "w+b"
            self._handle = open(self._spill_path, mode)
            self._handle.seek(0, os.SEEK_END)
            weakref.finalize(self, self._handle.close)
        return self._handle

    def __len__(self) -> int:
        return self._count

    def append(self, record: object) -> int:
        """Append one record; returns its locator."""
        if self._spill_path is None:
            locator = len(self._records)
            self._records.append(record)
        else:
            line = (json.dumps(self._encode(record), sort_keys=True)
                    + "\n").encode("utf-8")
            self._ensure_handle().write(line)
            locator = self._size
            self._size += len(line)
        self._count += 1
        return locator

    def extend(self, records: Iterable[object]) -> None:
        for record in records:
            self.append(record)

    def read(self, locator: int) -> object:
        """The record :meth:`append` returned ``locator`` for."""
        if self._spill_path is None:
            return self._records[locator]
        handle = self._ensure_handle()
        handle.seek(locator)
        line = handle.readline()
        handle.seek(0, os.SEEK_END)
        return self._decode(json.loads(line.decode("utf-8")))

    def items(self) -> Iterator[Tuple[int, object]]:
        """``(locator, record)`` pairs in append order."""
        if self._spill_path is None:
            return enumerate(self._records)
        return self._iter_spilled()

    def __iter__(self) -> Iterator[object]:
        return (record for _, record in self.items())

    def _iter_spilled(self) -> Iterator[Tuple[int, object]]:
        self._ensure_handle().flush()
        with open(self._spill_path, "rb") as replay:
            locator = 0
            for line in replay:
                yield locator, self._decode(json.loads(line.decode("utf-8")))
                locator += len(line)

    # -- checkpoint/restore ---------------------------------------------------

    def state_dict(self) -> object:
        if self._spill_path is None:
            return [self._encode(record) for record in self._records]
        self._ensure_handle().flush()
        return {"spill": {"count": self._count, "offset": self._size}}

    def load_state(self, state: object) -> None:
        spilled = isinstance(state, dict)
        if spilled != (self._spill_path is not None):
            raise SpillError(
                f"checkpoint was written by a "
                f"{'spilling' if spilled else 'materialised'} run; resume "
                "with the same --batch-devices/--spill-dir configuration")
        if not spilled:
            self._records = [self._decode(encoded) for encoded in state]
            self._count = len(self._records)
            return
        spill = state["spill"]  # type: ignore[index]
        offset = int(spill["offset"])
        if os.path.exists(self._spill_path):
            handle = self._ensure_handle(preserve=True)
            handle.flush()
            size = os.path.getsize(self._spill_path)
            if size < offset:
                raise SpillError(
                    f"spill file {self._spill_path} is shorter than its "
                    f"checkpoint ({size} < {offset} bytes); resume needs "
                    "the spill directory the crashed run wrote to")
            handle.seek(offset)
            handle.truncate()
        elif offset:
            raise SpillError(
                f"spill file {self._spill_path} is missing; resume needs "
                "the spill directory the crashed run wrote to")
        self._size = offset
        self._count = int(spill["count"])


# -- chunk folds --------------------------------------------------------------


def fold_distinct(chunks: Iterable[ColumnarFrame], name: str) -> List:
    """Sorted unique values of one column across all chunks —
    ``frame.distinct(name)`` as a fold (set union commutes)."""
    values: set = set()
    for chunk in chunks:
        values.update(chunk.column(name))
    return sorted(values)


def fold_group_min_max(chunks: Iterable[ColumnarFrame], key: str,
                       min_field: str, max_field: str
                       ) -> Dict[object, Tuple[object, object]]:
    """``frame.group_min_max(...)`` as a fold.

    Per-chunk min-max maps keep first-seen order within the chunk;
    merging them in chunk order reproduces the full frame's first-seen
    key order, and ``<``/``>`` reduction is associative, so the result
    is identical to the one-pass version.
    """
    out: Dict[object, Tuple[object, object]] = {}
    for chunk in chunks:
        for value, (low, high) in chunk.group_min_max(
                key, min_field, max_field).items():
            current = out.get(value)
            if current is None:
                out[value] = (low, high)
            else:
                prev_low, prev_high = current
                out[value] = (low if low < prev_low else prev_low,
                              high if high > prev_high else prev_high)
    return out


class GroupFold:
    """Accumulate per-group column values across chunks.

    The shape behind ``iip_summary_table``: per group key, the selected
    columns concatenated in record order.  First-seen group order is
    preserved across chunk boundaries (dict insertion order), matching
    a single ``group_by`` pass over the materialised frame.
    """

    def __init__(self, key: str, *columns: str) -> None:
        self._key = key
        self._columns = columns
        self._groups: "Dict[object, Dict[str, List]]" = {}

    def absorb(self, chunk: ColumnarFrame) -> None:
        for value, indexes in chunk.group_indexes(self._key).items():
            bucket = self._groups.get(value)
            if bucket is None:
                bucket = {name: [] for name in self._columns}
                self._groups[value] = bucket
            for name in self._columns:
                column = chunk.column(name)
                bucket[name].extend(column[i] for i in indexes)

    def fold(self, chunks: Iterable[ColumnarFrame]) -> "GroupFold":
        for chunk in chunks:
            self.absorb(chunk)
        return self

    @property
    def groups(self) -> "Dict[object, Dict[str, List]]":
        return self._groups
