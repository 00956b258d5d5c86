"""SpillableLog and chunk-fold contract tests.

The streaming pipeline's byte-identity rests on two properties proved
here in isolation: a spilled log replays exactly the records appended
(and restores exactly to a checkpointed offset, WAL-truncation style),
and every chunk fold equals the same reduction over the materialised
frame regardless of how the rows are split into chunks.
"""

import gc
import json
import random
import warnings

import pytest

from repro.analysis.columnar import ColumnarFrame
from repro.analysis.streams import (
    GroupFold,
    SpillableLog,
    SpillError,
    fold_distinct,
    fold_group_min_max,
)


def make_log(spill_path=None):
    return SpillableLog(
        encode=lambda pair: {"k": pair[0], "v": pair[1]},
        decode=lambda data: (data["k"], data["v"]),
        spill_path=str(spill_path) if spill_path is not None else None)


RECORDS = [("alpha", 1), ("beta", 2), ("alpha", 3), ("gamma", 4)]


class TestSpillableLogModes:
    def test_memory_mode_round_trip(self):
        log = make_log()
        log.extend(RECORDS)
        assert list(log) == RECORDS
        assert len(log) == 4

    def test_memory_state_dict_is_the_legacy_encoded_list(self):
        """Materialised checkpoints must not change shape: old
        checkpoints load, new ones stay loadable by old code."""
        log = make_log()
        log.extend(RECORDS)
        assert log.state_dict() == [
            {"k": k, "v": v} for k, v in RECORDS]

    def test_spill_mode_round_trip(self, tmp_path):
        log = make_log(tmp_path / "log.jsonl")
        log.extend(RECORDS)
        assert list(log) == RECORDS
        assert len(log) == 4
        # Nothing resident: the records live on disk as JSONL.
        lines = (tmp_path / "log.jsonl").read_text().splitlines()
        assert [json.loads(line)["k"] for line in lines] == [
            k for k, _ in RECORDS]

    def test_fresh_spill_run_truncates_stale_file(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"k": "stale", "v": 0}\n')
        log = make_log(path)
        log.append(("fresh", 1))
        assert list(log) == [("fresh", 1)]

    def test_dropped_log_closes_its_spill_file(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = make_log(path)
        log.extend(RECORDS)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            del log
            gc.collect()
        assert not [w for w in caught if path.name in str(w.message)]

    def test_iteration_is_repeatable_and_interleaves_appends(self,
                                                             tmp_path):
        log = make_log(tmp_path / "log.jsonl")
        log.extend(RECORDS[:2])
        assert list(log) == RECORDS[:2]
        log.extend(RECORDS[2:])
        assert list(log) == RECORDS
        assert list(log) == RECORDS


class TestSpillableLogRestore:
    def test_memory_checkpoint_restores_in_memory(self):
        log = make_log()
        log.extend(RECORDS)
        state = log.state_dict()
        fresh = make_log()
        fresh.load_state(state)
        assert list(fresh) == RECORDS

    def test_spill_checkpoint_truncates_post_checkpoint_appends(
            self, tmp_path):
        """The WAL contract: records appended after the checkpoint are
        phantom work a resumed run will redo — truncate them away."""
        path = tmp_path / "log.jsonl"
        log = make_log(path)
        log.extend(RECORDS[:2])
        state = log.state_dict()
        log.extend(RECORDS[2:])  # lost to the "crash"
        resumed = make_log(path)
        resumed.load_state(state)
        assert len(resumed) == 2
        assert list(resumed) == RECORDS[:2]
        # The resumed run re-appends and the replay stays exact.
        resumed.extend(RECORDS[2:])
        assert list(resumed) == RECORDS

    def test_memory_checkpoint_resumed_in_spill_mode_is_an_error(
            self, tmp_path):
        log = make_log()
        log.extend(RECORDS)
        with pytest.raises(SpillError, match="--batch-devices"):
            make_log(tmp_path / "log.jsonl").load_state(log.state_dict())

    def test_spill_checkpoint_resumed_in_memory_mode_is_an_error(
            self, tmp_path):
        log = make_log(tmp_path / "log.jsonl")
        log.extend(RECORDS)
        with pytest.raises(SpillError, match="--batch-devices"):
            make_log().load_state(log.state_dict())

    def test_missing_spill_file_is_an_error_unless_empty(self, tmp_path):
        log = make_log(tmp_path / "gone.jsonl")
        log.extend(RECORDS)
        state = log.state_dict()
        (tmp_path / "gone.jsonl").unlink()
        resumed = make_log(tmp_path / "gone.jsonl")
        with pytest.raises(SpillError, match="missing"):
            resumed.load_state(state)
        # An empty checkpoint needs no file at all.
        empty = make_log(tmp_path / "never.jsonl")
        empty.load_state({"spill": {"count": 0, "offset": 0}})
        assert len(empty) == 0

    def test_short_spill_file_is_an_error(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = make_log(path)
        log.extend(RECORDS)
        state = log.state_dict()
        path.write_text('{"k": "alpha", "v": 1}\n')
        with pytest.raises(SpillError, match="shorter"):
            make_log(path).load_state(state)


def make_frame(seed, count=240):
    rng = random.Random(seed)
    packages = [f"com.app{i}" for i in range(10)]
    iips = ["IIP-A", "IIP-B", "IIP-C"]
    records = [
        {"package": rng.choice(packages),
         "iip_name": rng.choice(iips),
         "first_seen_day": rng.randrange(0, 30),
         "last_seen_day": rng.randrange(30, 60),
         "payout_usd": round(rng.uniform(0.01, 2.0), 4)}
        for _ in range(count)]
    fields = ("package", "iip_name", "first_seen_day", "last_seen_day",
              "payout_usd")
    return ColumnarFrame.from_records(
        [type("R", (), record)() for record in records], fields)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("chunk_size", [1, 7, 100, 1000])
class TestFoldsEqualMaterialised:
    """Every fold over chunks must equal the one-pass reduction over
    the whole frame — the property the streamed exports' byte-identity
    reduces to."""

    def test_fold_distinct(self, seed, chunk_size):
        frame = make_frame(seed)
        assert (fold_distinct(frame.iter_chunks(chunk_size), "package")
                == frame.distinct("package"))

    def test_fold_group_min_max(self, seed, chunk_size):
        frame = make_frame(seed)
        folded = fold_group_min_max(
            frame.iter_chunks(chunk_size), "package",
            "first_seen_day", "last_seen_day")
        whole = frame.group_min_max(
            "package", "first_seen_day", "last_seen_day")
        assert folded == whole
        assert list(folded) == list(whole)  # first-seen key order

    def test_group_fold(self, seed, chunk_size):
        frame = make_frame(seed)
        folded = GroupFold("iip_name", "payout_usd", "package").fold(
            frame.iter_chunks(chunk_size)).groups
        whole = {}
        for iip, indexes in frame.group_indexes("iip_name").items():
            whole[iip] = {
                "payout_usd": [frame.column("payout_usd")[i]
                               for i in indexes],
                "package": [frame.column("package")[i] for i in indexes],
            }
        assert folded == whole
        assert list(folded) == list(whole)


class TestFoldEdgeCases:
    def test_folds_over_no_chunks(self):
        assert fold_distinct([], "package") == []
        assert fold_group_min_max([], "package", "a", "b") == {}
        assert GroupFold("package", "payout_usd").fold([]).groups == {}

    def test_folds_skip_empty_chunks(self):
        frame = make_frame(3, count=20)
        empty = ColumnarFrame({field: [] for field in frame.fields})
        chunks = [empty, frame, empty]
        assert fold_distinct(chunks, "package") == frame.distinct(
            "package")
