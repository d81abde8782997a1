"""Stream sources: offsets, polling, seeking, replay logs."""

import json

import pytest

from repro.engine import Document
from repro.stream import (
    MemorySource,
    ReplayLogSource,
    write_replay_log,
)


def _doc(i, **artifacts):
    return Document(doc_id=i, channel="test", text=f"text {i}",
                    artifacts=artifacts)


class TestMemorySource:
    def test_offsets_are_dense_and_monotonic(self):
        source = MemorySource((i % 3, _doc(i)) for i in range(10))
        seen = []
        while True:
            batch = source.poll(3)
            if not batch:
                break
            seen.extend(record.offset for record in batch)
        assert seen == list(range(10))

    def test_poll_respects_max_records(self):
        source = MemorySource((0, _doc(i)) for i in range(7))
        assert len(source.poll(4)) == 4
        assert len(source.poll(4)) == 3
        assert source.poll(4) == []

    def test_seek_rewinds_for_redelivery(self):
        source = MemorySource((0, _doc(i)) for i in range(5))
        first = source.poll(5)
        source.seek(2)
        again = source.poll(5)
        assert [r.offset for r in again] == [2, 3, 4]
        assert again[0].document is first[2].document

    def test_append_after_drain_models_live_feed(self):
        source = MemorySource()
        assert source.poll(2) == []
        offset = source.append(_doc(0), timestamp=4)
        assert offset == 0
        [record] = source.poll(2)
        assert record.timestamp == 4

    def test_records_carry_timestamps(self):
        source = MemorySource([(9, _doc(0)), (11, _doc(1))])
        batch = source.poll(2)
        assert [r.timestamp for r in batch] == [9, 11]

    def test_negative_seek_rejected(self):
        source = MemorySource()
        with pytest.raises(ValueError):
            source.seek(-1)


class TestReplayLog:
    def test_round_trip_preserves_documents(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        pairs = [
            (i % 2, _doc(i, index_fields={"k": f"v{i}"}))
            for i in range(6)
        ]
        write_replay_log(path, pairs)
        source = ReplayLogSource(path)
        assert len(source) == 6
        batch = source.poll(10)
        assert [r.offset for r in batch] == list(range(6))
        assert [r.timestamp for r in batch] == [i % 2 for i in range(6)]
        assert batch[3].document.doc_id == 3
        assert batch[3].document.text == "text 3"
        assert batch[3].document.artifacts == {
            "index_fields": {"k": "v3"}
        }

    def test_non_dense_log_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_replay_log(path, [(0, _doc(0)), (0, _doc(1))])
        lines = path.read_text().splitlines()
        path.write_text(lines[1] + "\n")  # starts at offset 1: gap
        with pytest.raises(ValueError, match="expected offset 0"):
            ReplayLogSource(path)

    def test_missing_field_names_path_line_and_field(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        write_replay_log(path, [(0, _doc(i)) for i in range(3)])
        lines = path.read_text().splitlines()
        entry = json.loads(lines[1])
        del entry["timestamp"]
        lines[1] = json.dumps(entry)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as excinfo:
            ReplayLogSource(path)
        assert not isinstance(excinfo.value, KeyError)
        assert f"{path}:2" in str(excinfo.value)
        assert "missing field 'timestamp'" in str(excinfo.value)

    def test_malformed_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        write_replay_log(path, [(0, _doc(i)) for i in range(3)])
        lines = path.read_bytes().splitlines()
        entry = json.loads(lines[2])
        entry["artifacts"] = 5
        bad_lines = {
            lines[2][: len(lines[2]) // 2]: "invalid JSON",  # torn write
            b"[" * 200_000: "invalid JSON (nested too deeply)",
            lines[2].replace(b"text 2", b"text \xff\xfe"): "not valid UTF-8",
            json.dumps(entry).encode(): "field 'artifacts' must be a JSON",
        }
        for bad, fault in bad_lines.items():
            path.write_bytes(b"\n".join(lines[:2] + [bad]) + b"\n")
            with pytest.raises(ValueError) as excinfo:
                ReplayLogSource(path)
            assert type(excinfo.value) is ValueError
            assert f"{path}:3: {fault}" in str(excinfo.value)

    def test_unserialisable_artifacts_rejected(self, tmp_path):
        document = _doc(0, transcript=object())
        with pytest.raises(ValueError, match="not JSON-serialisable"):
            write_replay_log(tmp_path / "x.jsonl", [(0, document)])

    def test_seek_supported(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        write_replay_log(path, [(0, _doc(i)) for i in range(4)])
        source = ReplayLogSource(path)
        source.poll(4)
        source.seek(1)
        assert [r.offset for r in source.poll(10)] == [1, 2, 3]
