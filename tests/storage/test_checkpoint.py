"""Checkpoint atomicity, validation, and fallback-to-older behaviour."""

from __future__ import annotations

import json
import zlib

import pytest

from repro.reliability import faults
from repro.storage.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointManager,
)
from repro.system.persistence import canonical_store_payload
from repro.system.speech_store import SpeechStore

from tests.serving.conftest import append_table


def save_checkpoint(manager, engine, applied_seq, journal_offset=0):
    return manager.save(
        engine.store,
        engine.table,
        applied_seq=applied_seq,
        store_version=applied_seq,
        journal_offset=journal_offset,
    )


class TestSaveAndLoad:
    def test_round_trip(self, tmp_path, engine):
        manager = CheckpointManager(tmp_path)
        path = save_checkpoint(manager, engine, applied_seq=7, journal_offset=123)
        assert path.name == "ckpt-000000000007"
        assert sorted(entry.name for entry in path.iterdir()) == [
            "manifest.json",
            "store.snap",
            "table.json",
        ]

        loaded = CheckpointManager(tmp_path).load_latest()
        assert loaded is not None
        assert loaded.applied_seq == 7
        assert loaded.journal_offset == 123
        assert canonical_store_payload(loaded.store) == canonical_store_payload(
            engine.store
        )
        # The thawed store must be mutable (journal replay builds on it).
        assert isinstance(loaded.store, SpeechStore)
        assert loaded.table.num_rows == engine.table.num_rows

    def test_empty_directory_loads_none(self, tmp_path):
        assert CheckpointManager(tmp_path).load_latest() is None

    def test_newest_valid_wins(self, tmp_path, engine):
        manager = CheckpointManager(tmp_path)
        save_checkpoint(manager, engine, applied_seq=1)
        save_checkpoint(manager, engine, applied_seq=2)
        assert manager.load_latest().applied_seq == 2

    def test_prune_keeps_newest(self, tmp_path, engine):
        manager = CheckpointManager(tmp_path, keep=2)
        for seq in (1, 2, 3):
            save_checkpoint(manager, engine, applied_seq=seq)
        names = [path.name for path in manager.list_checkpoints()]
        assert names == ["ckpt-000000000002", "ckpt-000000000003"]

    def test_same_watermark_resave_replaces(self, tmp_path, engine):
        manager = CheckpointManager(tmp_path)
        save_checkpoint(manager, engine, applied_seq=4, journal_offset=10)
        save_checkpoint(manager, engine, applied_seq=4, journal_offset=20)
        loaded = manager.load_latest()
        assert loaded.applied_seq == 4
        assert loaded.journal_offset == 20

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="keep must be >= 1"):
            CheckpointManager(tmp_path, keep=0)


class TestCorruptCheckpoints:
    def test_store_crc_mismatch_falls_back_to_older(self, tmp_path, engine):
        manager = CheckpointManager(tmp_path)
        save_checkpoint(manager, engine, applied_seq=1)
        newest = save_checkpoint(manager, engine, applied_seq=2)
        blob = bytearray((newest / "store.snap").read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        (newest / "store.snap").write_bytes(bytes(blob))

        loaded = manager.load_latest()
        assert loaded is not None
        assert loaded.applied_seq == 1

    def test_snapshot_checksums_catch_corruption_the_manifest_missed(
        self, tmp_path, engine
    ):
        # Corrupt the store and re-sign the manifest: the snapshot
        # format's own section checksums must still reject the file.
        manager = CheckpointManager(tmp_path)
        save_checkpoint(manager, engine, applied_seq=1)
        newest = save_checkpoint(manager, engine, applied_seq=2)
        blob = bytearray((newest / "store.snap").read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        (newest / "store.snap").write_bytes(bytes(blob))
        manifest = json.loads((newest / "manifest.json").read_text())
        manifest["store_crc32"] = zlib.crc32(bytes(blob))
        (newest / "manifest.json").write_text(json.dumps(manifest))

        assert manager.load_latest().applied_seq == 1

    def test_table_crc_mismatch_invalidates(self, tmp_path, engine):
        manager = CheckpointManager(tmp_path)
        newest = save_checkpoint(manager, engine, applied_seq=2)
        (newest / "table.json").write_bytes(b"{}")
        assert manager.load_latest() is None

    def test_format_version_skew_invalidates(self, tmp_path, engine):
        manager = CheckpointManager(tmp_path)
        newest = save_checkpoint(manager, engine, applied_seq=2)
        manifest = json.loads((newest / "manifest.json").read_text())
        assert manifest["format_version"] == CHECKPOINT_FORMAT_VERSION
        manifest["format_version"] = CHECKPOINT_FORMAT_VERSION + 1
        (newest / "manifest.json").write_text(json.dumps(manifest))
        assert manager.load_latest() is None

    def test_unreadable_manifest_invalidates(self, tmp_path, engine):
        manager = CheckpointManager(tmp_path)
        newest = save_checkpoint(manager, engine, applied_seq=2)
        (newest / "manifest.json").write_text("not json{")
        assert manager.load_latest() is None

    def test_missing_store_file_invalidates(self, tmp_path, engine):
        manager = CheckpointManager(tmp_path)
        newest = save_checkpoint(manager, engine, applied_seq=2)
        (newest / "store.snap").unlink()
        assert manager.load_latest() is None

    def test_tmp_leftovers_ignored_and_swept(self, tmp_path, engine):
        manager = CheckpointManager(tmp_path)
        save_checkpoint(manager, engine, applied_seq=1)
        leftover = manager.directory / ".tmp-ckpt-000000000009"
        leftover.mkdir()
        (leftover / "store.snap").write_text("half-written")

        assert manager.load_latest().applied_seq == 1
        save_checkpoint(manager, engine, applied_seq=2)
        assert not leftover.exists()


class TestCheckpointFailpoint:
    def test_save_fault_leaves_previous_checkpoint_authoritative(
        self, tmp_path, engine
    ):
        manager = CheckpointManager(tmp_path)
        save_checkpoint(manager, engine, applied_seq=1)
        faults.FAILPOINTS.configure(["checkpoint.save:times=1"])
        with pytest.raises(faults.InjectedFault):
            save_checkpoint(manager, engine, applied_seq=2)

        assert manager.load_latest().applied_seq == 1
        # The interrupted save left no tmp directory behind (raise mode
        # cleans up; kill mode leaves one that loading ignores anyway).
        assert [p.name for p in manager.list_checkpoints()] == ["ckpt-000000000001"]
        # The failpoint is exhausted; the next save succeeds.
        save_checkpoint(manager, engine, applied_seq=2)
        assert manager.load_latest().applied_seq == 2


class TestAppendTableHelper:
    def test_fixture_schema_matches_engine(self, engine):
        batch = append_table([("East", "Winter", 55.0)])
        assert [c.name for c in batch.columns] == [
            c.name for c in engine.table.columns
        ]
