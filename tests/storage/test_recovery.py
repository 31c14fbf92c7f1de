"""Startup recovery parity and the runtime durability coordinator."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.api import ServingConfig
from repro.reliability import faults
from repro.serving import VoiceService
from repro.storage.checkpoint import CHECKPOINT_FORMAT_VERSION, CheckpointManager
from repro.storage.durability import JournalWriter, read_journal
from repro.storage.recovery import (
    JOURNAL_NAME,
    DurabilityCoordinator,
    recover_state,
)
from repro.system.persistence import canonical_store_payload, store_from_payload
from repro.system.updates import IncrementalMaintainer

from tests.serving.conftest import append_table, make_engine


def live_run(engine, data_dir, groups, dropped=()):
    """Simulate the scheduler's serialized jobs with a journal.

    Each entry in ``groups`` is a list of batches one maintenance job
    coalesced; the journal gets one ``append`` record per batch (the
    ack boundary) and one ``applied`` marker per job, exactly as
    :class:`MaintenanceScheduler` writes them.  ``dropped`` batches are
    journalled and then marked dropped (retries exhausted) without
    being maintained.  Returns the live store/table the uninterrupted
    process ended with.
    """
    writer = JournalWriter(data_dir / JOURNAL_NAME)
    store = engine.store.clone()
    maintainer = IncrementalMaintainer(
        engine.config,
        engine.table,
        summarizer=engine.summarizer,
        realizer=engine.realizer,
    )
    version = 0
    for group in groups:
        seqs, batch = [], None
        for rows in group:
            seqs.append(writer.log_append(rows))
            batch = rows if batch is None else batch.concat(rows)
        maintainer.maintain(batch, store)
        version += 1
        writer.mark_applied(seqs, snapshot_version=version)
    for rows in dropped:
        seq = writer.log_append(rows)
        writer.mark_dropped([seq])
    writer.close()
    return store, maintainer.table


def recover(engine, data_dir, **kwargs):
    return recover_state(
        data_dir,
        engine.config,
        base_store=engine.store,
        base_table=engine.table,
        summarizer=engine.summarizer,
        realizer=engine.realizer,
        **kwargs,
    )


BATCH_A = [("East", "Winter", 55.0), ("North", "Summer", 44.0)]
BATCH_B = [("East", "Winter", 5.0), ("West", "Fall", 30.0)]
BATCH_C = [("South", "Spring", 12.0)]


class TestRecoverState:
    def test_empty_data_dir_recovers_base(self, tmp_path, engine):
        recovered = recover(engine, tmp_path)
        assert recovered.replayed_seqs == ()
        assert recovered.next_seq == 1
        assert recovered.checkpoint is None
        assert canonical_store_payload(recovered.store) == canonical_store_payload(
            engine.store
        )
        # The base store was cloned, not adopted.
        assert recovered.store is not engine.store

    def test_journal_replay_matches_live_run(self, tmp_path, engine):
        live_store, live_table = live_run(
            engine,
            tmp_path,
            groups=[[append_table(BATCH_A)], [append_table(BATCH_B)]],
        )
        recovered = recover(engine, tmp_path)
        assert recovered.replayed_seqs == (1, 2)
        assert canonical_store_payload(recovered.store) == canonical_store_payload(
            live_store
        )
        assert recovered.table.num_rows == live_table.num_rows

    def test_replay_reproduces_job_grouping(self, tmp_path, engine):
        # One job coalesced two batches: replaying them as two passes
        # would diverge, so the applied marker's grouping must be used.
        live_store, _ = live_run(
            engine,
            tmp_path,
            groups=[[append_table(BATCH_A), append_table(BATCH_B)]],
        )
        recovered = recover(engine, tmp_path)
        assert recovered.replayed_seqs == (1, 2)
        assert canonical_store_payload(recovered.store) == canonical_store_payload(
            live_store
        )

    def test_unapplied_suffix_replayed_as_one_coalesced_pass(self, tmp_path, engine):
        writer = JournalWriter(tmp_path / JOURNAL_NAME)
        writer.log_append(append_table(BATCH_A))
        writer.log_append(append_table(BATCH_B))
        writer.close()
        # What a restarted scheduler would do with both batches pending:
        # one job over their concatenation.
        expected = engine.store.clone()
        maintainer = IncrementalMaintainer(
            engine.config,
            engine.table,
            summarizer=engine.summarizer,
            realizer=engine.realizer,
        )
        maintainer.maintain(
            append_table(BATCH_A).concat(append_table(BATCH_B)), expected
        )

        recovered = recover(engine, tmp_path)
        assert recovered.replayed_seqs == (1, 2)
        assert canonical_store_payload(recovered.store) == canonical_store_payload(
            expected
        )

    def test_dropped_seqs_never_replayed(self, tmp_path, engine):
        live_store, _ = live_run(
            engine,
            tmp_path,
            groups=[[append_table(BATCH_A)]],
            dropped=[append_table(BATCH_B)],
        )
        recovered = recover(engine, tmp_path)
        assert recovered.replayed_seqs == (1,)
        assert recovered.dropped_seqs == frozenset({2})
        assert canonical_store_payload(recovered.store) == canonical_store_payload(
            live_store
        )

    def test_checkpoint_skips_covered_prefix(self, tmp_path, engine):
        live_store, live_table = live_run(
            engine,
            tmp_path,
            groups=[[append_table(BATCH_A)], [append_table(BATCH_B)]],
        )
        # Checkpoint covering seq 1 only: recovery must replay seq 2.
        partial_store, partial_table = live_run(
            engine, tmp_path / "partial", groups=[[append_table(BATCH_A)]]
        )
        CheckpointManager(tmp_path).save(
            partial_store,
            partial_table,
            applied_seq=1,
            store_version=1,
            journal_offset=0,
        )
        recovered = recover(engine, tmp_path)
        assert recovered.checkpoint is not None
        assert recovered.replayed_seqs == (2,)
        assert canonical_store_payload(recovered.store) == canonical_store_payload(
            live_store
        )

    def test_verify_paths_agree(self, tmp_path, engine):
        live_store, live_table = live_run(
            engine,
            tmp_path,
            groups=[[append_table(BATCH_A)], [append_table(BATCH_B)]],
        )
        CheckpointManager(tmp_path).save(
            live_store,
            live_table,
            applied_seq=2,
            store_version=2,
            journal_offset=0,
        )
        via_checkpoint = recover(engine, tmp_path)
        via_journal = recover(engine, tmp_path, use_checkpoint=False)
        assert via_checkpoint.replayed_seqs == ()
        assert via_journal.replayed_seqs == (1, 2)
        assert canonical_store_payload(
            via_checkpoint.store
        ) == canonical_store_payload(via_journal.store)

    def test_torn_tail_recovers_good_prefix(self, tmp_path, engine):
        live_run(engine, tmp_path, groups=[[append_table(BATCH_A)]])
        partial, _ = live_run(
            engine, tmp_path / "oracle", groups=[[append_table(BATCH_A)]]
        )
        path = tmp_path / JOURNAL_NAME
        good = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b"\x00\x00\x00\x10torn")

        recovered = recover(engine, tmp_path)
        assert recovered.scan.truncated
        assert recovered.journal_offset == good
        assert recovered.replayed_seqs == (1,)
        assert canonical_store_payload(recovered.store) == canonical_store_payload(
            partial
        )

    def test_recover_replay_failpoint_fires_per_record(self, tmp_path, engine):
        live_run(engine, tmp_path, groups=[[append_table(BATCH_A)]])
        faults.FAILPOINTS.configure(["recover.replay:times=1"])
        with pytest.raises(faults.InjectedFault):
            recover(engine, tmp_path)


#: A data directory written by a live service before checkpoints froze
#: ``store.snap``: it applied BATCH_A, BATCH_B and BATCH_C as one job
#: each with ``checkpoint_every_swaps=2`` and was copied mid-run, so it
#: holds a format-1 JSON checkpoint at seq 2 and a journal through seq 3.
FORMAT_1_DATA_DIR = Path(__file__).parent / "data" / "data_dir_format_v1"


class TestFormatOneDataDirectory:
    def copy(self, tmp_path):
        data_dir = tmp_path / "data"
        shutil.copytree(FORMAT_1_DATA_DIR, data_dir)
        return data_dir

    def uninterrupted(self, tmp_path, engine):
        groups = [[append_table(rows)] for rows in (BATCH_A, BATCH_B, BATCH_C)]
        reference_dir = tmp_path / "reference"
        reference_dir.mkdir()
        store, _ = live_run(engine, reference_dir, groups)
        return canonical_store_payload(store)

    def test_old_checkpoint_skipped_and_journal_replayed(self, tmp_path, engine):
        data_dir = self.copy(tmp_path)
        recovered = recover(engine, data_dir)
        assert recovered.checkpoint is None
        assert recovered.replayed_seqs == (1, 2, 3)
        assert canonical_store_payload(recovered.store) == self.uninterrupted(
            tmp_path, engine
        )

    def test_service_converts_directory_with_snap_checkpoint(
        self, tmp_path, engine, example_table
    ):
        data_dir = self.copy(tmp_path)
        expected = self.uninterrupted(tmp_path, engine)
        service = VoiceService(
            make_engine(example_table), ServingConfig(data_dir=str(data_dir))
        )
        service.durability.close()
        assert canonical_store_payload(service.engine.store) == expected

        newest = CheckpointManager(data_dir).list_checkpoints()[-1]
        assert newest.name == "ckpt-000000000003"
        assert (newest / "store.snap").exists()
        assert not (newest / "store.json").exists()
        manifest = json.loads((newest / "manifest.json").read_text())
        assert manifest["format_version"] == CHECKPOINT_FORMAT_VERSION

        # The next start loads the converted checkpoint and replays nothing.
        again = recover(make_engine(example_table), data_dir)
        assert again.checkpoint is not None
        assert again.checkpoint.path == newest
        assert again.replayed_seqs == ()
        assert canonical_store_payload(again.store) == expected


class TestCanonicalPayloadParity:
    def test_round_trip_is_byte_identical(self, engine):
        payload = canonical_store_payload(engine.store)
        rebuilt, _ = store_from_payload(payload)
        assert canonical_store_payload(rebuilt) == payload

    def test_round_trip_matches_clone_answers(self, engine):
        rebuilt, _ = store_from_payload(canonical_store_payload(engine.store))
        clone = engine.store.clone()
        assert canonical_store_payload(rebuilt) == canonical_store_payload(clone)
        for stored in list(clone)[:5]:
            match = rebuilt.best_match(stored.query)
            assert match is not None and match.exact
            assert match.stored.text == stored.text


class TestDurabilityCoordinator:
    def make(self, tmp_path, **kwargs):
        return DurabilityCoordinator(tmp_path, **kwargs)

    def test_log_append_returns_monotonic_seqs(self, tmp_path):
        coordinator = self.make(tmp_path)
        assert coordinator.log_append(append_table(BATCH_A)) == 1
        assert coordinator.log_append(append_table(BATCH_B)) == 2
        coordinator.close()
        scan = read_journal(tmp_path / JOURNAL_NAME)
        assert scan.next_seq == 3

    def test_policy_checkpoint_after_n_swaps(self, tmp_path, engine):
        coordinator = self.make(tmp_path, checkpoint_every_swaps=2)
        for version in (1, 2):
            seq = coordinator.log_append(append_table(BATCH_A))
            coordinator.commit_applied(
                [seq], engine.store, engine.table, store_version=version
            )
        stats = coordinator.stats()
        assert stats["checkpoints_written"] == 1
        assert stats["last_checkpoint_seq"] == 2
        assert CheckpointManager(tmp_path).load_latest().applied_seq == 2
        coordinator.close()

    def test_policy_checkpoint_after_journal_bytes(self, tmp_path, engine):
        coordinator = self.make(
            tmp_path, checkpoint_every_swaps=1000, checkpoint_every_bytes=1
        )
        seq = coordinator.log_append(append_table(BATCH_A))
        coordinator.commit_applied([seq], engine.store, engine.table, store_version=1)
        assert coordinator.stats()["checkpoints_written"] == 1
        coordinator.close()

    def test_checkpoint_failure_is_isolated_and_surfaced(self, tmp_path, engine):
        coordinator = self.make(tmp_path, checkpoint_every_swaps=1)
        faults.FAILPOINTS.configure(["checkpoint.save:times=1"])
        seq = coordinator.log_append(append_table(BATCH_A))
        # Must not raise into the swap path.
        coordinator.commit_applied([seq], engine.store, engine.table, store_version=1)
        assert coordinator.checkpoint_failures == 1
        assert "InjectedFault" in coordinator.last_checkpoint_error
        # The journal still covers the batch.
        scan = read_journal(tmp_path / JOURNAL_NAME)
        assert scan.applied_seqs() == frozenset({1})
        # The next swap checkpoints cleanly and clears the error.
        seq = coordinator.log_append(append_table(BATCH_B))
        coordinator.commit_applied([seq], engine.store, engine.table, store_version=2)
        assert coordinator.last_checkpoint_error is None
        assert coordinator.stats()["checkpoints_written"] == 1
        coordinator.close()

    def test_mark_dropped_advances_watermark(self, tmp_path):
        coordinator = self.make(tmp_path)
        seq = coordinator.log_append(append_table(BATCH_A))
        coordinator.mark_dropped([seq])
        assert coordinator.stats()["applied_seq"] == seq
        coordinator.close()

    def test_resumes_past_torn_tail(self, tmp_path, engine):
        writer = JournalWriter(tmp_path / JOURNAL_NAME)
        writer.log_append(append_table(BATCH_A))
        writer.close()
        with open(tmp_path / JOURNAL_NAME, "ab") as handle:
            handle.write(b"torn-tail-garbage")
        recovered = recover(engine, tmp_path)
        coordinator = self.make(
            tmp_path,
            next_seq=recovered.next_seq,
            truncate_at=recovered.journal_offset,
        )
        assert coordinator.log_append(append_table(BATCH_B)) == 2
        coordinator.close()
        scan = read_journal(tmp_path / JOURNAL_NAME)
        assert not scan.truncated
        assert [entry.record["seq"] for entry in scan.records] == [1, 2]

    def test_rejects_invalid_policy(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every_swaps"):
            self.make(tmp_path, checkpoint_every_swaps=0)
        with pytest.raises(ValueError, match="checkpoint_every_bytes"):
            self.make(tmp_path, checkpoint_every_bytes=0)
