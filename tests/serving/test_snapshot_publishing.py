"""Snapshot publishing and mmap-attach at the service level.

Three contracts wire :mod:`repro.store` into the serving tier:

* a service given ``snapshot_dir`` clears the snapshots a previous
  deployment left there, freezes the base store as version 0 at
  construction and refreezes after every maintenance swap;
* a service whose engine holds an mmap-attached snapshot (how a shard
  starts) seeds the registry version from the snapshot's version (the
  barrier shards are polled on) and publishes nothing at construction;
* both sides meet byte-for-byte: the attached store answers and
  digests identically to the store that was frozen.
"""

from __future__ import annotations

import asyncio
import hashlib

from repro.api import ServingConfig
from repro.serving import VoiceService
from repro.store import CompactSpeechStore, SnapshotPublisher
from repro.system.persistence import canonical_store_payload
from repro.system.speech_store import SpeechStore

from tests.serving.conftest import append_table, make_engine

APPEND_ROWS = [("East", "Winter", 55.0), ("North", "Summer", 44.0)]


def digest_of(store) -> str:
    return hashlib.sha256(canonical_store_payload(store)).hexdigest()


def attached_engine(example_table, snapshot_dir):
    engine = make_engine(example_table)
    engine.swap_store(SnapshotPublisher(snapshot_dir).attach_latest())
    return engine


class TestPublishOnSwap:
    def test_base_and_swap_versions_published(self, engine, tmp_path):
        config = ServingConfig(concurrency=2, snapshot_dir=str(tmp_path))

        async def run():
            async with VoiceService(engine, config) as service:
                assert service.publisher is not None
                assert service.publisher.versions() == [0]
                service.request_append(append_table(APPEND_ROWS))
                await service.scheduler.quiesce()
                return service.store_digest()["digest"]

        digest = asyncio.run(run())
        publisher = SnapshotPublisher(tmp_path)
        assert publisher.versions() == [0, 1]
        attached = publisher.attach_latest()
        assert attached.snapshot_version == 1
        assert digest_of(attached) == digest

    def test_new_deployment_clears_stale_snapshots(self, engine, tmp_path):
        # A previous deployment's newer snapshot must not survive into
        # this one, where an attaching shard would pick it up.
        SnapshotPublisher(tmp_path).publish(SpeechStore(), 5)
        service = VoiceService(engine, snapshot_dir=str(tmp_path))
        assert service.publisher.versions() == [0]
        assert digest_of(service.publisher.attach_latest()) == digest_of(engine.store)


class TestAttachedStore:
    def test_service_starts_at_attached_version(self, engine, example_table, tmp_path):
        publish_config = ServingConfig(concurrency=2, snapshot_dir=str(tmp_path))

        async def publish():
            async with VoiceService(engine, publish_config) as service:
                service.request_append(append_table(APPEND_ROWS))
                await service.scheduler.quiesce()
                return service.store_digest()["digest"]

        digest = asyncio.run(publish())

        attached_service = VoiceService(
            attached_engine(example_table, tmp_path), publish_config
        )
        # The service serves the frozen store as is; the registry
        # starts at the frozen version and nothing was republished.
        assert isinstance(attached_service.engine.store, CompactSpeechStore)
        assert attached_service.registry.current.version == 1
        assert attached_service.store_digest()["digest"] == digest
        assert attached_service.publisher.versions() == [0, 1]

    def test_attached_service_still_maintains(self, engine, example_table, tmp_path):
        config = ServingConfig(concurrency=2, snapshot_dir=str(tmp_path))

        async def run():
            # Publish v0 from the first service, then run a service on
            # the attached v0 through an append: the maintained store
            # must build on the thawed snapshot and refreeze as v1.
            async with VoiceService(engine, config):
                pass
            service = VoiceService(attached_engine(example_table, tmp_path), config)
            async with service:
                service.request_append(append_table(APPEND_ROWS))
                await service.scheduler.quiesce()
                assert service.registry.current.version == 1
                return service.publisher.versions()

        assert asyncio.run(run()) == [0, 1]
