"""Publishing frozen snapshots into a versioned directory.

The serving stack's unit of store exchange is a *published snapshot*:
``store-v{version}.snap`` files in one directory, one per swap
generation.  The :class:`SnapshotPublisher` is the single owner of that
naming scheme:

* a deployment starts with :meth:`~SnapshotPublisher.publish_base`
  (the router before spawning shards, or a stand-alone service), which
  freezes the base store as version 0 into an emptied directory;
* every shard's registry refreezes the maintained store on swap —
  freezing is deterministic and publishing is skip-if-present, so N
  shards publishing the same version is idempotent (identical bytes,
  atomic rename);
* a (re)spawned shard attaches the *newest* version present and only
  replays the append-log suffix past it.

Publishing never takes the serving path down: a failed freeze is
recorded on ``last_error`` and the previous snapshot keeps serving, and
``attach_latest`` falls back version by version past corrupt files.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Any

from repro.store.columnar import CompactSpeechStore
from repro.store.errors import SnapshotError
from repro.store.format import attach, freeze

_SNAPSHOT_NAME = re.compile(r"^store-v(\d{12})\.snap$")


def snapshot_filename(version: int) -> str:
    """Canonical file name for one snapshot version."""
    return f"store-v{version:012d}.snap"


class SnapshotPublisher:
    """Owns one snapshot directory: freeze in, attach out, prune old."""

    def __init__(self, directory: str | Path, keep: int = 4):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = max(1, int(keep))
        #: Last publish/attach failure, for observability (never raised
        #: into the serving path).
        self.last_error: str | None = None
        self.published = 0

    def path_for(self, version: int) -> Path:
        return self.directory / snapshot_filename(version)

    def versions(self) -> list[int]:
        """Snapshot versions present, ascending."""
        found = []
        for entry in self.directory.iterdir():
            match = _SNAPSHOT_NAME.match(entry.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def publish_base(self, store: Any) -> Path | None:
        """Start a deployment: delete every snapshot, freeze ``store`` as v0.

        Snapshots a previous deployment left behind would otherwise be
        attached by shards (the newest wins) or shadow this deployment's
        versions (publishing skips files that already exist).
        """
        for version in self.versions():
            self.path_for(version).unlink(missing_ok=True)
        return self.publish(store, 0)

    def publish(self, store: Any, version: int) -> Path | None:
        """Freeze ``store`` as ``version``; None when the freeze failed.

        Re-publishing an existing version is a no-op: freezing is
        deterministic, so the file on disk already holds these bytes.
        """
        path = self.path_for(version)
        if path.exists():
            return path
        try:
            freeze(store, path, snapshot_version=version)
        except Exception as exc:  # freeze must never sink the server
            self.last_error = f"publish v{version}: {exc}"
            return None
        self.published += 1
        self._prune()
        return path

    def attach_latest(self) -> CompactSpeechStore | None:
        """Attach the newest intact snapshot; None when none attaches.

        Corrupt or torn files are skipped (newest first) rather than
        trusted — the typed attach errors guarantee a damaged snapshot
        is rejected, never mis-read.
        """
        for version in reversed(self.versions()):
            try:
                return attach(self.path_for(version))
            except SnapshotError as exc:
                self.last_error = f"attach v{version}: {exc}"
        return None

    def _prune(self) -> None:
        versions = self.versions()
        for version in versions[: -self.keep]:
            try:
                self.path_for(version).unlink(missing_ok=True)
            except OSError:
                pass
