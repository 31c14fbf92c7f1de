"""Set-up: build and start one workload's deployment from its source data.

Set-up is what an operator waits for before the service can answer:
generating the dataset, pre-processing every query up to
``max_query_length`` into a stored speech, constructing the service
(with its journal and snapshot directories where the workload uses
them) and starting it, plus the HTTP front-end for ``hot_hits``.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.api import InProcessClient, ServingConfig, VoiceHttpServer
from repro.datasets import load_dataset
from repro.serving import VoiceService
from repro.system.config import SummarizationConfig
from repro.system.engine import VoiceQueryEngine
from repro.system.updates import IncrementalMaintainer


@dataclass(frozen=True)
class DeploymentSpec:
    """What one workload serves."""

    dataset: str
    rows: int
    targets: tuple[str, ...] | None
    max_fact_dimensions: int
    advanced: bool
    http: bool
    durable: bool
    held_out_rows: int = 0


#: flights keeps the paper's single target (cancellation) and one extra
#: fact dimension, so one set-up takes about a second and a run can
#: repeat it; acs keeps every target and serves its default 900 rows,
#: with 600 more generated to be appended while serving.
SPECS = {
    "hot_hits": DeploymentSpec("flights", 1000, ("cancellation",), 1, False, True, False),
    "cold_misses": DeploymentSpec("flights", 1000, ("cancellation",), 1, True, False, False),
    "appends": DeploymentSpec("acs", 1500, None, 2, False, False, True, held_out_rows=600),
}

#: Summarization algorithm of every deployment: the greedy approach.
ALGORITHM = "G-B"
#: Predicates per pre-processed query.
MAX_QUERY_LENGTH = 2


@dataclass
class Deployment:
    """A started deployment and what the load generator needs from it."""

    spec: DeploymentSpec
    engine: VoiceQueryEngine
    service: VoiceService
    client: InProcessClient
    server: VoiceHttpServer | None
    held_out: list[dict]
    work_dir: Path | None
    load_seconds: float
    ready_seconds: float

    async def close(self) -> None:
        if self.server is not None:
            await self.server.stop()
        await self.service.stop()
        if self.work_dir is not None:
            shutil.rmtree(self.work_dir, ignore_errors=True)


def summarization_config(spec: DeploymentSpec, dataset) -> SummarizationConfig:
    return SummarizationConfig.create(
        table=dataset.spec.key,
        dimensions=dataset.spec.dimensions,
        targets=spec.targets or dataset.spec.targets,
        max_query_length=MAX_QUERY_LENGTH,
        max_fact_dimensions=spec.max_fact_dimensions,
        algorithm=ALGORITHM,
    )


def split_rows(table, held_out_rows: int):
    """The base table and the last ``held_out_rows`` rows as dicts."""
    base_count = table.num_rows - held_out_rows
    base = table.mask([index < base_count for index in range(table.num_rows)])
    rows = table.to_dicts()[base_count:]
    return base, rows


def build_engine(spec: DeploymentSpec,
                 instrument: Callable[[str, Any], None] | None = None):
    """Generate the data and pre-process it; (engine, held-out rows, load seconds)."""
    started = time.perf_counter()
    dataset = load_dataset(spec.dataset, num_rows=spec.rows)
    load_seconds = time.perf_counter() - started
    base, held_out = split_rows(dataset.table, spec.held_out_rows)
    engine = VoiceQueryEngine(
        summarization_config(spec, dataset), base, enable_advanced_queries=spec.advanced
    )
    if instrument is not None:
        instrument("engine", engine)
    engine.preprocess()
    return engine, held_out, load_seconds


async def deploy(spec: DeploymentSpec, work_root: Path,
                 instrument: Callable[[str, Any], None] | None = None) -> Deployment:
    """Build, start and return a deployment; ``ready_seconds`` times all of it.

    ``instrument(name, obj)`` sees each object as soon as it exists and
    before anything captures its methods (the tracer wraps them there).
    """
    started = time.perf_counter()
    engine, held_out, load_seconds = build_engine(spec, instrument)
    config = ServingConfig()
    work_dir = None
    maintainer = None
    if spec.durable:
        work_dir = Path(tempfile.mkdtemp(prefix="deploy-", dir=work_root))
        config = config.replace(
            data_dir=str(work_dir / "data"), snapshot_dir=str(work_dir / "snapshots")
        )
        maintainer = IncrementalMaintainer(
            engine.config, engine.table,
            summarizer=engine.summarizer, realizer=engine.realizer,
        )
        if instrument is not None:
            instrument("maintainer", maintainer)
    service = VoiceService(engine, config, maintainer=maintainer)
    if instrument is not None:
        instrument("service", service)
    await service.start()
    server = None
    if spec.http:
        server = VoiceHttpServer(service)
        await server.start()
    ready_seconds = time.perf_counter() - started
    return Deployment(
        spec=spec, engine=engine, service=service, client=InProcessClient(service),
        server=server, held_out=held_out, work_dir=work_dir,
        load_seconds=load_seconds, ready_seconds=ready_seconds,
    )
