"""Workloads, seeded inputs and the correctness check.

A workload names a dataset, a scale and the §8 applications run on one
prepared dataset. Its inputs come from ``--seed``: every generator seed
of the dataset config (world, labels, detector, train world, train
labels) is offset by ``SEED_STRIDE * seed`` with ``dataclasses.replace``,
so seed 0 is the paper's configuration. The seeded config reaches
``harness.prepare`` through the program's public ``CONFIGS`` registry.

Every application's metric dict is compared with the golden recorded
for that seed in ``goldens/<dataset>-<scale>.json``, which both
workloads read (a stream batch is the same input as an audit of the same
seed). A call whose seed has no golden is counted as unchecked; the
digest of the results is reported so two commits can be compared on it.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    scale: float
    #: The ``harness.run_*`` applications run on each prepared dataset.
    apps: tuple[str, ...]
    #: One cold pass (False), or a warm closed loop of batches (True).
    stream: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lyft-audit", "lyft", 0.04, ("run_missing_tracks", "run_missing_obs", "run_model_errors")),
        Workload("scene-stream", "lyft", 0.04, ("run_missing_tracks",), stream=True),
    )
}


def call_app(app: str, spark, prep, dataset: str) -> dict:
    from repro.eval import harness

    if app == "run_missing_tracks":
        return harness.run_missing_tracks_prepared(spark, prep, dataset)
    return getattr(harness, app)(spark, prep=prep)


def seeded_config(cfg, seed: int):
    """``cfg`` with every generator seed offset by ``SEED_STRIDE * seed``."""
    off = SEED_STRIDE * seed

    def shift(part):
        return dataclasses.replace(part, seed=part.seed + off)

    return dataclasses.replace(
        cfg,
        world=shift(cfg.world),
        labels=shift(cfg.labels),
        detector=shift(cfg.detector),
        train_world=shift(cfg.train_world),
        train_labels=shift(cfg.train_labels),
    )


@contextmanager
def seeded(dataset: str, seed: int):
    """Register the seeded config under ``dataset`` in ``CONFIGS`` for
    the duration of the block."""
    from repro.perception.datasets import CONFIGS

    original = CONFIGS[dataset]
    CONFIGS[dataset] = lambda scale=1.0: seeded_config(original(scale), seed)
    try:
        yield
    finally:
        CONFIGS[dataset] = original


def normalize(result: dict) -> dict:
    """The JSON form of a metric dict (numpy scalars become floats)."""
    return json.loads(json.dumps(result, default=float))


def digest(results: dict) -> str:
    return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()[:16]


def golden_path(dataset: str, scale: float) -> Path:
    return GOLDEN_DIR / f"{dataset}-{scale:g}.json"


def load_goldens(dataset: str, scale: float) -> dict:
    """``{seed: {app: metric dict}}`` recorded for ``dataset`` at ``scale``."""
    path = golden_path(dataset, scale)
    if not path.is_file():
        return {}
    return {int(k): v for k, v in json.loads(path.read_text())["seeds"].items()}


def check(app: str, result: dict, seed: int, goldens: dict) -> list[str] | None:
    """Reasons ``result`` differs from its golden: empty when equal, None
    when ``seed`` has no golden for ``app`` (the call is unchecked)."""
    golden = goldens.get(seed, {}).get(app)
    if golden is None:
        return None
    if result == golden:
        return []
    diff = {k: (result.get(k), golden.get(k)) for k in set(result) | set(golden) if result.get(k) != golden.get(k)}
    return [f"differs from golden (got, want): {diff}"]
