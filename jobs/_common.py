"""Shared SparkSession construction for the spark-submit entrypoints.

Jobs are thin wrappers over :mod:`repro.eval.harness` functions, which
take a SparkSession and return plain dicts — the same functions the
tests and benchmarks drive.
"""
from __future__ import annotations

import json

from pyspark.sql import SparkSession


def get_spark(app_name: str) -> SparkSession:
    """The one session configuration for jobs, tests and benchmarks.

    64 shuffle partitions and broadcast joins off are kept because the
    recorded results in ``benchmarks/results/`` and the benchmark
    goldens were produced with them; re-tuning them is a measured
    performance change of its own.
    """
    return (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def emit(title: str, result: dict) -> None:
    """Print a result dict as aligned rows plus machine-readable JSON."""
    print(f"== {title} ==")
    for k, v in result.items():
        print(f"  {k:28s} {v}")
    print(json.dumps(result, default=float))
