"""Reproduce Table 3: precision@{10,5,1} for finding missing tracks,
Fixy vs ad-hoc MA (rand) vs ad-hoc MA (conf), on both datasets.

Usage: spark-submit jobs/table3.py [scale]
"""
import sys

sys.path.insert(0, ".")
from jobs._common import emit, get_spark  # noqa: E402

from repro.eval.harness import prepare, run_missing_tracks_prepared  # noqa: E402


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    spark = get_spark("table3")
    for name in ("lyft", "internal"):
        prep = prepare(spark, name, scale)
        emit(f"Table 3 — {name}", run_missing_tracks_prepared(spark, prep, name))


if __name__ == "__main__":
    main()
