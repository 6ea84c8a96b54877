#!/usr/bin/env python3
"""Record goldens: a workload's metric dicts for a range of seeds.

Run from the repository root on the commit whose outputs are the
reference::

    python3 perfbench/record_goldens.py --workload lyft-audit --seeds 0 35

One warm session runs ``prepare`` and the workload's applications for
every seed and adds the results to ``perfbench/goldens/<dataset>-<scale>.json``,
keeping the seeds already recorded there. Both workloads read that file,
so recording ``lyft-audit`` (a superset of the stream's applications)
covers the stream's batch seeds too. Untimed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import session  # noqa: E402
import workloads  # noqa: E402
from run import Runner  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"), required=True)
    args = p.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    work = session.BUILD_DIR / f"goldens-{os.getpid()}"
    session.configure(work)
    seeds: dict[str, dict] = {}
    try:
        spark = session.get_spark(f"perfbench-goldens-{wl.name}")
        runner = Runner(spark, wl, goldens={})
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            r = runner.run_pass(seed)
            if r.errors:
                print(f"seed {seed}: {sorted(r.errors)} failed; not recorded", file=sys.stderr)
                return 1
            seeds[str(seed)] = r.results
            print(f"seed {seed}: {workloads.digest(r.results)}", flush=True)
        session.stop(spark)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = workloads.golden_path(wl.dataset, wl.scale)
    doc = json.loads(path.read_text()) if path.is_file() else {"dataset": wl.dataset, "scale": wl.scale, "seeds": {}}
    for seed, results in seeds.items():
        doc["seeds"].setdefault(seed, {}).update(results)
    doc["seeds"] = dict(sorted(doc["seeds"].items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
