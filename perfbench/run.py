#!/usr/bin/env python3
"""Fixy pipeline benchmark: the §8 applications, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload lyft-audit --seed 0 --seconds 20 --trace 0

It drives the program only through its public entry points
(``jobs._common.get_spark``, ``repro.eval.harness.prepare`` and the
``run_*`` functions), checks every application's metric dict against the
goldens in ``perfbench/goldens`` and prints one JSON object as its last
line: ``{"correct", "attempted", "failed", "metrics"}``.

Workloads (see ``workloads.WORKLOADS``):

- ``lyft-audit``: one cold process; Lyft at scale 0.04 (2 eval scenes),
  ``prepare``, then Table 3, §8.3 and §8.4 on that prepared dataset.
- ``scene-stream``: one warm session, a closed loop with a single
  client; batch ``i`` is 2 Lyft scenes (scale 0.04) generated with seed
  ``seed + i`` and goes through ``prepare`` and Table 3. Batch 0 is
  untimed warm-up; timed batches run until ``--seconds`` have passed
  (at least one).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (start of this
script until ``get_spark`` returns), ``pipeline_s`` (one pass:
``prepare`` plus the applications; the median batch on the stream),
``cpu_s`` (user + system CPU of this process, the JVM and the Python
workers over that pass), ``mem_p90_mb`` (90th percentile, over the
timed passes, of 0.1 s samples of the summed RSS of the Python processes
of that tree plus the JVM's heap in use; the JVM's own RSS would mostly
show how far its heap has grown, and the maximum sample follows GC and
worker timing more than the program) and
``ok_frac`` (share of application calls, warm-up included, that neither
raised nor returned a result different from its golden; a call whose
seed has no golden is unchecked and reported with a digest).

``--trace 1`` runs the pass with tracing: the Spark event log on, a job
group per span, spans around the calls into each layer and around every
``toPandas``/``collect``/``count``, and afterwards isolated layer probes
(a public function on a cached input, written to the ``noop`` sink). It
reports the per-layer metrics and the tracing overhead: traced minus
untraced ``pipeline_s``, the untraced pass run in a child process for
an audit and, for the stream, on the same batches before tracing starts.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import session  # noqa: E402
import workloads  # noqa: E402
from measure import MemSampler, ProcTree  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "cpu_s": "s",
    "mem_p90_mb": "MiB",
    "ok_frac": "frac",
}


def mem_p90(sample_lists) -> float:
    """90th percentile of the summed memory samples of several passes."""
    return statistics.quantiles([r + h for mem in sample_lists for r, h in mem], n=10)[-1]


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


@dataclass
class PassResult:
    seed: int
    wall_s: float
    cpu_s: float
    #: (Python processes' RSS, JVM heap in use) samples, MiB.
    mem: list[tuple[float, float]]
    app_s: dict[str, float]
    results: dict[str, dict] = field(default_factory=dict)
    errors: dict[str, list[str]] = field(default_factory=dict)
    #: Applications whose seed has no golden.
    unchecked: list[str] = field(default_factory=list)
    prep: object = None


class Runner:
    """Runs passes of one workload on one session, optionally traced."""

    def __init__(self, spark, wl: workloads.Workload, goldens: dict):
        self.spark = spark
        self.wl = wl
        self.goldens = goldens
        #: The tracing ``Instrumentation`` of a traced run, else None.
        self.inst = None
        self.tree = ProcTree(os.getpid())
        # The JVM's RSS mostly shows how far its heap has grown, which
        # follows GC timing; the heap in use is sampled from the JVM instead.
        self.sampler = MemSampler(self.tree, exclude=frozenset({"java"}))
        self.apps = list(wl.apps)
        #: Every pass run, warm-up included; all are checked.
        self.checked: list[PassResult] = []

    def span(self, name: str):
        return self.inst.tracer.span(name) if self.inst else nullcontext()

    def run_pass(self, seed: int, span_name: str = "pass") -> PassResult:
        """``prepare`` and the applications on the dataset of ``seed``."""
        from repro.eval import harness

        app_s: dict[str, float] = {}
        results: dict[str, dict] = {}
        errors: dict[str, list[str]] = {}
        prep = None
        self.sampler.start(extra=session.heap_used_reader(self.spark))
        c0 = self.tree.cpu_s()
        t0 = time.perf_counter()
        with self.span(span_name), workloads.seeded(self.wl.dataset, seed):
            t = time.perf_counter()
            try:
                with self.span("harness.prepare"):
                    prep = harness.prepare(self.spark, self.wl.dataset, self.wl.scale)
            except Exception:  # the pass goes on; every application fails
                errors["prepare"] = [traceback.format_exc()]
            app_s["prepare"] = time.perf_counter() - t
            for app in self.apps:
                t = time.perf_counter()
                if prep is None:
                    errors[app] = ["prepare failed"]
                    continue
                try:
                    with self.span(f"harness.{app}"):
                        results[app] = workloads.call_app(app, self.spark, prep, self.wl.dataset)
                except Exception:  # counted as a failed call
                    errors[app] = [traceback.format_exc()]
                app_s[app] = time.perf_counter() - t
        wall = time.perf_counter() - t0
        cpu = self.tree.cpu_s() - c0
        mem = self.sampler.stop()
        log(f"seed {seed}: pass {wall:.2f} s, cpu {cpu:.1f} s, python rss + jvm heap: "
            f"p90 {mem_p90([mem]):.0f} MiB, max {max(r + h for r, h in mem):.0f} MiB")
        unchecked = []
        for app, r in results.items():
            r = results[app] = workloads.normalize(r)
            errs = workloads.check(app, r, seed, self.goldens)
            if errs is None:
                unchecked.append(app)
            elif errs:
                errors[app] = errs
        if unchecked:
            log(f"seed {seed}: no golden for {unchecked}; results digest {workloads.digest(results)}")
        for app, errs in errors.items():
            log(f"seed {seed} {app} FAILED: " + "; ".join(e.strip().splitlines()[-1] for e in errs))
        result = PassResult(seed, wall, cpu, mem, app_s, results, errors, unchecked, prep)
        self.checked.append(result)
        return result

    def timed(self, seed: int, seconds: float) -> list[PassResult]:
        """One pass for an audit; for the stream, batches with seeds
        ``seed``, ``seed + 1``, ... until ``seconds`` have passed."""
        if not self.wl.stream:
            return [self.run_pass(seed)]
        passes: list[PassResult] = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(self.run_pass(seed + len(passes)))
        return passes


def untraced_child_pipeline_s(args) -> float:
    """``pipeline_s`` of an untraced run of the same workload and seed,
    in a fresh process: the reference for a traced cold pass."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    sys.stderr.write(proc.stdout)
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["pipeline_s"]["value"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="length of the stream's timed loop; an audit times one pass")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not session.sources_present():
        log(f"program sources not found under {session.ROOT}; run from a full checkout")
        return 2
    wl = workloads.WORKLOADS[args.workload]
    goldens = workloads.load_goldens(wl.dataset, wl.scale)

    # The traced run's reference is an untraced pass in the same state:
    # a fresh process for a cold audit; for the warm stream, the same
    # batches on a restarted session of this JVM before the event log is
    # switched on (each measured batch then follows a restart).
    untraced = untraced_child_pipeline_s(args) if args.trace and not wl.stream else None
    work = session.BUILD_DIR / f"run-{os.getpid()}"
    event_log = work / "eventlog" if args.trace else None
    session.configure(work, None if wl.stream else event_log)
    name = f"perfbench-{wl.name}"
    layer = spark = None
    try:
        spark = session.get_spark(name)
        setup_s = time.perf_counter() - T0
        env = session.environment(spark)
        runner = Runner(spark, wl, goldens)
        first = args.seed
        if wl.stream:
            runner.run_pass(first, span_name="warmup")
            first += 1
            if args.trace:
                spark = runner.spark = session.restart(spark, name, None)
                untraced = statistics.median(p.wall_s for p in runner.timed(first, args.seconds))
                spark = runner.spark = session.restart(spark, name, event_log)
        if args.trace:
            from tracing import Instrumentation

            runner.inst = Instrumentation(spark)
            runner.inst.install()
            try:
                passes = runner.timed(first, args.seconds)
            finally:
                runner.inst.uninstall()
            layer = runner.inst.report(runner, passes, untraced)
        else:
            passes = runner.timed(first, args.seconds)
        session.stop(spark)
        spark = None
        if args.trace:
            layer.update(runner.inst.attribute(event_log))
    finally:
        if spark is not None:
            session.stop(spark)
        shutil.rmtree(work, ignore_errors=True)

    checked = runner.checked
    attempted = len(checked) * len(runner.apps)
    failed = sum(a in p.errors for p in checked for a in runner.apps)
    end_to_end = {
        "setup_s": setup_s,
        "pipeline_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "mem_p90_mb": mem_p90(p.mem for p in passes),
        "ok_frac": (attempted - failed) / attempted,
    }
    results = {str(p.seed): p.results for p in checked}
    record = {
        "workload": wl.name, "seed": args.seed, "scale": wl.scale, "trace": args.trace,
        "environment": env, "timed_passes": len(passes),
        "pass_s": [p.wall_s for p in passes], "app_s": [p.app_s for p in passes],
        "end_to_end": end_to_end,
        "per_layer": layer, "results": results, "digest": workloads.digest(results),
        "errors": {str(p.seed): p.errors for p in checked if p.errors},
        "unchecked": {str(p.seed): p.unchecked for p in checked if p.unchecked},
    }
    out_dir = session.BUILD_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(f"environment {json.dumps(env)}")
    print(f"results digest {record['digest']} over {len(passes)} timed pass(es); "
          f"pass_s {[round(x, 3) for x in record['pass_s']]}")
    if args.trace:
        from tracing import PER_LAYER

        units = {k: unit for k, (unit, _) in PER_LAYER.items()}
        values = layer
    else:
        units, values = END_TO_END_UNITS, end_to_end
    for k, v in values.items():
        print(f"  {k:32s} {v:.6g} {units.get(k, '')}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
