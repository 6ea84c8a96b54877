"""The traced run: spans around the calls into each layer, patched in
from outside the program, isolated layer probes, and the per-layer
metrics derived from spans, probes and the Spark event log.

Spans are opened by the benchmark around ``prepare`` and the ``run_*``
functions, and by wrappers it installs over the program's public names
for the duration of the run: ``harness.build_dataset``,
``harness.learn_feature_distributions``, ``GaussianKDE.fit`` and
``DataFrame.toPandas``/``collect``/``count``. Each span sets a Spark
job group, so the event log attributes every job to the innermost
span that started it.
"""
from __future__ import annotations

import statistics

import eventlog
import session
from measure import Tracer

ACTION = "spark.action"
KDE_NODE = "ArrowEvalPython"
TRACKER_NODE = "FlatMapGroupsInPandas"
RUN_PY = "time to run Python workers"
START_PY = "time to start Python workers"
INIT_PY = "time to initialize Python workers"
ROWS = "number of output rows"
LOGP_COLS = ("volume_logp", "velocity_logp", "distance_logp")
_MISSING = object()

#: The per-layer metrics a traced run reports: name -> (unit, better).
#: Probe times are one isolated run of the layer's public function;
#: the rest are per timed pass (per batch on the stream).
PER_LAYER = {
    "scoring.kde_python_run_s": ("s", "lower"),
    "scoring.kde_python_init_s": ("s", "lower"),
    "scoring.logp_identity_s": ("s", "lower"),
    "scoring.logp_invert_s": ("s", "lower"),
    "scoring.rescoring_factor": ("ratio", "lower"),
    "scoring.score_components_s": ("s", "lower"),
    "scoring.rank_components_s": ("s", "lower"),
    "kde.kernel_evals": ("count", "lower"),
    "kde.fit_points": ("count", "lower"),
    "tracker.assign_tracks_s": ("s", "lower"),
    "tracker.python_run_s": ("s", "lower"),
    "tracker.task_skew": ("ratio", "lower"),
    "tracker.tracks": ("count", "lower"),
    "bundler.assign_bundles_s": ("s", "lower"),
    "bundler.overlap_s": ("s", "lower"),
    "bundler.match_frac": ("frac", "higher"),
    "features.s": ("s", "lower"),
    "baselines.consistency_s": ("s", "lower"),
    "baselines.ma_flags_s": ("s", "lower"),
    "baselines.uncertainty_s": ("s", "lower"),
    "perception.build_dataset_s": ("s", "lower"),
    "perception.eval_obs_rows": ("count", "higher"),
    "distributions.learn_s": ("s", "lower"),
    "harness.prepare_s": ("s", "lower"),
    "harness.run_missing_tracks_s": ("s", "lower"),
    "harness.collect_s": ("s", "lower"),
    "harness.collected_rows": ("count", "lower"),
    "harness.driver_s": ("s", "lower"),
    "spark.jobs": ("count", "lower"),
    "spark.tasks": ("count", "lower"),
    "spark.exchanges": ("count", "lower"),
    "spark.python_start_s": ("s", "lower"),
    "spark.shuffle_write_mb": ("MiB", "lower"),
    "spark.spill_mb": ("MiB", "lower"),
    "spark.gc_s": ("s", "lower"),
    "spark.executor_run_s": ("s", "lower"),
    "spark.failed_tasks": ("count", "lower"),
    "spark.persisted_rdds_end": ("count", "lower"),
    "spark.cached_mb_end": ("MiB", "lower"),
    "mem.peak_mb": ("MiB", "lower"),
    "jvm.heap_peak_mb": ("MiB", "lower"),
    "trace.pipeline_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _points(dist) -> int:
    """Fitted sample size of a distribution (0 if it keeps no sample)."""
    return len(getattr(dist, "points", ()))


def _median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


class Instrumentation:
    """Spans and job groups for one session; :meth:`install` patches the
    wrappers in, :meth:`uninstall` restores the originals."""

    def __init__(self, spark):
        self.spark = spark
        self.sc = spark.sparkContext
        self.tracer = Tracer(on_enter=self._enter, on_exit=self._exit)
        self._undo: list[tuple[object, str, object]] = []
        self._probe: dict = {}

    # -- spans and job groups ---------------------------------------
    def _enter(self, span) -> None:
        self.sc.setJobGroup(f"pb:{span.sid}", span.name)

    def _exit(self, span) -> None:
        parent = self.tracer.current
        if parent is not None:
            self.sc.setJobGroup(f"pb:{parent.sid}", parent.name)
        else:
            self.sc.setLocalProperty(eventlog.JOB_GROUP, None)

    # -- wrappers -----------------------------------------------------
    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def _spanned(self, name: str, fn):
        tracer = self.tracer

        def wrapper(*a, **k):
            with tracer.span(name):
                return fn(*a, **k)

        return wrapper

    def install(self) -> None:
        from repro.core.kde import GaussianKDE
        from repro.eval import harness

        tracer = self.tracer
        self._patch(harness, "build_dataset", self._spanned("perception.build_dataset", harness.build_dataset))
        self._patch(harness, "learn_feature_distributions",
                    self._spanned("distributions.learn", harness.learn_feature_distributions))
        fit = GaussianKDE.fit

        def traced_fit(cls, *a, **k):
            with tracer.span("kde.fit") as s:
                kde = fit(*a, **k)
                s.counters["points"] = _points(kde)
            return kde

        self._patch(GaussianKDE, "fit", classmethod(traced_fit))
        df_cls = type(self.spark.range(1))
        for name in ("toPandas", "collect", "count"):
            self._patch(df_cls, name, self._action(getattr(df_cls, name)))

    def _action(self, fn):
        tracer = self.tracer

        def wrapper(df, *a, **k):
            cur = tracer.current
            if cur is not None and cur.name == ACTION:
                return fn(df, *a, **k)
            with tracer.span(ACTION) as s:
                out = fn(df, *a, **k)
                s.counters["rows"] = len(out) if hasattr(out, "__len__") else 1
            return out

        return wrapper

    # -- probes -------------------------------------------------------
    def run_probes(self, prep) -> dict[str, float]:
        """Each layer's public function on a cached input, written to the
        ``noop`` sink; returns seconds per probe."""
        from pyspark.sql import functions as F

        from repro.association.bundler import assign_bundles, overlapping_model_obs
        from repro.association.tracker import assign_tracks
        from repro.baselines.model_assertions import (
            appear_flags, consistency_candidates, flicker_flags, multibox_flags,
        )
        from repro.baselines.uncertainty import rank_by_uncertainty
        from repro.core.features import with_distance, with_velocity, with_volume
        from repro.core.schema import SOURCE_MODEL
        from repro.core.scoring import (
            rank_components, score_components, with_distance_logp, with_feature_logps,
        )

        cached = []

        def cache(df):
            df = df.cache()
            df.count()
            cached.append(df)
            return df

        times: dict[str, float] = {}

        def probe(metric: str, build) -> None:
            with self.tracer.span(f"probe.{metric}") as s:
                build().write.format("noop").mode("overwrite").save()
            times[metric] = s.duration

        tracked, fd = prep.tracked, prep.fd
        eval_obs = cache(prep.ds.eval_obs)
        probe("bundler.assign_bundles_s", lambda: assign_bundles(eval_obs))
        bundled = cache(assign_bundles(eval_obs))
        probe("tracker.assign_tracks_s", lambda: assign_tracks(bundled))
        probe("bundler.overlap_s", lambda: overlapping_model_obs(tracked, iou_threshold=0.05))
        probe("features.s", lambda: with_velocity(with_distance(with_volume(tracked))))
        feats = cache(with_velocity(with_distance(with_volume(tracked))))
        probe("scoring.logp_identity_s", lambda: with_feature_logps(feats, fd, aof="identity"))
        probe("scoring.logp_invert_s", lambda: with_feature_logps(feats, fd, aof="invert"))
        scored = cache(with_distance_logp(with_feature_logps(feats, fd, aof="identity")))
        probe("scoring.score_components_s",
              lambda: score_components(scored, ["scene_id", "track_id"], LOGP_COLS))
        comps = cache(score_components(scored, ["scene_id", "track_id"], LOGP_COLS))
        probe("scoring.rank_components_s", lambda: rank_components(comps))
        probe("baselines.consistency_s", lambda: consistency_candidates(tracked))
        probe("baselines.ma_flags_s", lambda: appear_flags(tracked)
              .unionByName(flicker_flags(tracked)).unionByName(multibox_flags(tracked)).distinct())
        probe("baselines.uncertainty_s", lambda: rank_by_uncertainty(eval_obs))

        # A model observation is matched when it joined a human's bundle.
        self._probe["match_frac"] = (
            bundled.where(F.col("source") == SOURCE_MODEL)
            .agg(F.avg((F.col("bundle_id") != F.col("obs_id")).cast("double")))
            .first()[0]
        )
        self._probe["tracks"] = (
            tracked.where(F.col("track_id").isNotNull()).select("scene_id", "track_id").distinct().count()
        )
        # Kernel evaluations of one exact-KDE scoring of every observation:
        # per class, values scored times points fitted.
        evals = 0
        for r in feats.groupBy("cls").agg(
            F.count("volume").alias("nv"), F.count("velocity").alias("nw")
        ).collect():
            evals += r["nv"] * _points(fd.volume.get(r["cls"]))
            evals += r["nw"] * _points(fd.velocity.get(r["cls"]))
        self._probe["evals_per_scoring"] = evals
        for df in cached:
            df.unpersist()
        return times

    # -- metrics ------------------------------------------------------
    def _timed(self) -> tuple[list, set[int]]:
        """The timed pass spans and the ids of every span inside them."""
        t = self.tracer
        passes = t.named("pass")
        inside = {s.sid for p in passes for s in [p, *t.descendants(p)]}
        return passes, inside

    def report(self, runner, passes, untraced_s: float) -> dict[str, float]:
        """Span- and probe-derived metrics; call before the session stops."""
        t = self.tracer
        spans, inside = self._timed()
        n = len(spans)
        persisted = session.persisted_rdds(self.spark)
        cached = session.cached_mb(self.spark)
        self._eval_rows = sum(p.prep.ds.eval_obs.count() for p in passes if p.prep is not None)
        m = self.run_probes(passes[-1].prep)
        actions = [s for s in t.spans if s.name == ACTION and s.sid in inside]
        apps = [s for s in t.spans if s.sid in inside and s.name.startswith("harness.run_")]

        def med(name: str) -> float:
            return _median(s.duration for s in t.named(name) if s.sid in inside)

        traced_s = _median(s.duration for s in spans)
        m.update({
            "harness.prepare_s": med("harness.prepare"),
            "harness.collect_s": sum(s.duration for s in actions) / n,
            "harness.collected_rows": sum(s.counters["rows"] for s in actions) / n,
            "harness.driver_s": sum(t.self_time(s) for s in apps) / n,
            "perception.build_dataset_s": med("perception.build_dataset"),
            "perception.eval_obs_rows": self._eval_rows / n,
            "distributions.learn_s": med("distributions.learn"),
            "kde.fit_points": sum(s.counters["points"] for s in t.named("kde.fit") if s.sid in inside) / n,
            "bundler.match_frac": self._probe["match_frac"],
            "tracker.tracks": self._probe["tracks"],
            "spark.persisted_rdds_end": persisted,
            "spark.cached_mb_end": cached,
            "mem.peak_mb": max(r + h for p in passes for r, h in p.mem),
            "jvm.heap_peak_mb": max(h for p in passes for _, h in p.mem),
            "trace.pipeline_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
        })
        for app in runner.apps:
            m[f"harness.{app}_s"] = med(f"harness.{app}")
        self._n = n
        self._inside = inside
        return m

    def attribute(self, log_dir) -> dict[str, float]:
        """Event-log metrics over the timed passes; call after the session
        stopped, which flushes the log."""
        groups = eventlog.attribute(eventlog.read_events(str(log_dir)))
        total = eventlog.GroupStats()
        for gid, stats in groups.items():
            if gid and gid.startswith("pb:") and int(gid[3:]) in self._inside:
                total = total.merge(stats)
        n = self._n
        py_start = sum(v for (node, metric), v in total.node_metrics.items() if metric == START_PY)
        rescoring = total.node_metric(KDE_NODE, ROWS) / max(self._eval_rows, 1)
        tracker_ms = total.node_task_ms.get(TRACKER_NODE, [])
        skew = max(tracker_ms) / max(statistics.median(tracker_ms), 1.0) if tracker_ms else 0.0
        return {
            "scoring.kde_python_run_s": total.node_metric(KDE_NODE, RUN_PY) / 1e3 / n,
            "scoring.kde_python_init_s": total.node_metric(KDE_NODE, INIT_PY) / 1e3 / n,
            "scoring.rescoring_factor": rescoring,
            "kde.kernel_evals": rescoring * self._probe["evals_per_scoring"],
            "tracker.python_run_s": total.node_metric(TRACKER_NODE, RUN_PY) / 1e3 / n,
            "tracker.task_skew": skew,
            "spark.jobs": total.jobs / n,
            "spark.tasks": total.tasks / n,
            "spark.exchanges": len(total.shuffle_stages) / n,
            "spark.failed_tasks": total.failed_tasks / n,
            "spark.python_start_s": py_start / 1e3 / n,
            "spark.shuffle_write_mb": total.shuffle_write_bytes / 2**20 / n,
            "spark.spill_mb": total.spill_bytes / 2**20 / n,
            "spark.gc_s": total.gc_ms / 1e3 / n,
            "spark.executor_run_s": total.executor_run_ms / 1e3 / n,
        }
