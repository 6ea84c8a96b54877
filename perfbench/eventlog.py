"""Attribute a Spark event log to job groups.

The benchmark tags every call it times with a Spark job group; this
module reads the (uncompressed) event log Spark writes and sums, per
group: jobs, tasks, failed tasks, shuffle map stages run (one per
``Exchange`` executed, cache-materializing actions included), executor
run time, JVM GC time, shuffle bytes written, bytes spilled to disk, and
every SQL plan-node metric. SQL metrics arrive as task accumulator updates; their ids are
mapped to plan nodes through the plans in the SQL execution-start and
adaptive-update events, which is what separates the KDE pandas UDFs
(``ArrowEvalPython``) from the tracker (``FlatMapGroupsInPandas``).
"""
from __future__ import annotations

import json
import os
import re
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator

SQL_START = "org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart"
SQL_AQE_UPDATE = "org.apache.spark.sql.execution.ui.SparkListenerSQLAdaptiveExecutionUpdate"
JOB_GROUP = "spark.jobGroup.id"


@dataclass
class GroupStats:
    jobs: int = 0
    tasks: int = 0
    failed_tasks: int = 0
    executor_run_ms: float = 0.0
    gc_ms: float = 0.0
    shuffle_write_bytes: float = 0.0
    spill_bytes: float = 0.0
    #: Ids of the stages that ran shuffle map tasks.
    shuffle_stages: set[int] = field(default_factory=set)
    #: (plan node name, metric name) -> sum of task updates.
    node_metrics: dict[tuple[str, str], float] = field(default_factory=lambda: defaultdict(float))
    #: node name -> executor run time (ms) of each task whose instance of
    #: that node emitted rows.
    node_task_ms: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))

    def merge(self, other: "GroupStats") -> "GroupStats":
        out = GroupStats(
            jobs=self.jobs + other.jobs,
            tasks=self.tasks + other.tasks,
            failed_tasks=self.failed_tasks + other.failed_tasks,
            executor_run_ms=self.executor_run_ms + other.executor_run_ms,
            gc_ms=self.gc_ms + other.gc_ms,
            shuffle_write_bytes=self.shuffle_write_bytes + other.shuffle_write_bytes,
            spill_bytes=self.spill_bytes + other.spill_bytes,
            shuffle_stages=self.shuffle_stages | other.shuffle_stages,
        )
        for src in (self, other):
            for k, v in src.node_metrics.items():
                out.node_metrics[k] += v
            for k, v in src.node_task_ms.items():
                out.node_task_ms[k].extend(v)
        return out

    def node_metric(self, node: str, metric: str) -> float:
        return self.node_metrics.get((node, metric), 0.0)


def event_files(log_dir: str) -> list[str]:
    """Event files under ``log_dir`` in write order (a rolling log's
    ``events_<n>_<app>`` parts are ordered by ``n``)."""
    found = []
    for root, _, files in os.walk(log_dir):
        for name in files:
            if name.startswith(".") or name.startswith("appstatus") or name.endswith(".crc"):
                continue
            m = re.match(r"events_(\d+)_", name)
            found.append((int(m.group(1)) if m else 0, os.path.join(root, name)))
    return [p for _, p in sorted(found)]


def read_events(log_dir: str) -> Iterator[dict]:
    for path in event_files(log_dir):
        if path.endswith((".zstd", ".zst", ".lz4", ".snappy", ".lzf")):
            raise ValueError(f"compressed event log {path}; run with spark.eventLog.compress=false")
        with open(path) as f:
            for line in f:
                if line.strip():
                    yield json.loads(line)


def _plan_metrics(plan: dict, out: dict[int, tuple[str, str]]) -> None:
    for m in plan.get("metrics", ()):
        out[int(m["accumulatorId"])] = (plan["nodeName"], m["name"])
    for child in plan.get("children", ()):
        _plan_metrics(child, out)


def attribute(events: Iterable[dict]) -> dict[str | None, GroupStats]:
    """Per-job-group totals; jobs without a group are under ``None``."""
    acc_node: dict[int, tuple[str, str]] = {}
    stage_group: dict[int, str | None] = {}
    tasks: list[dict] = []
    stats: dict[str | None, GroupStats] = defaultdict(GroupStats)
    for e in events:
        kind = e["Event"]
        if kind in (SQL_START, SQL_AQE_UPDATE):
            _plan_metrics(e["sparkPlanInfo"], acc_node)
        elif kind == "SparkListenerJobStart":
            group = (e.get("Properties") or {}).get(JOB_GROUP)
            stats[group].jobs += 1
            for sid in e.get("Stage IDs", ()):
                stage_group.setdefault(sid, group)
        elif kind == "SparkListenerStageSubmitted":
            props = e.get("Properties") or {}
            if JOB_GROUP in props:
                stage_group[e["Stage Info"]["Stage ID"]] = props[JOB_GROUP]
        elif kind == "SparkListenerTaskEnd":
            # Plans can be announced after their first tasks end, so
            # accumulators are resolved once the whole log is read.
            tasks.append(e)
    for e in tasks:
        g = stats[stage_group.get(e["Stage ID"])]
        g.tasks += 1
        if (e.get("Task End Reason") or {}).get("Reason") != "Success":
            g.failed_tasks += 1
        if e.get("Task Type") == "ShuffleMapTask":
            g.shuffle_stages.add(e["Stage ID"])
        tm = e.get("Task Metrics") or {}
        run_ms = float(tm.get("Executor Run Time", 0))
        g.executor_run_ms += run_ms
        g.gc_ms += float(tm.get("JVM GC Time", 0))
        g.shuffle_write_bytes += float((tm.get("Shuffle Write Metrics") or {}).get("Shuffle Bytes Written", 0))
        g.spill_bytes += float(tm.get("Disk Bytes Spilled", 0))
        emitting: set[str] = set()
        for acc in (e.get("Task Info") or {}).get("Accumulables", ()):
            key = acc_node.get(int(acc["ID"]))
            if key is None or "Update" not in acc:
                continue
            try:
                value = float(acc["Update"])
            except (TypeError, ValueError):
                continue
            g.node_metrics[key] += value
            if key[1] == "number of output rows" and value > 0:
                emitting.add(key[0])
        for node in emitting:
            g.node_task_ms[node].append(run_ms)
    return dict(stats)
