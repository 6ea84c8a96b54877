"""The Spark substrate as the benchmark starts, inspects and stops it.

The session itself always comes from the program's own
``jobs._common.get_spark``; this module only sets what must be fixed
before the JVM launches (master, work directories inside the checkout,
the event log for traced runs; the heap keeps the program's sizing),
and afterwards reads what the session was configured with, how much
heap it used and what it left cached.
"""
from __future__ import annotations

import os
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Where every file a run writes goes; ignored by git.
BUILD_DIR = ROOT / ".bench_build" / "perfbench"


def sources_present() -> bool:
    return (ROOT / "src" / "repro" / "eval" / "harness.py").is_file() and (
        ROOT / "jobs" / "_common.py"
    ).is_file()


def configure(work: Path, event_log: Path | None = None) -> None:
    """Environment for the JVM and Python workers; call before the
    first SparkSession of the process."""
    local, tmp = work / "local", work / "tmp"
    for d in (local, tmp):
        d.mkdir(parents=True, exist_ok=True)
    args = [
        "--master", "local[*]",
        "--driver-java-options", f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData",
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "--conf", f"spark.sql.warehouse.dir={work / 'warehouse'}",
    ]
    for key, value in _event_log_conf(event_log).items():
        args += ["--conf", f"{key}={value}"]
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(args + ["pyspark-shell"])
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"  # no files under /tmp
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["TMPDIR"] = str(tmp)
    paths = [str(ROOT / "src"), str(ROOT)]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    for p in reversed(paths):
        if p not in sys.path:
            sys.path.insert(0, p)


EVENT_LOG_KEYS = ("spark.eventLog.enabled", "spark.eventLog.dir", "spark.eventLog.compress")


def _event_log_conf(event_log: Path | None) -> dict[str, str]:
    """Uncompressed event log in ``event_log``, or nothing."""
    if event_log is None:
        return {}
    event_log.mkdir(parents=True, exist_ok=True)
    return dict(zip(EVENT_LOG_KEYS, ("true", str(event_log), "false")))


def get_spark(app_name: str):
    """The program's own session entry point."""
    from jobs._common import get_spark as program_get_spark

    return program_get_spark(app_name)


def stop(spark) -> None:
    """Stop the session, then the JVM it runs in, and wait for it to exit
    (its Python workers exit with it)."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()
        proc.wait(timeout=60)
    SparkContext._gateway = None
    SparkContext._jvm = None


def restart(spark, app_name: str, event_log: Path | None):
    """A new session on the same (warm) JVM, with the event log on when
    ``event_log`` is given. A new context reads its defaults from the
    JVM's system properties, where ``spark-submit`` put the launch conf."""
    from pyspark import SparkContext

    spark.stop()
    system = SparkContext._jvm.java.lang.System
    for key in EVENT_LOG_KEYS:
        system.clearProperty(key)
    for key, value in _event_log_conf(event_log).items():
        system.setProperty(key, value)
    return get_spark(app_name)


def environment(spark) -> dict:
    """The settings a config-only change would move."""
    sc = spark.sparkContext
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "spark_version": spark.version,
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "broadcast_threshold": spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
        "driver_memory": sc.getConf().get("spark.driver.memory", "default"),
        "jvm_max_heap_mb": sc._jvm.java.lang.Runtime.getRuntime().maxMemory() / 2**20,
        "python": sys.version.split()[0],
    }


def heap_used_reader(spark):
    """A function returning the MiB of the JVM's heap in use right now."""
    mem = spark.sparkContext._jvm.java.lang.management.ManagementFactory.getMemoryMXBean()
    return lambda: mem.getHeapMemoryUsage().getUsed() / 2**20


def persisted_rdds(spark) -> int:
    return int(spark.sparkContext._jsc.getPersistentRDDs().size())


def cached_mb(spark) -> float:
    """Memory held by cached RDD blocks."""
    infos = spark.sparkContext._jsc.sc().getRDDStorageInfo()
    return sum(info.memSize() for info in infos) / 2**20
