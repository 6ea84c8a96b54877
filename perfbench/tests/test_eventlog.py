"""Job-group attribution of a small fixed Spark event log."""
from pathlib import Path

import eventlog

DATA = Path(__file__).parent / "data"


def test_attribution_by_group_and_plan_node(tmp_path):
    log = tmp_path / "eventlog_v2_local-1"
    log.mkdir()
    (log / "events_1_local-1").write_text((DATA / "eventlog_small.jsonl").read_text())
    (log / "appstatus_local-1").write_text("")
    stats = eventlog.attribute(eventlog.read_events(str(tmp_path)))
    assert set(stats) == {"pb:1", "pb:2", None}

    kde = stats["pb:1"]
    assert (kde.jobs, kde.tasks, kde.failed_tasks) == (1, 3, 1)
    assert kde.executor_run_ms == 450 and kde.gc_ms == 12
    assert kde.shuffle_write_bytes == 3000 and kde.spill_bytes == 512
    # Shuffles are counted from the stages that ran, whatever plan the
    # action reported (a cache-materializing count reports only the scan).
    assert kde.shuffle_stages == {0}
    assert kde.node_metric("ArrowEvalPython", "time to run Python workers") == 100
    assert kde.node_metric("ArrowEvalPython", "time to start Python workers") == 5
    assert kde.node_metric("ArrowEvalPython", "number of output rows") == 7
    # Only the task whose ArrowEvalPython emitted rows is a node task.
    assert kde.node_task_ms["ArrowEvalPython"] == [100]
    assert kde.node_metric("FlatMapGroupsInPandas", "time to run Python workers") == 0

    # The tracker's plan arrives after its tasks; stages map through the job.
    tracker = stats["pb:2"]
    assert (tracker.jobs, tracker.tasks) == (1, 2)
    assert tracker.shuffle_stages == {1}  # stage 2 ran result tasks
    assert tracker.node_metric("FlatMapGroupsInPandas", "time to run Python workers") == 400
    assert tracker.node_task_ms["FlatMapGroupsInPandas"] == [200]
    assert tracker.node_metric("ArrowEvalPython", "time to run Python workers") == 0

    assert (stats[None].jobs, stats[None].tasks) == (1, 1)
    assert stats[None].shuffle_stages == set()
    merged = kde.merge(tracker)
    assert merged.tasks == 5 and merged.node_task_ms["FlatMapGroupsInPandas"] == [200]
    assert merged.shuffle_stages == {0, 1}


def test_compressed_log_is_refused(tmp_path):
    (tmp_path / "events_1_app.zstd").write_bytes(b"\x28\xb5\x2f\xfd")
    try:
        list(eventlog.read_events(str(tmp_path)))
    except ValueError as e:
        assert "compress" in str(e)
    else:
        raise AssertionError("compressed log accepted")
