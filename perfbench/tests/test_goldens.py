"""Both workloads read one golden file that covers all their applications."""
import json

import workloads


def test_every_golden_seed_covers_every_application():
    for wl in workloads.WORKLOADS.values():
        doc = json.loads(workloads.golden_path(wl.dataset, wl.scale).read_text())
        assert (doc["dataset"], doc["scale"]) == (wl.dataset, wl.scale)
        assert list(map(int, doc["seeds"])) == list(range(len(doc["seeds"])))
        for seed, results in doc["seeds"].items():
            assert set(wl.apps) <= set(results), (wl.name, seed)


def test_check_tells_equal_different_and_unchecked():
    goldens = {0: {"run_recall": {"recall": 0.5}}}
    assert workloads.check("run_recall", {"recall": 0.5}, 0, goldens) == []
    assert workloads.check("run_recall", {"recall": 0.4}, 0, goldens)
    assert workloads.check("run_recall", {"recall": 0.4}, 1, goldens) is None
