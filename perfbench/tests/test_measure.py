"""Span self-time arithmetic of the benchmark's tracer."""
from measure import Tracer, covered


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_covered_merges_overlaps_and_clips():
    assert covered((0, 10), []) == 0
    assert covered((0, 10), [(1, 3), (2, 5), (7, 8)]) == 5
    assert covered((0, 10), [(-5, 2), (9, 20)]) == 3
    assert covered((0, 10), [(11, 12)]) == 0


def test_self_time_subtracts_only_direct_children():
    # pass [0, 10] > app [1, 9] > action [2, 5], action [6, 8]
    t = Tracer(clock=FakeClock([0, 1, 2, 5, 6, 8, 9, 10]))
    with t.span("pass") as p:
        with t.span("app") as a:
            with t.span("action"):
                pass
            with t.span("action"):
                pass
    assert p.duration == 10 and a.duration == 8
    assert t.self_time(a) == 3  # 8 - (3 + 2)
    assert t.self_time(p) == 2  # 10 - 8: grandchildren are inside app
    assert [s.name for s in t.descendants(p)] == ["app", "action", "action"]


def test_hooks_see_nesting():
    seen = []
    t = Tracer(
        clock=FakeClock(range(10)),
        on_enter=lambda s: seen.append(("in", s.name)),
        on_exit=lambda s: seen.append(("out", s.name, t.current.name if t.current else None)),
    )
    with t.span("a"):
        with t.span("b"):
            pass
    assert seen == [("in", "a"), ("in", "b"), ("out", "b", "a"), ("out", "a", None)]


def test_sampler_leaves_out_excluded_processes_and_pairs_extra():
    import os

    from measure import MemSampler, ProcTree

    with open("/proc/self/comm") as f:
        me = f.read().strip()
    sampler = MemSampler(ProcTree(os.getpid()), interval=0.01, exclude=frozenset({me}))
    sampler.start(extra=lambda: 5.0)
    samples = sampler.stop()
    assert len(samples) >= 2 and set(samples) == {(0.0, 5.0)}
