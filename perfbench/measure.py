"""Measurement primitives the benchmark applies from outside the program.

- :class:`ProcTree` reads CPU time and resident memory of a process and
  all its descendants (this Python process, the Spark JVM it launched and
  the Python workers under the JVM) from ``/proc``.
- :class:`MemSampler` polls, in a thread, the summed RSS of that tree
  (or of its non-JVM processes) together with a second reading, such as
  the JVM's heap in use, and keeps the samples.
- :class:`Tracer` records spans (name, parent, start, end, counters) and
  computes a span's self time: its duration minus the part of its
  interval its child spans cover.
"""
from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

_TICK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat_fields(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name, or None if
    the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    # The command name may contain spaces; it ends at the last ')'.
    return raw[raw.rindex(")") + 2 :].split()


class ProcTree:
    """The process ``root`` and every live descendant, found by parent id."""

    def __init__(self, root: int):
        self.root = root

    def pids(self) -> list[int]:
        parents: dict[int, int] = {}
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                fields = _stat_fields(int(entry))
                if fields is not None:
                    parents[int(entry)] = int(fields[1])
        tree, frontier = [self.root], [self.root]
        while frontier:
            kids = [p for p, pp in parents.items() if pp in frontier]
            tree.extend(kids)
            frontier = kids
        return tree

    def cpu_s(self) -> float:
        """User plus system CPU seconds of the tree, including children
        that already exited and were reaped by a process in the tree."""
        ticks = 0
        for pid in self.pids():
            fields = _stat_fields(pid)
            if fields is not None:
                # utime, stime, cutime, cstime (fields 14-17 of stat).
                ticks += sum(int(x) for x in fields[11:15])
        return ticks / _TICK

    def rss_mb(self, exclude: frozenset[str] = frozenset()) -> float:
        """Summed RSS of the tree, leaving out processes whose command
        name is in ``exclude``."""
        total = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/comm") as f:
                    if f.read().strip() in exclude:
                        continue
                with open(f"/proc/{pid}/statm") as f:
                    total += int(f.read().split()[1])
            except (OSError, IndexError, ValueError):
                continue
        return total * _PAGE / 2**20


class MemSampler:
    """Samples memory every ``interval`` seconds between :meth:`start` and
    :meth:`stop`: the tree's summed RSS, leaving out processes named in
    ``exclude``, and the MiB that ``extra`` (given to :meth:`start`) reads
    at the same moment. :meth:`stop` returns the ``(rss, extra)`` pairs."""

    def __init__(self, tree: ProcTree, interval: float = 0.1, exclude: frozenset[str] = frozenset()):
        self.tree = tree
        self.interval = interval
        self.exclude = exclude
        self._extra = None
        self._samples: list[tuple[float, float]] = []
        self._halt = threading.Event()
        self._thread: threading.Thread | None = None

    def _sample(self) -> None:
        self._samples.append((self.tree.rss_mb(self.exclude), self._extra() if self._extra else 0.0))

    def start(self, extra=None) -> None:
        self._extra = extra
        self._samples = []
        self._sample()
        self._halt.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._halt.wait(self.interval):
            self._sample()

    def stop(self) -> list[tuple[float, float]]:
        self._halt.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._sample()
        return self._samples


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    start: float
    end: float | None = None
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


def covered(interval: tuple[float, float], parts: list[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in parts if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class Tracer:
    """In-memory span recorder; spans nest by a per-tracer stack.

    ``on_enter``/``on_exit`` hooks receive the span and let the caller tag
    work started inside it (the benchmark sets a Spark job group).
    """

    def __init__(self, clock=time.perf_counter, on_enter=None, on_exit=None):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.on_enter = on_enter
        self.on_exit = on_exit

    def span(self, name: str):
        return _SpanContext(self, name)

    @property
    def current(self) -> Span | None:
        return self.stack[-1] if self.stack else None

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.sid]

    def descendants(self, span: Span) -> list[Span]:
        out, frontier = [], [span.sid]
        while frontier:
            kids = [s for s in self.spans if s.parent in frontier]
            out.extend(kids)
            frontier = [s.sid for s in kids]
        return out

    def self_time(self, span: Span) -> float:
        """Duration of ``span`` minus the time its direct children cover."""
        parts = [(c.start, c.end) for c in self.children(span) if c.end is not None]
        return span.duration - covered((span.start, span.end), parts)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> Span:
        t = self.tracer
        parent = t.current
        span = Span(len(t.spans), self.name, parent.sid if parent else None, t.clock())
        t.spans.append(span)
        t.stack.append(span)
        if t.on_enter:
            t.on_enter(span)
        self.span = span
        return span

    def __exit__(self, *exc) -> None:
        t = self.tracer
        self.span.end = t.clock()
        t.stack.pop()
        if t.on_exit:
            t.on_exit(self.span)
