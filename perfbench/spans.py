"""In-memory spans around calls into the rfm modules.

A span records one call: its name (``<layer>.<function>``), start and end
on the ``time.perf_counter`` clock, the index of the enclosing span (-1 at
top level) and the id of the solve it belongs to.  Counts measured at the
same boundary (rows, points, rank, peak memory) ride along in ``counts``.

Spans are recorded by replacing a function at the module or class attribute
its caller looks up, so no library file changes; ``uninstall`` puts every
original back.  Spans stay in memory; the caller writes them out once.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    run: int
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One function to wrap: where the caller looks it up, and what to count.

    ``counts(args, result)`` returns counts for the span; ``memory`` records
    the call's tracemalloc peak (bytes allocated during the call and alive at
    its high-water mark) as ``peak_bytes``.
    """

    name: str
    owner: object
    attr: str
    counts: Callable[[tuple, object], dict[str, float]] | None = None
    memory: bool = False


class Tracer:
    """Records a span for every call into its targets while installed."""

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for target in self.targets:
            original = vars(target.owner)[target.attr]
            self._saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self._wrap(target, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(target.name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            own_memory = target.memory and not tracemalloc.is_tracing()
            if own_memory:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if own_memory:
                    span.counts["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if target.counts is not None:
                span.counts.update(target.counts(args, result))
            return result

        return wrapper



def span_row(span: Span) -> list:
    """A span as a plain list, for writing out once at the end."""
    return [span.name, span.start, span.end, span.parent, span.run, span.counts]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are the spans whose ``parent`` is the span's index.  Their
    intervals are clipped to the parent's and merged before subtracting,
    so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, [])):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out
