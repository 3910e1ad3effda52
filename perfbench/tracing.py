"""In-memory spans recorded by the benchmark's own wrappers.

Every call the traced pass makes into a skolem module goes through
Tracer.call, which records (name, start, end, parent, solve) without
touching the package.  Spans stay in memory until dump() writes them out.
A disabled tracer calls straight through and records nothing, so traced
and untraced runs share one code path.
"""

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    solve: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._solve = ""

    def call(self, name, fn, *args, calls: int = 1):
        """Run fn(*args) inside a span; calls > 1 marks a batch of calls."""
        if not self.enabled:
            return fn(*args)
        with self.span(name, calls=calls):
            return fn(*args)

    @contextmanager
    def span(self, name, solve=None, **attrs):
        """Open a span and yield it; solve, when given, sets the solve identifier."""
        if not self.enabled:
            yield None
            return
        if solve is not None:
            self._solve = solve
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, parent=parent, solve=self._solve, attrs=attrs))
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        try:
            yield self.spans[idx]
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()

    def annotate(self, **attrs) -> None:
        """Attach figures to the most recently opened span."""
        if self.enabled and self.spans:
            self.spans[-1].attrs.update(attrs)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Children of one span run one after another on one thread, so the
        part of the parent they cover is the sum of their durations.
        """
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def self_time_by_name(self, skip_solve_prefix: str) -> dict[str, float]:
        """Total self time per span name, leaving out the skipped solves."""
        totals: dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            if not s.solve.startswith(skip_solve_prefix):
                totals[s.name] = totals.get(s.name, 0.0) + own
        return totals

    def dump(self, path) -> None:
        rows = [
            dict(asdict(s), self_s=own)
            for s, own in zip(self.spans, self.self_times())
        ]
        path.write_text(json.dumps({"spans": rows}, indent=1))
