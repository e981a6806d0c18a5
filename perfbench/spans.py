"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code, around calls into the
program's public functions: wrappers on public methods, installed by
:func:`installed` for the traced run only and restored when it exits.

Every span has a name, a start, an end and a parent id.  Aggregates are
kept for every span -- calls, inclusive time (outermost span of a name
only, so recursion is not double counted) and self time (duration minus
the time covered by child spans) -- while the span list kept for the
Chrome trace is capped per name, so a run with millions of cache
lookups stays within a few MiB.
"""

from __future__ import annotations

import json
import pathlib
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

#: spans of one name kept for the Chrome trace
KEEP_PER_NAME = 400


class SpanRecorder:
    """Stack-based span recorder with per-name aggregates."""

    def __init__(self) -> None:
        #: open frames: [name, start, child_seconds, span_id, parent_id]
        self._stack: list[list[Any]] = []
        self._depth: dict[str, int] = {}
        self._next_id = 1
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        #: kept spans: (name, start, end, span_id, parent_id)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._kept: dict[str, int] = {}
        #: seconds covered by spans that have no parent
        self.top_level = 0.0
        self.origin = perf_counter()

    @property
    def current(self) -> str | None:
        """Name of the innermost open span, if any."""
        return self._stack[-1][0] if self._stack else None

    def push(self, name: str) -> None:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][3] if self._stack else 0
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([name, perf_counter(), 0.0, span_id, parent])

    def pop(self) -> None:
        end = perf_counter()
        name, start, child, span_id, parent = self._stack.pop()
        duration = end - start
        depth = self._depth[name] - 1
        self._depth[name] = depth
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        if depth == 0:
            self.inclusive[name] = self.inclusive.get(name, 0.0) + duration
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.top_level += duration
        kept = self._kept.get(name, 0)
        if kept < KEEP_PER_NAME:
            self._kept[name] = kept + 1
            self.spans.append((name, start, end, span_id, parent))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.push(name)
        try:
            yield
        finally:
            self.pop()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span named ``name``."""
        push, pop = self.push, self.pop

        def traced(*args: Any, **kwargs: Any) -> Any:
            push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                pop()

        return traced

    def self_seconds(self, prefix: str) -> float:
        """Self time summed over every span name under ``prefix``."""
        return sum(
            seconds for name, seconds in self.self_time.items()
            if name == prefix or name.startswith(prefix + ".")
        )

    def write_chrome(self, path: pathlib.Path, process: str) -> int:
        """Write the kept spans as Chrome trace_event JSON."""
        events = [
            {
                "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                "args": {"name": process},
            }
        ]
        for name, start, end, span_id, parent in self.spans:
            events.append({
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": span_id, "parent": parent},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}) + "\n")
        return len(events) - 1


@contextmanager
def installed(patches: list[tuple[type, str, Callable[[Any], Any]]]
              ) -> Iterator[None]:
    """Replace class methods for the duration of the block.

    ``patches`` holds ``(cls, method, make)`` where ``make(original)``
    returns the replacement.  Originals are restored on exit, also when
    the block raises, so untraced runs never see a wrapper.
    """
    saved = []
    try:
        for cls, method, make in patches:
            original = cls.__dict__[method]
            saved.append((cls, method, original))
            setattr(cls, method, make(original))
        yield
    finally:
        for cls, method, original in reversed(saved):
            setattr(cls, method, original)
