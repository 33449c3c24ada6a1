"""In-memory spans around the program's public calls.

A :class:`Tracer` keeps every span as ``[name, start, end, parent]`` in a
list and writes nothing until :meth:`write_chrome` at the end of the run,
so the only cost inside the timed region is two clock reads and an append
per span.  Spans come only from the benchmark's own code; the program
itself is not instrumented.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

Span = List  # [name, start, end, parent_index]


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._open: List[int] = []

    @property
    def parent(self) -> int:
        return self._open[-1] if self._open else -1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a leaf span timed by the caller (hot per-record loops)."""
        self.spans.append([name, start, end, self.parent])

    def elapsed(self, name: str) -> float:
        """Wall time of the first span called ``name``."""
        for span in self.spans:
            if span[0] == name:
                return span[2] - span[1]
        raise KeyError(name)

    def layers(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, total seconds, self seconds)``.

        Self time is a span's duration minus the time its direct children
        cover; children of one span never overlap, so that is the sum of
        their durations.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: Dict[str, List[float]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[index]
        return {name: (int(c), t, s) for name, (c, t, s) in table.items()}

    def write_chrome(self, path: Path) -> None:
        """Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": index, "parent": parent, "run": self.run_id},
            }
            for index, (name, start, end, parent) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def render_layers(
    layers: Dict[str, Tuple[int, float, float]], root: Optional[float] = None
) -> str:
    """The per-layer table: calls, total and self time, share of ``root``."""
    lines = [f"{'layer':<22}{'calls':>9}{'total s':>11}{'self s':>11}{'share':>8}"]
    for name, (calls, total, own) in sorted(
        layers.items(), key=lambda item: -item[1][1]
    ):
        share = f"{100.0 * total / root:6.1f}%" if root else ""
        lines.append(f"{name:<22}{calls:>9}{total:>11.4f}{own:>11.4f}{share:>8}")
    return "\n".join(lines)
