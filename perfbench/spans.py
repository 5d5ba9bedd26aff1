"""In-memory spans recorded around the benchmark's own calls into trajkit.

A span has a name ``<layer>.<call>``, start and end (``perf_counter``
seconds), the id of the span that caused it and a job id. Spans stay in
memory until :meth:`Tracer.write`. Untraced runs use :data:`NO_TRACE`,
whose spans record nothing.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.job = "job"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        """Record one span; ``parent`` defaults to the innermost open span.

        The yielded dict may be given more attributes inside the block.
        """
        if parent is None and self._stack:
            parent = self._stack[-1]
        rec = {"id": len(self.spans), "name": name, "parent": parent, "job": self.job,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.write_text("\n".join(json.dumps(s) for s in self.spans) + "\n", encoding="utf-8")


class _NoTrace:
    @contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        yield {}


NO_TRACE = _NoTrace()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_self_times(spans: list[dict], share=None) -> dict[str, float]:
    """Self time per layer: each span's duration minus its children's.

    Children of one span never run concurrently, so their durations add.
    A child may lie outside its parent's interval: the in-process replay of
    a CLI stage is parented to the stage span and stands for work done
    inside the stage's process, so it is subtracted all the same.

    ``share(span, self_s)``, if given, may return ``(layer, seconds)``: that
    much of the span's self time goes to ``layer`` instead of the span's own.
    """
    child_total: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_total[s["parent"]] += duration(s)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        own = max(0.0, duration(s) - child_total[s["id"]])
        moved = share(s, own) if share else None
        if moved:
            layer, seconds = moved
            out[layer] += seconds
            own -= seconds
        out[s["name"].split(".", 1)[0]] += own
    return dict(out)
