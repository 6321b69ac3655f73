"""Timing and tracing shared by the untraced and the traced run.

Every timed call goes through :meth:`Recorder.span`, which always keeps
the duration as a sample under the span's name.  With tracing on it also
keeps the span itself -- id, parent id, name, start, end -- in memory;
:meth:`Recorder.write` saves them when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Recorder:
    def __init__(self, trace: bool):
        self.trace = trace
        self.samples: dict[str, list[float]] = {}
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        if self.trace:
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.samples.setdefault(name, []).append(end - start)
            if self.trace:
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end))

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus the
        part of it that its child spans cover (children never overlap,
        since one call runs at a time)."""
        child_cover: dict[int, float] = {}
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_cover[parent] = child_cover.get(parent, 0.0) + (end - start)
        out: dict[str, float] = {}
        for sid, _, name, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child_cover.get(sid, 0.0)
        return out

    def write(self, path, end_to_end: dict) -> None:
        """Save the spans, the self time per name and the run's end-to-end
        figures (traced, for comparison with an untraced run)."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        doc = {
            "end_to_end": end_to_end,
            "spans": [
                {"id": sid, "parent": parent, "name": name, "start_s": start - t0, "end_s": end - t0}
                for sid, parent, name, start, end in self.spans
            ],
            "self_s": self.self_times(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=0)
