"""In-memory spans recorded around calls into gmsim's public functions.

A Tracer patches module attributes (and restores them) so that a call made
through the module, by the benchmark or by the library itself, opens a span.
Spans hold a name, start, end, parent span and a workload/path id; they stay
in memory and are written out once, when the run ends. Nothing inside `src/`
is changed: only calls that go through a patched module attribute are seen,
so the hot private kernels (quote solves, RK4 stages) stay unspanned.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, trace_id: str | None = None):
        """Record one span; `name` starts with its layer, e.g. `engine.`."""
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "trace": trace_id or self.trace_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, layer: str, path_id=None, counts=None) -> None:
        """Replace owner.attr by a spanning wrapper until `unwrap_all`.

        `path_id(args, kwargs)` may name the path a call belongs to; the
        span's trace id then becomes `<trace>/path<id>`. `counts(result)`
        returns counts to store on the span, taken at the same boundary.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            trace = None
            if path_id is not None:
                trace = f"{self.trace_id}/path{path_id(args, kwargs)}"
            elif self._stack:
                trace = self.spans[self._stack[-1]]["trace"]
            with self.span(f"{layer}.{attr}", trace) as span:
                result = original(*args, **kwargs)
                if counts is not None:
                    span.update(counts(result))
                return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, spanned)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reading the spans back

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self, roots: set[int] | None = None) -> dict[str, float]:
        """Seconds per layer not covered by child spans. With `roots`, only
        spans under those root span ids count."""
        keep = None
        if roots is not None:
            keep = set()
            for s in self.spans:  # parents precede children
                if s["id"] in roots or s["parent"] in keep:
                    keep.add(s["id"])
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            if keep is None or s["id"] in keep:
                layer = s["name"].split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + own[s["id"]]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
