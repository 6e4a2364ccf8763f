"""In-memory span recorder for the traced run.

Spans are opened and closed by the benchmark's own code around each call
into the library, so the library itself is untouched. Each span records its
name, start, end, parent and document id. Busy and self time are summed as
spans close; the first ``SPANS_KEPT`` spans are kept in memory and written
out once, when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns

#: Spans kept in memory for the spans file; sums cover every span.
SPANS_KEPT = 20000


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.busy_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._next_id = 0

    def begin(self, name: str, doc: int | None = None) -> None:
        """Open a span; without a document id it takes its parent's."""
        parent = self._stack[-1][0] if self._stack else -1
        if doc is None:
            doc = self._stack[-1][2] if self._stack else -1
        self._stack.append([self._next_id, name, doc, parent, 0, perf_counter_ns()])
        self._next_id += 1

    def end(self) -> int:
        stop = perf_counter_ns()
        span_id, name, doc, parent, child_ns, start = self._stack.pop()
        took = stop - start
        self.busy_ns[name] += took
        self.self_ns[name] += took - child_ns
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][4] += took
        if len(self.spans) < SPANS_KEPT:
            self.spans.append((span_id, name, start, stop, parent, doc))
        return took

    def call(self, name: str, doc: int | None, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        self.begin(name, doc)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def write(self, path: str) -> None:
        origin = min((span[2] for span in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as f:
            for span_id, name, start, stop, parent, doc in self.spans:
                f.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_ns": start - origin,
                            "end_ns": stop - origin,
                            "parent": parent,
                            "doc": doc,
                        }
                    )
                    + "\n"
                )
