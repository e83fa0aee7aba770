"""In-memory spans for the traced benchmark run.

A span is (name, start, end, parent, request id), stored in parallel
arrays so that a million spans cost tens of megabytes, not hundreds.
Spans are recorded only by the benchmark, around its own calls into the
package; nothing inside the package is patched.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.counts: Counter[str] = Counter()  # exact counts taken at the span sites
        self.request_id = -1
        self._open = [-1]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def record(self, name: str, t0: int, t1: int) -> None:
        """Add a finished span, child of the innermost open one."""
        self.append(self.name_id(name), t0, t1)

    def append(self, nid: int, t0: int, t1: int) -> int:
        self.name.append(nid)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(self._open[-1])
        self.request.append(self.request_id)
        return len(self.start) - 1

    @contextmanager
    def span(self, name: str):
        idx = self.append(self.name_id(name), perf_counter_ns(), 0)
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.end[idx] = perf_counter_ns()

    def wrap(self, name: str, fn):
        """fn with one span recorded per call."""
        nid = self.name_id(name)
        append = self.append

        def traced(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                append(nid, t0, perf_counter_ns())

        return traced

    def durations(self, name: str) -> list[int]:
        nid = self._ids.get(name)
        if nid is None:
            return []
        return [e - s for n, s, e in zip(self.name, self.start, self.end) if n == nid]

    def self_times(self, name: str) -> list[int]:
        """Each span's duration minus the time its direct children cover.

        Spans of one thread never overlap their siblings, so the covered
        time is the sum of the children's durations.
        """
        nid = self._ids.get(name)
        if nid is None:
            return []
        covered: dict[int, int] = {}
        wanted = {i for i, n in enumerate(self.name) if n == nid}
        for p, s, e in zip(self.parent, self.start, self.end):
            if p in wanted:
                covered[p] = covered.get(p, 0) + e - s
        return [self.end[i] - self.start[i] - covered.get(i, 0) for i in sorted(wanted)]

    def dump(self, path: Path) -> None:
        """Write every span: one JSON header line, then the five raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "i"], ["start_ns", "q"], ["end_ns", "q"], ["parent", "i"], ["request", "i"]],
            "counts": dict(self.counts),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent, self.request):
                arr.tofile(fh)
