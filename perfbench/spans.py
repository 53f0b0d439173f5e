"""In-memory span recorder for the traced run.

A span is (name, start, end, parent).  Spans live in flat arrays so that a
sweep pass of half a million spans costs a few megabytes, and are written out
once, when the run ends.  The recorder is single-threaded: the parent of a new
span is whichever span is open when it begins.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager, nullcontext
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.tags: dict[int, tuple[str, int]] = {}  # span -> (shape, size) for scaling records
        self.counts: dict[str, int] = {}  # outcomes counted where the spans are taken

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self._open.append(i)
        self.end.append(0.0)
        self.start.append(_clock())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = _clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str, tag: tuple[str, int] | None = None):
        i = self.begin(name)
        if tag is not None:
            self.tags[i] = tag
        try:
            yield i
        finally:
            self.finish(i)

    def self_times(self) -> array:
        """Each span's duration minus the durations of its direct children."""
        out = array("d", (e - s for s, e in zip(self.start, self.end)))
        for i, par in enumerate(self.parent):
            if par >= 0:
                out[par] -= self.end[i] - self.start[i]
        return out

    def totals(self) -> dict[str, tuple[float, int]]:
        """Self time summed per span name, with the number of spans."""
        seconds = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for nid, st in zip(self.name, self.self_times()):
            seconds[nid] += st
            calls[nid] += 1
        return {n: (seconds[i], calls[i]) for i, n in enumerate(self.names)}

    def scaling(self) -> list[dict]:
        """Self time of tagged spans bucketed by (name, shape, size class).

        The size class of a size n is n.bit_length(), so a cost linear in the
        size doubles from one class to the next.
        """
        own = self.self_times()
        buckets: dict[tuple[str, str, int], list] = {}
        for i, (shape, size) in self.tags.items():
            row = buckets.setdefault((self.names[self.name[i]], shape, size.bit_length()), [0, 0.0])
            row[0] += 1
            row[1] += own[i]
        return [
            {"span": name, "shape": shape, "size_class": cls, "size_below": 2**cls, "calls": n, "self_s": s}
            for (name, shape, cls), (n, s) in sorted(buckets.items())
        ]

    def write(self, path: Path) -> None:
        """Write one line per span: id, parent, name, start and end in ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        with path.open("w") as out:
            out.write("id,parent,name,start_ns,end_ns\n")
            for i, (nid, par, s, e) in enumerate(zip(self.name, self.parent, self.start, self.end)):
                out.write(f"{i},{par},{self.names[nid]},{round((s - t0) * 1e9)},{round((e - t0) * 1e9)}\n")


class NullTracer:
    """Stands in for Tracer in untraced passes; records nothing."""

    def span(self, name: str, tag: tuple[str, int] | None = None):
        return nullcontext()
