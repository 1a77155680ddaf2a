"""Outside-in tracing: spans and counts around calls into nantree.

The tracer replaces module-level names (``nantree.bench.train``,
``nantree.tree.fit_leaf``, ...) with wrappers, so the program under test is
not edited. Three kinds of wrapper exist:

* a *span* records one ``[name, start, end, parent, phase, child_s]`` entry
  per call; ``child_s`` collects the time of the calls it contains, so a
  span's self time is its duration minus ``child_s``;
* a *hot* wrapper is for per-node or per-row calls: it adds the call's
  count and time to an aggregate keyed by (phase, name, parent span name)
  and to the parent's ``child_s``, so memory stays flat;
* a *counter* counts calls without timing them, and only while a span of
  a given name is open (e.g. ``Partition`` constructions inside ``train``).

Spans and aggregates stay in memory; :meth:`Tracer.span_records` and
:meth:`Tracer.aggregates` return them as plain data for the trace file
written at exit.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

SPAN = "span"
HOT = "hot"

_NAME, _START, _END, _CHILD = 0, 1, 2, 5  # fields of a span record


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.hot: dict[tuple[str, str, str], list] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.results: list[tuple[str, str, object]] = []
        self.phase = ""
        self.origin = time.perf_counter()
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.phase, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self._open[name] += 1
        try:
            yield
        finally:
            self._open[name] -= 1
            self._stack.pop()
            record[_END] = time.perf_counter()
            if parent >= 0:
                self.spans[parent][_CHILD] += record[_END] - record[_START]

    def _parent_name(self) -> str:
        return self.spans[self._stack[-1]][_NAME] if self._stack else ""

    # -- installing wrappers -------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, kind: str = SPAN,
             keep_result: bool = False, tally: str | None = None) -> None:
        """Replace ``owner.attr`` by a timing wrapper recorded as ``name``.

        With ``keep_result`` the return value is kept in :attr:`results`
        (used for trained trees, whose shape is measured afterwards); with
        ``tally`` the length of the return value is added to that count.
        """
        fn = getattr(owner, attr)
        if kind == HOT:
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    if self._stack:
                        self.spans[self._stack[-1]][_CHILD] += dt
                    agg = self.hot[(self.phase, name, self._parent_name())]
                    agg[0] += 1
                    agg[1] += dt
        else:
            def wrapper(*args, **kwargs):
                with self.span(name):
                    out = fn(*args, **kwargs)
                if keep_result:
                    self.results.append((self.phase, name, out))
                if tally is not None:
                    self.counts[(self.phase, tally)] += len(out)
                return out
        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str, inside: tuple[str, ...]) -> None:
        """Count calls of ``owner.attr`` made while a span in ``inside`` is open."""
        fn = getattr(owner, attr)
        open_spans = self._open

        def wrapper(*args, **kwargs):
            for span_name in inside:
                if open_spans[span_name]:
                    self.counts[(self.phase, name)] += 1
                    break
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every replaced name back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- segments and totals -------------------------------------------------

    def mark(self) -> int:
        """Start a segment: returns the span index to pass to :meth:`totals`
        and clears the aggregates and kept results."""
        self.hot.clear()
        self.counts.clear()
        self.results.clear()
        return len(self.spans)

    def totals(self, first_span: int = 0, phase: str | None = None) -> "Totals":
        """Calls, seconds and self seconds per name since ``first_span``, for
        one phase or all of them. Each name is also counted under
        ``name@layer``, the layer of the span that made the call (empty for
        calls made by the benchmark itself)."""
        out = Totals()
        for name, start, end, parent, ph, child in self.spans[first_span:]:
            if phase is None or ph == phase:
                caller = layer_of(self.spans[parent][_NAME]) if parent >= 0 else ""
                out.add(name, caller, 1, end - start, end - start - child)
        for (ph, name, parent), (calls, seconds) in self.hot.items():
            if phase is None or ph == phase:
                out.add(name, layer_of(parent), calls, seconds, seconds)
        for (ph, name), n in self.counts.items():
            if phase is None or ph == phase:
                out.calls[name] += n
        return out

    def span_records(self) -> list[dict]:
        """Every span so far; ``parent`` indexes this list, -1 for none."""
        return [
            {"name": name, "start_s": start - self.origin, "end_s": end - self.origin,
             "parent": parent, "phase": ph}
            for name, start, end, parent, ph, _child in self.spans
        ]

    def aggregates(self) -> dict:
        """The hot-call aggregates and counts of the current segment."""
        return {
            "hot": [
                {"phase": ph, "name": name, "parent": parent, "calls": calls, "seconds": seconds}
                for (ph, name, parent), (calls, seconds) in sorted(self.hot.items())
            ],
            "counts": [
                {"phase": ph, "name": name, "calls": n} for (ph, name), n in sorted(self.counts.items())
            ],
        }


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Totals:
    """Per-name call counts, total seconds and self seconds."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)

    def add(self, name: str, caller: str, calls: int, seconds: float, self_seconds: float) -> None:
        for key in (name, f"{name}@{caller}"):
            self.calls[key] += calls
            self.seconds[key] += seconds
            self.self_seconds[key] += self_seconds

    def layer_self_seconds(self, layer: str) -> float:
        """Self time of every name in ``layer``."""
        return sum(s for name, s in self.self_seconds.items()
                   if "@" not in name and layer_of(name) == layer)
