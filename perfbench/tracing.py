"""Spans and call counters for the traced run.

Spans are recorded from the benchmark's own files around the public calls
each job makes, kept in memory and written out at the end of the run.  Call
counters are installed by patching a name where the program looks it up, and
only in the traced run, so the untraced run executes unmodified code.
"""

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional


class Tracer:
    """Spans (name, start, end, parent, job) and counters for one process."""

    def __init__(self):
        self.spans: List[dict] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.job: Optional[int] = None
        # Distinct (quiver, slope, bound) engine keys the current job asks for.
        self.requests: set = set()
        # Quivers the current job has loaded, by path (see
        # workloads.install_counters).
        self.loaded: Dict[str, object] = {}
        self._open: List[int] = []
        self._patched: List[tuple] = []

    @contextmanager
    def span(self, name: str):
        # A layer re-entered from inside itself (a phase that calls a
        # wrapped function of the same layer) stays one span.
        if self._open and self.spans[self._open[-1]]["name"] == name:
            yield
            return
        rec = {"name": name, "start": perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None,
               "job": self.job}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace owner.attr until restore() is called."""
        self._patched.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every name patch() replaced, last one first."""
        while self._patched:
            owner, attr, orig = self._patched.pop()
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)

    def count(self, owner, attr: str, key: str,
              nonzero_key: Optional[str] = None) -> None:
        """Count calls of owner.attr under key; with nonzero_key, also count
        calls whose result is truthy.  A missing name is left alone."""
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        counts = self.counts

        if nonzero_key is None:
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return orig(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                counts[key] += 1
                out = orig(*args, **kwargs)
                if out:
                    counts[nonzero_key] += 1
                return out
        self.patch(owner, attr, wrapper)

    def time(self, owner, attr: str, span_name: str,
             key: Optional[str] = None) -> None:
        """Record a span (and optionally a count) around owner.attr."""
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        counts, span = self.counts, self.span

        def wrapper(*args, **kwargs):
            if key is not None:
                counts[key] += 1
            with span(span_name):
                return orig(*args, **kwargs)
        self.patch(owner, attr, wrapper)


def span_self_times(spans: List[dict]) -> List[float]:
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover."""
    children: Dict[int, List[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        reach = s["start"]
        for c in sorted(children.get(idx, ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s["end"] - s["start"]) - covered)
    return out


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Total self time per span name."""
    out: Dict[str, float] = defaultdict(float)
    for s, t in zip(spans, span_self_times(spans)):
        out[s["name"]] += t
    return dict(out)
