"""Span recorder for the traced run.

For the duration of a traced run, :class:`Tracer` swaps module functions
for timing wrappers. The package's modules call each other through module
attributes (``gaussfilt.predict``, ``kinematics.transition``) or through
their own module globals, so a swapped attribute sees every call. Each
call leaves one span: name, tag, start, end and the enclosing span. Spans
live in compact arrays while the run lasts and are written out when it
ends. The program's code is not changed.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from typing import Callable, Optional

import numpy as np

ROOT = "bench.root"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.tags: list[str] = []
        self._tag_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.tag_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._saved: list[tuple] = []
        self.captures: dict[str, list] = {}
        self._root_id = self._name(ROOT)

    def _name(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _tag(self, tag: str) -> int:
        tid = self._tag_ids.get(tag)
        if tid is None:
            tid = self._tag_ids[tag] = len(self.tags)
            self.tags.append(tag)
        return tid

    def _open(self, nid: int, tid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.tag_id.append(tid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def wrap(
        self,
        module,
        attr: str,
        tagger: Optional[Callable] = None,
        capture_every: int = 0,
        capture_max: int = 0,
    ) -> None:
        """Swap ``module.attr`` for a wrapper that records one span per call.

        ``tagger(args, kwargs)`` labels the span (filter, case, ...); every
        ``capture_every``-th call keeps its arguments and result, up to
        ``capture_max``, for the checks made after the run.
        """
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        nid = self._name(name)
        no_tag = self._tag("")
        captured = self.captures.setdefault(name, [])
        calls = [0]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid = tracer._tag(tagger(args, kwargs)) if tagger else no_tag
            idx = tracer._open(nid, tid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if capture_every:
                calls[0] += 1
                if (calls[0] - 1) % capture_every == 0 and len(captured) < capture_max:
                    captured.append((args, kwargs, out))
            return out

        setattr(module, attr, wrapper)
        self._saved.append((module, attr, fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    @contextlib.contextmanager
    def root(self):
        """Span around one timed section of the workload."""
        idx = self._open(self._root_id, self._tag(""))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    # -- reduction --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "tag_id": np.frombuffer(self.tag_id, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), tags=np.array(self.tags), **self.arrays()
        )

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, self.tags, self.arrays())


class SpanSummary:
    """Per (name, tag) call counts, total time and self time, in seconds.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """

    def __init__(self, names: list[str], tags: list[str], a: dict[str, np.ndarray]):
        self.names = names
        self.tags = tags
        dur = a["end"] - a["start"]
        parent = a["parent"]
        has_parent = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        self.n_spans = len(dur)
        root = a["name_id"] == names.index(ROOT)
        self.root_s = float(dur[root].sum())
        self.self_sum_s = float(self_t.sum())
        # every child lies inside its parent's interval
        p = parent[has_parent]
        self.nested = bool(
            np.all(a["start"][has_parent] >= a["start"][p])
            and np.all(a["end"][has_parent] <= a["end"][p])
            and np.all(parent[root] == -1)
            and np.all(has_parent[~root])
        )
        self._agg: dict[tuple[str, str], tuple[int, float, float]] = {}
        key = a["name_id"] * max(len(tags), 1) + a["tag_id"]
        for k in np.unique(key):
            sel = key == k
            nid, tid = divmod(int(k), max(len(tags), 1))
            self._agg[names[nid], tags[tid]] = (
                int(sel.sum()),
                float(dur[sel].sum()),
                float(self_t[sel].sum()),
            )

    def _sum(self, name: str, tag: Optional[str], field: int) -> float:
        return sum(
            v[field]
            for (n, t), v in self._agg.items()
            if n == name and (tag is None or t == tag)
        )

    def count(self, name: str, tag: Optional[str] = None) -> int:
        return int(self._sum(name, tag, 0))

    def total(self, name: str, tag: Optional[str] = None) -> float:
        return self._sum(name, tag, 1)

    def self_time(self, name: str, tag: Optional[str] = None) -> float:
        return self._sum(name, tag, 2)

    def tags_of(self, name: str) -> list[str]:
        return [t for (n, t) in self._agg if n == name]

    def layer_self(self) -> dict[str, float]:
        """Self time summed by module (the span name's first component)."""
        out: dict[str, float] = {}
        for (n, _), v in self._agg.items():
            layer = n.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + v[2]
        return out
