"""In-memory span recorder and the wrappers that feed it.

A span is (name, start, end, parent, operation id).  Spans are kept in
flat arrays while the benchmark runs and written out once at the end.
Layers are traced from outside the package: each public function is
replaced, where its caller looks it up, by a wrapper that opens a span,
calls through and closes the span.  While the recorder is inactive the
wrappers call straight through and record nothing.
"""

from __future__ import annotations

import csv
import functools
import gzip
import time
from array import array


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.active = False
        self.op_id = -1
        self.counters: dict[str, float] = {}
        self._patches: list = []

    def __len__(self) -> int:
        return len(self.start)

    # -- recording -----------------------------------------------------------

    def open(self, name: str, now: float) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.start.append(now)
        self.end.append(now)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, now: float) -> None:
        self.end[idx] = now
        self._stack.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        if self.active:
            self.counters[key] = self.counters.get(key, 0.0) + amount

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``on_result(args, kwargs, result)`` runs after each traced call, for
        counts read from arguments or results.
        """
        clock = time.perf_counter
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.open(name, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx, clock())
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the part of its interval children cover."""
        n = len(self.start)
        children: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                children[p].append(i)
        out = [0.0] * n
        for i in range(n):
            lo, hi = self.start[i], self.end[i]
            covered = 0.0
            cur_lo = cur_hi = None
            for c in sorted(children[i], key=lambda k: self.start[k]):
                a, b = max(self.start[c], lo), min(self.end[c], hi)
                if b <= a:
                    continue
                if cur_hi is None or a > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = a, b
                else:
                    cur_hi = max(cur_hi, b)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[i] = (hi - lo) - covered
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, summed duration and summed self time."""
        self_t = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for i in range(len(self.start)):
            agg = out.setdefault(self.names[self.name_id[i]],
                                 {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += self.end[i] - self.start[i]
            agg["self_s"] += self_t[i]
        return out

    def write_csv_gz(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "name", "start", "end", "parent", "op"])
            for i in range(len(self.start)):
                w.writerow([i, self.names[self.name_id[i]], repr(self.start[i]),
                            repr(self.end[i]), self.parent[i], self.op[i]])
