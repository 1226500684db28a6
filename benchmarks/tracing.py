"""In-memory spans recorded around calls into quper's layers.

The benchmark wraps the functions each layer exposes, at the module attribute
its caller looks up, so the program itself is not edited.  A span holds its
name, parent, start and end; self time is the span's duration minus the part
of it that its child spans cover.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# Span fields, stored as lists to keep per-call overhead low.
NAME, PARENT, START, END, NOTE = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.unpatched: list[str] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.clock(), None, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self._stack.pop()
        self.spans[sid][END] = self.clock()

    def wrap(self, name: str, fn, note=None):
        """fn recorded as span ``name``; note(args, kwargs, result) -> dict of
        counters summed per span name."""

        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if note is not None:
                self.spans[sid][NOTE] = note(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    @contextmanager
    def patched(self, targets):
        """Replace each (module, attribute, span name[, note]) by its traced
        wrapper for the duration of the block.  A target that no longer exists
        is listed in ``unpatched``; its span then reports as missing."""
        saved = []
        try:
            for module, attr, name, *note in targets:
                mod = importlib.import_module(module)
                if not hasattr(mod, attr):
                    self.unpatched.append(f"{module}.{attr}")
                    continue
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(name, fn, *note))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def self_times(self) -> list[float]:
        """Duration minus child coverage, for every span."""
        children: dict[int, list[int]] = defaultdict(list)
        for sid, s in enumerate(self.spans):
            if s[PARENT] >= 0:
                children[s[PARENT]].append(sid)
        out = []
        for sid, s in enumerate(self.spans):
            lo, hi = s[START], s[END]
            covered, reach = 0.0, lo
            for cid in children.get(sid, ()):
                c_lo = max(self.spans[cid][START], reach)
                c_hi = min(self.spans[cid][END], hi)
                if c_hi > c_lo:
                    covered += c_hi - c_lo
                    reach = c_hi
            out.append((hi - lo) - covered)
        return out

    def roots(self) -> list[str]:
        """Name of the outermost span above each span (itself if top level)."""
        out: list[str] = []
        for s in self.spans:
            out.append(s[NAME] if s[PARENT] < 0 else out[s[PARENT]])
        return out

    def summary(self, roots=None) -> dict[str, dict]:
        """Per span name: calls, total_s, self_s and summed note counters,
        over spans whose outermost span is named in ``roots`` (all if None)."""
        selfs = self.self_times()
        top = self.roots()
        out: dict[str, dict] = {}
        for sid, s in enumerate(self.spans):
            if roots is not None and top[sid] not in roots:
                continue
            agg = out.setdefault(
                s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            agg["calls"] += 1
            agg["total_s"] += s[END] - s[START]
            agg["self_s"] += selfs[sid]
            for key, value in (s[NOTE] or {}).items():
                agg[key] = agg.get(key, 0) + value
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, s in enumerate(self.spans):
                rec = {
                    "id": sid,
                    "name": s[NAME],
                    "parent": s[PARENT],
                    "start": s[START],
                    "end": s[END],
                }
                if s[NOTE]:
                    rec["note"] = s[NOTE]
                fh.write(json.dumps(rec) + "\n")
