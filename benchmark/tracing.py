"""Run-time tracing of the program's layers, installed from outside.

``Tracer.install`` replaces the program's functions and methods with timing
wrappers on every name the program looks them up by: module globals
(including the copies that ``from .x import f`` made in other modules) and
class attributes for methods.  No source file changes, and ``uninstall``
puts every original back.

Each wrapped call is a span (name, start, end, parent).  Spans are kept in
memory and written to one JSON file at the end.  Calls made many times per
op (methods, the finite-difference helpers) are folded: per enclosing
recorded span and name they keep only a call count, their inclusive time
and their self time, so a search's hundreds of thousands of right-hand-side
calls do not become as many span records.  A span's self time is its
duration minus its children's; a layer's self time is the sum over its
spans and folded calls.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "models", "subriemannian", "variations", "numdiff", "core",
    "dhomothety", "quotient", "functionals", "cli",
)
BENCH = "bench"
# Layers whose calls into themselves stay part of the outer call: a model
# method calling another model method, or a deformed model its source model,
# is not a call the program makes into the models and is not counted again.
CLOSED = ("models",)


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, start, end, parent id, self seconds]
        # (enclosing span id, name) -> [calls, inclusive seconds, self seconds]
        self.folded = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(float)
        # open frames: [id (None when folded), name, start, child seconds, anchor]
        # where the anchor is the id of the innermost recorded frame, itself included
        self._stack = []
        self._next_id = 0
        self._patches = []
        self.active = False

    # -- spans --------------------------------------------------------------
    def _open(self, name, fold):
        anchor = self._stack[-1][4] if self._stack else None
        span_id = None
        if not fold or anchor is None:
            self._next_id += 1
            span_id = anchor = self._next_id
        frame = [span_id, name, perf_counter(), 0.0, anchor]
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        end = perf_counter()
        self._stack.pop()
        span_id, name, start, child_s, anchor = frame
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        if span_id is None:
            entry = self.folded[(anchor, name)]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_s
        else:
            parent = self._stack[-1][4] if self._stack else None
            self.spans.append([span_id, name, start, end, parent, duration - child_s])

    def run_span(self, name, fn):
        """Call ``fn`` with tracing on, inside a root span ``name``."""
        self.active = True
        frame = self._open(name, fold=False)
        try:
            return fn()
        finally:
            self._close(frame)
            self.active = False

    def wrap(self, fn, name, hook=None, fold=False):
        tracer = self
        layer = name.split(".", 1)[0]
        closed = fold and layer in CLOSED

        def traced(*args, **kwargs):
            stack = tracer._stack
            # a folded call made from inside a folded call of the same name,
            # or of the same closed layer, is part of that call
            if not tracer.active or (fold and stack and (
                    stack[-1][1] == name
                    or (closed and stack[-1][1].split(".", 1)[0] == layer))):
                return fn(*args, **kwargs)
            frame = tracer._open(name, fold)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if hook is not None:
                hook(tracer.counters, args, out)
            return out

        return traced

    # -- installation -------------------------------------------------------
    def install(self, package, targets):
        """Wrap every target on every name the package binds it to.

        ``targets`` holds (span name, owner, attribute, hook, fold) tuples,
        where the owner is a module or a class.
        """
        modules = [m for k, m in sys.modules.items()
                   if k == package or k.startswith(package + ".")]
        for name, owner, attr, hook, fold in targets:
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, (classmethod, staticmethod)):
                wrapper = type(original)(self.wrap(original.__func__, name, hook, fold))
            else:
                wrapper = self.wrap(original, name, hook, fold)
            self._patch(owner, attr, original, wrapper)
            if inspect.isclass(owner):
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original and mod is not owner:
                        self._patch(mod, key, original, wrapper)
            # the same function reached under another name in its own module
            for key, value in list(vars(owner).items()):
                if value is original and key != attr:
                    self._patch(owner, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------
    def totals(self):
        """Per span name: [calls, inclusive seconds, self seconds]."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for _, name, start, end, _, self_s in self.spans:
            t = out[name]
            t[0] += 1
            t[1] += end - start
            t[2] += self_s
        for (_, name), (calls, seconds, self_s) in self.folded.items():
            t = out[name]
            t[0] += calls
            t[1] += seconds
            t[2] += self_s
        return out

    def layer_self(self):
        out = dict.fromkeys(LAYERS + (BENCH,), 0.0)
        for name, (_, _, self_s) in self.totals().items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def wall(self):
        """Summed duration of the root spans."""
        return sum(end - start for _, _, start, end, parent, _ in self.spans if parent is None)

    def dump(self, path, extra):
        names = sorted({s[1] for s in self.spans} | {n for _, n in self.folded})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "spans_columns": ["id", "name", "start", "end", "parent", "self_s"],
            "spans": [[s[0], index[s[1]], s[2], s[3], s[4], s[5]] for s in self.spans],
            "folded_columns": ["parent", "name", "calls", "seconds", "self_s"],
            "folded": [[p, index[n], *v] for (p, n), v in self.folded.items()],
            "counters": dict(self.counters),
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
