"""Span recorder that wraps kernelpaint's public functions from outside.

``Recorder.install()`` replaces every public function of the traced modules,
under every name a kernelpaint module binds it to (``kernelpaint.graphs.
canonical_key`` and ``kernelpaint.harness.canonical_key`` are the same object,
so both names get the same wrapper), plus ``PaintabilitySolver.wins`` and
the painter that ``make_kernel_painter`` returns.
``Recorder.restore()`` puts every original object back.  Nothing under
``src/`` is edited.

A span records name, start, end and parent; spans live in memory until
``write_spans`` is called.  Self time is a span's busy time minus the time
its child spans cover.  Calls to the hot leaves (``LEAVES``) make no span:
their count and time are added under the enclosing span, which keeps the
trace bounded on the 145k ``canonical_key`` calls of an n = 8 enumeration.
A generator function (``enumerate_graphs``) yields one span whose busy time
is the sum of its resumptions; the consumer's work between resumptions is
not charged to it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

TRACED_MODULES = ("graphs", "graph6", "structure", "orient", "reduce", "verify", "harness")
LEAVES = frozenset({
    "graphs.canonical_key",
    "graph6.encode_graph6",
    "orient.find_kernel",
    "verify.painter",
})
ENUMERATORS = frozenset({"graphs.enumerate_graphs", "graphs.enumerate_triangle_free"})
SOLVER_WINS = "verify.PaintabilitySolver.wins"
PAINTER = "verify.painter"

clock = time.monotonic  # CLOCK_MONOTONIC on Linux: comparable across processes


class Span:
    __slots__ = ("name", "parent", "start", "end", "busy", "child", "leaves")

    def __init__(self, name: str, parent: "Span | None", start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.busy = 0.0    # time inside the span; end - start unless it is a generator
        self.child = 0.0   # part of busy covered by child spans and leaf calls
        self.leaves: dict[str, list] = {}  # name -> [calls, busy, self]


class _Leaf:
    __slots__ = ("child", "leaves")

    def __init__(self):
        self.child = 0.0
        self.leaves: dict[str, list] = {}


def _merge_leaves(into: dict, leaves: dict) -> None:
    for name, (calls, busy, own) in leaves.items():
        agg = into.get(name)
        if agg is None:
            into[name] = [calls, busy, own]
        else:
            agg[0] += calls
            agg[1] += busy
            agg[2] += own


class Recorder:
    """Collects spans from wrapped kernelpaint functions in one process."""

    def __init__(self, root_start: float | None = None):
        self.root = Span("workload", None, clock() if root_start is None else root_start)
        self.stack: list = [self.root]
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {
            "graphs.classes": 0,
            "graph6.graphs_read": 0,
            "verify.game_states": 0,
            "verify.solver_states": 0,
        }
        self._classes: dict[int, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller, as a child of the current span."""
        parent = self.stack[-1]
        span = Span(name, parent, start)
        span.end = end
        span.busy = end - start
        parent.child += span.busy
        self.spans.append(span)

    def _enter(self, name: str) -> Span:
        span = Span(name, self.stack[-1], clock())
        self.stack.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = clock()
        self.stack.pop()
        span.busy += span.end - span.start
        span.parent.child += span.end - span.start
        self.spans.append(span)

    def span(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = rec._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec._exit(span)

        return wrapper

    def leaf(self, name: str, fn):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Leaf()
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = clock() - start
                stack.pop()
                parent = stack[-1]
                parent.child += busy
                agg = parent.leaves.get(name)
                if agg is None:
                    parent.leaves[name] = agg = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += busy
                agg[2] += busy - frame.child
                if frame.leaves:
                    _merge_leaves(parent.leaves, frame.leaves)

        return wrapper

    def generator(self, name: str, fn, on_item=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, rec.stack[-1], clock())
            gen = fn(*args, **kwargs)
            try:
                while True:
                    rec.stack.append(span)
                    start = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        span.end = clock()
                        rec.stack.pop()
                        span.busy += span.end - start
                        span.parent.child += span.end - start
                    if on_item is not None:
                        on_item(item)
                    yield item
            finally:
                gen.close()
                rec.spans.append(span)

        return wrapper

    # -- wrappers with counters -----------------------------------------------

    def _wrap_read(self, name: str, fn):
        wrapped = self.span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            graphs = wrapped(*args, **kwargs)
            self.counters["graph6.graphs_read"] += len(graphs)
            return graphs

        return wrapper

    def _wrap_game(self, name: str, fn):
        wrapped = self.span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outcome = wrapped(*args, **kwargs)
            self.counters["verify.game_states"] += outcome.states_explored
            return outcome

        return wrapper

    def _wrap_painter_factory(self, name: str, fn):
        wrapped = self.span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.leaf(PAINTER, wrapped(*args, **kwargs))

        return wrapper

    def _wrap_wins(self, fn):
        wrapped = self.span(SOLVER_WINS, fn)

        @functools.wraps(fn)
        def wins(solver, *args, **kwargs):
            before = len(solver.memo)
            try:
                return wrapped(solver, *args, **kwargs)
            finally:
                self.counters["verify.solver_states"] += len(solver.memo) - before

        return wins

    def _count_class(self, g) -> None:
        # the level cache hands out the same objects again; count each class once
        self._classes.setdefault(id(g), g)

    def _wrapper_for(self, name: str, fn):
        if name in LEAVES:
            return self.leaf(name, fn)
        if name == "graph6.read_graph6_file":
            return self._wrap_read(name, fn)
        if name == "verify.play_paint_game":
            return self._wrap_game(name, fn)
        if name == "verify.make_kernel_painter":
            return self._wrap_painter_factory(name, fn)
        if inspect.isgeneratorfunction(fn):
            return self.generator(name, fn, self._count_class if name in ENUMERATORS else None)
        return self.span(name, fn)

    # -- install / restore ----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the traced modules under every
        kernelpaint binding of it."""
        if self._patched:
            raise RuntimeError("recorder already installed")
        import kernelpaint
        from kernelpaint.verify import PaintabilitySolver

        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "kernelpaint" or key.startswith("kernelpaint."))]
        for short in TRACED_MODULES:
            module = getattr(kernelpaint, short)
            for attr, fn in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrapper_for(f"{short}.{attr}", fn)
                for mod in modules:
                    for bound, value in list(vars(mod).items()):
                        if value is fn:
                            self._patched.append((mod, bound, fn))
                            setattr(mod, bound, wrapper)
        original = PaintabilitySolver.__dict__["wins"]
        self._patched.append((PaintabilitySolver, "wins", original))
        PaintabilitySolver.wins = self._wrap_wins(original)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def finish(self, end: float | None = None) -> None:
        """Close the root span; call once all measured work is done."""
        root = self.root
        root.end = clock() if end is None else end
        root.busy = root.end - root.start
        self.counters["graphs.classes"] = len(self._classes)

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per name: calls, busy seconds (outermost calls only) and self seconds."""
        out: dict[str, dict[str, float]] = {}

        def add(name, calls, busy, own):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += calls
            row["busy_s"] += busy
            row["self_s"] += own

        for span in [self.root, *self.spans]:
            nested = False
            p = span.parent
            while p is not None:
                if p.name == span.name:
                    nested = True
                    break
                p = p.parent
            add(span.name, 1, 0.0 if nested else span.busy, span.busy - span.child)
            for name, (calls, busy, own) in span.leaves.items():
                # a leaf never runs inside a call of the same leaf
                add(name, calls, busy, own)
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span: id, name, start, end, busy, self, parent id."""
        spans = [self.root, *self.spans]
        ids = {id(span): i for i, span in enumerate(spans)}
        with open(path, "w", encoding="ascii") as fh:
            for i, span in enumerate(spans):
                parent = None if span.parent is None else ids.get(id(span.parent))
                row = [i, span.name, span.start, span.end, span.busy,
                       span.busy - span.child, parent]
                if span.leaves:
                    row.append(span.leaves)
                fh.write(json.dumps(row) + "\n")
