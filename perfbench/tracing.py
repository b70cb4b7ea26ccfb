"""Span tracing of hamcolor's public functions, from outside the package.

``Tracer.install`` wraps every public module-level function of the traced
layers (plus ``Tree.distance_matrix`` and the search kernel's ``bnb_exact``)
and rebinds each name wherever hamcolor's modules hold a reference to it, so
calls between modules pass through the wrappers.  ``Tracer.uninstall`` puts
the originals back.  The ``bounds`` layer is not wrapped: it is O(1) after
``analyze`` and its time counts toward its caller.

Spans stay in memory as ``[name, start, end, parent, call_id, count]`` rows
(``parent`` is a row index or -1) and are written out once, at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "io", "tree", "ordering", "families", "solver")


def _count(name: str, result) -> int | None:
    """Work counted at the span boundary: violations found, nodes explored."""
    if name == "solver.verify_coloring":
        return len(result)
    if name == "solver.exact_hc":
        return result.explored
    if name == "solver.bnb_exact":
        return result[2]
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.call_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.call_id, None]
            idx = len(spans)
            spans.append(row)
            stack.append(idx)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            row[5] = _count(name, result)
            return result

        return traced

    def install(self) -> None:
        import hamcolor

        modules = [hamcolor] + [sys.modules[f"hamcolor.{m}"] for m in
                                ("cli", "io", "tree", "bounds", "ordering", "families", "solver")]
        originals: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"hamcolor.{layer}"]
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    originals[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                wrapped = originals.get(id(val))
                if wrapped is not None:
                    self._patch(mod, attr, val, wrapped)
        tree_cls = hamcolor.tree.Tree
        self._patch(tree_cls, "distance_matrix", tree_cls.distance_matrix,
                    self._wrap("tree.distance_matrix", tree_cls.distance_matrix))
        kernel = hamcolor.solver._kernel
        self._patch(kernel, "bnb_exact", kernel.bnb_exact, self._wrap("solver.bnb_exact", kernel.bnb_exact))

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original, wrapped))

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, call_id, count in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "call": call_id, "count": count}) + "\n")


def summarize(spans: list[list]) -> dict:
    """Per-call totals from the span rows.

    Returns, per call id: ``incl`` (inclusive time of each function name,
    counting only its outermost span so recursion or re-entry is not counted
    twice), ``self`` (self time per layer: span duration minus the time its
    child spans cover), ``count`` (summed span counts per function name),
    ``spans_of`` (spans per function name) and ``spans`` (all spans).
    """
    children_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            children_time[parent] += end - start
    calls: dict[int, dict] = defaultdict(lambda: {"incl": defaultdict(float), "self": defaultdict(float),
                                                   "count": defaultdict(int), "spans_of": defaultdict(int),
                                                   "spans": 0})
    for i, (name, start, end, parent, call_id, count) in enumerate(spans):
        rec = calls[call_id]
        rec["spans"] += 1
        rec["spans_of"][name] += 1
        rec["self"][name.split(".", 1)[0]] += (end - start) - children_time[i]
        if count is not None:
            rec["count"][name] += count
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            rec["incl"][name] += end - start
    return calls
