"""Span tracing from outside the package, for the benchmark's traced run.

`Tracer.install` replaces each traced function at every module attribute of
`petrialign` that refers to it, which is where callers look it up: a wrapper
installed on `petrialign.engine.structural_class` is seen by the dispatcher,
and one on `petrialign.acyclic.structural_class` by the acyclic solver.
`uninstall` puts the originals back.  A traced name that no longer exists is
recorded as absent instead of failing the run.

Spans are kept in memory as (name, start, end, parent, op id, error) and
written out at the end; self times and counts are derived from them.
"""

from __future__ import annotations

import json
import sys
import time

# span name -> (module, attribute)
SPANNED = {
    "classify.structural": ("petrialign.classify", "structural_class"),
    "classify.behavioral": ("petrialign.classify", "behavioral_class"),
    "products.trace_system": ("petrialign.products", "trace_system"),
    "products.sync_product": ("petrialign.products", "synchronous_product"),
    "products.reach_graph": ("petrialign.products", "build_reachability_graph"),
    "products.rg_product": ("petrialign.products", "product_of_reach_graphs"),
    "engine.dispatch": ("petrialign.engine", "dispatch_align"),
    "engine.generic": ("petrialign.engine", "optimal_alignment"),
    "engine.search": ("petrialign.engine", "dijkstra_least_cost"),
    "engine.member": ("petrialign.engine", "membership"),
    "ssystem.solve": ("petrialign.ssystem", "optimal_alignment_ssystem"),
    "acyclic.solve": ("petrialign.acyclic", "optimal_alignment_acyclic"),
    "acyclic.schedule": ("petrialign.acyclic", "_schedule_counts"),
    "netio.parse": ("petrialign.netio", "parse_net"),
    "trees.to_wfnet": ("petrialign.trees", "tree_to_wfnet"),
}

# counter name -> (module, attribute); counted only, never timed
COUNTED = {
    "petri.fire": ("petrialign.petri", "fire"),
    "petri.enabled": ("petrialign.petri", "enabled_transitions"),
}

# span name -> amount taken from the wrapped call's return value
AMOUNTS = {
    "classify.behavioral": lambda r: r.states_explored,
    "products.sync_product": lambda r: len(r.net.transitions),
    "products.rg_product": lambda r: len(r.vertices),
    "acyclic.schedule": lambda r: r is not None,
}

NAME, START, END, PARENT, OP, ERROR = range(6)


class Spans:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.records: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.amounts: dict[str, int] = {}
        self.counts: dict[str, int] = {}

    def begin(self, name: str) -> int:
        index = len(self.records)
        parent = self.stack[-1] if self.stack else None
        self.records.append([name, time.perf_counter(), None, parent, self.op, None])
        self.stack.append(index)
        return index

    def end(self, error: str | None = None) -> None:
        record = self.records[self.stack.pop()]
        record[END] = time.perf_counter()
        record[ERROR] = error

    def by_name(self, name: str) -> list[list]:
        return [r for r in self.records if r[NAME] == name]

    def total(self, name: str) -> float:
        return sum(r[END] - r[START] for r in self.by_name(name))

    def self_time(self, name: str) -> float:
        """Time inside spans of `name` not covered by their child spans."""
        child_time: dict[int, float] = {}
        for r in self.records:
            if r[PARENT] is not None:
                child_time[r[PARENT]] = child_time.get(r[PARENT], 0.0) + r[END] - r[START]
        return sum(r[END] - r[START] - child_time.get(i, 0.0)
                   for i, r in enumerate(self.records) if r[NAME] == name)

    def errors(self, name: str, kind: str) -> int:
        return sum(1 for r in self.by_name(name) if r[ERROR] == kind)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for i, r in enumerate(self.records):
                out.write(json.dumps({"id": i, "name": r[NAME], "start": r[START],
                                      "end": r[END], "parent": r[PARENT], "op": r[OP],
                                      "error": r[ERROR]}) + "\n")


def _spanned(spans: Spans, name: str, func):
    amount = AMOUNTS.get(name)

    def wrapper(*args, **kwargs):
        spans.begin(name)
        try:
            result = func(*args, **kwargs)
        except BaseException as exc:
            spans.end(type(exc).__name__)
            raise
        spans.end()
        if amount is not None:
            spans.amounts[name] = spans.amounts.get(name, 0) + amount(result)
        return result

    return wrapper


def _counted(spans: Spans, name: str, func):
    counts = spans.counts
    counts[name] = 0

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return func(*args, **kwargs)

    return wrapper


class Tracer:
    def __init__(self, spans: Spans):
        self.spans = spans
        self.absent: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "petrialign" or n.startswith("petrialign."))]
        for table, make in ((SPANNED, _spanned), (COUNTED, _counted)):
            for name, (module_name, attr) in table.items():
                original = getattr(sys.modules.get(module_name), attr, None)
                if original is None:
                    self.absent.add(name)
                    continue
                wrapper = make(self.spans, name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()
