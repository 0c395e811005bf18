"""Spans around the calls into each spinetorsion module, recorded from outside.

The tracer patches public functions and methods where they are looked up:
a module-level function is replaced in every loaded ``spinetorsion`` module
that holds it (``spinetorsion.census.triangulation_encoding`` as well as
``spinetorsion.spine.triangulation_encoding``), and a method is replaced on
its class, so calls made inside the package are seen too.  Nothing under
``src/`` is edited.

Spans (name, start, end, parent) are kept in memory in parallel lists and
written out by ``dump``.  A span's self time is its duration minus the
durations of its direct children, so ``select_columns`` does not count the
``rank`` calls it makes and ``torsion`` does not count its eliminations.
"""

import importlib
import json
import sys
import time

# (module, attribute, span name).  Attribute "Class.method" patches a method;
# "Class" alone patches the constructor (and, for Representation, the
# classmethods that build one).
TARGETS = [
    ("spinetorsion.spinefile", "parse", "spinefile.parse"),
    ("spinetorsion.spinefile", "serialize", "spinefile.serialize"),
    ("spinetorsion.triangulation", "Triangulation", "triangulation.Triangulation"),
    ("spinetorsion.spine", "BranchedSpine", "spine.BranchedSpine"),
    ("spinetorsion.spine", "triangulation_encoding", "spine.triangulation_encoding"),
    ("spinetorsion.spine", "BranchedSpine.canonical_encoding", "spine.canonical_encoding"),
    ("spinetorsion.spine", "enumerate_branchings", "spine.enumerate_branchings"),
    ("spinetorsion.census", "enumerate_triangulations", "census.enumerate_triangulations"),
    ("spinetorsion.census", "census_branched", "census.census_branched"),
    ("spinetorsion.complexes", "CellComplexX", "complexes.CellComplexX"),
    ("spinetorsion.complexes", "GroupData", "complexes.GroupData"),
    ("spinetorsion.complexes", "SpiderAnchors", "complexes.SpiderAnchors"),
    ("spinetorsion.complexes", "Representation", "complexes.Representation"),
    ("spinetorsion.complexes", "TwistedComplex", "complexes.TwistedComplex"),
    ("spinetorsion.intlinalg", "smith_normal_form", "intlinalg.smith_normal_form"),
    ("spinetorsion.torsion", "torsion", "torsion.torsion"),
    ("spinetorsion.torsion", "auto_twisted_homology", "torsion.auto_twisted_homology"),
    ("spinetorsion.torsion", "sign_refined_torsion", "torsion.sign_refined_torsion"),
    ("spinetorsion.torsion", "invariance_suite", "torsion.invariance_suite"),
    ("spinetorsion.moves", "available_moves", "moves.available_moves"),
    ("spinetorsion.moves", "apply_positive", "moves.apply_positive"),
    ("spinetorsion.moves", "apply_negative", "moves.apply_negative"),
    ("spinetorsion.moves", "h_cycle_check", "moves.h_cycle_check"),
    ("spinetorsion.moves", "random_walk", "moves.random_walk"),
    ("spinetorsion.moves", "transport_representation", "moves.transport_representation"),
    ("spinetorsion.moves", "transport_homology", "moves.transport_homology"),
    ("spinetorsion.moves", "transport_rational_homology",
     "moves.transport_rational_homology"),
]
FIELD_METHODS = ("rank", "det", "select_columns", "nullspace", "solve")
for _cls in ("FunctionField", "CyclotomicField"):
    for _m in FIELD_METHODS:
        TARGETS.append(("spinetorsion.fields", "%s.%s" % (_cls, _m),
                        "fields.%s.%s" % (_cls, _m)))
SYMPY_GCD = ("sympy.polys.rings", "PolyElement.gcd", "fields.sympy_gcd")
TARGETS.append(SYMPY_GCD)

# Representation is built through these classmethods; each gets the same span.
_REPRESENTATION_CONSTRUCTORS = ("trivial", "free_abelian", "cyclic")

# Spans that also record a number taken from the call's result.
_RESULT_MEASURES = {
    "census.census_branched": len,
    "census.enumerate_triangulations": len,
    "moves.h_cycle_check": lambda report: int(report.is_null),
}


class Tracer:
    """In-memory span recorder with patch/unpatch of the TARGETS."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = []
        self.start = []
        self.end = []
        self.parent = []
        self.raised = []
        self.cells = []
        self.measured = []
        self._stack = []
        self._undo = []

    def _span(self, name, fn, cells_of=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        raised, cells, measured, stack = self.raised, self.cells, self.measured, self._stack
        measure = _RESULT_MEASURES.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            raised.append(False)
            cells.append(cells_of(args) if cells_of else 0)
            measured.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                raised[idx] = True
                stack.pop()
                raise
            end[idx] = clock()
            stack.pop()
            if measure:
                measured[idx] = measure(out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Patch every target.  Call ``uninstall`` to restore the originals."""
        for mod_name, attr, span in TARGETS:
            mod = importlib.import_module(mod_name)
            head, _, meth = attr.partition(".")
            obj = getattr(mod, head)
            if meth:
                cells_of = _rank_cells if meth == "rank" else None
                self._set(obj, meth, self._span(span, obj.__dict__[meth], cells_of))
            elif isinstance(obj, type):
                self._set(obj, "__init__", self._span(span, obj.__init__))
                if head == "Representation":
                    for ctor in _REPRESENTATION_CONSTRUCTORS:
                        func = obj.__dict__[ctor].__func__
                        self._set(obj, ctor, classmethod(self._span(span, func)))
            else:
                wrapped = self._span(span, obj)
                for holder in list(sys.modules.values()):
                    if getattr(holder, "__name__", "").startswith("spinetorsion"):
                        for key, value in list(vars(holder).items()):
                            if value is obj:
                                self._set(holder, key, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- derived numbers ---------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the duration of direct children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def summary(self):
        """Per span name: calls, self seconds, calls that raised, rank cells
        and the sum of the numbers measured from results."""
        own = self.self_times()
        out = {name: empty_row() for name in self.names}
        for i, nid in enumerate(self.name_id):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["s"] += own[i]
            row["raised"] += self.raised[i]
            row["cells"] += self.cells[i]
            row["measured"] += self.measured[i]
        return out

    def count_under(self, name, ancestor, raised_only=False):
        """Spans called ``name`` that have a span called ``ancestor`` above them."""
        nid = self._name_ids.get(name)
        aid = self._name_ids.get(ancestor)
        if nid is None or aid is None:
            return 0
        total = 0
        for i, n in enumerate(self.name_id):
            if n != nid or (raised_only and not self.raised[i]):
                continue
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != aid:
                p = self.parent[p]
            total += p >= 0
        return total

    def dump(self, path, extra=None):
        """Write the spans as JSON: a name table and one [name, start, end,
        parent, raised] row per span, times relative to the first span."""
        t0 = self.start[0] if self.start else 0.0
        rows = [[n, round(s - t0, 7), round(e - t0, 7), p, int(r)]
                for n, s, e, p, r in zip(self.name_id, self.start, self.end,
                                         self.parent, self.raised)]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "columns":
                       ["name", "start_s", "end_s", "parent", "raised"],
                       "spans": rows, "extra": extra or {}}, fh,
                      separators=(",", ":"))


def empty_row():
    return {"calls": 0, "s": 0.0, "raised": 0, "cells": 0, "measured": 0}


def _rank_cells(args):
    matrix = args[1]
    return len(matrix) * len(matrix[0]) if matrix and matrix[0] else 0
