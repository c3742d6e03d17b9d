"""Spans around calls into rankpit's public functions, and the per-layer
metrics computed from them.

`Tracer.install()` replaces each traced function in every rankpit module
namespace (and class) where callers look it up, so both
`rankpit.pit.evaluate_circuit` and `rankpit.circuit.evaluate_circuit` are
wrapped; `uninstall()` restores the originals.  The program's code is not
edited.  Each call records a span (name, start, end, parent span, op id) in
columnar arrays kept in memory; `save()` writes them out when the run ends.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans.  `PrimeField.coerce` is only counted: it runs
millions of times per pass and a span per call would dominate the trace.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

# span name -> (module, attribute path) of the function it wraps
SPANNED = {
    "pit.pit_test": ("rankpit.pit", "pit_test"),
    "pit.hitting_set": ("rankpit.pit", "hitting_set"),
    "pit.support_bound": ("rankpit.pit", "support_bound"),
    "circuit.evaluate_circuit": ("rankpit.circuit", "evaluate_circuit"),
    "circuit.parse": ("rankpit.circuit", "parse"),
    "poly.Polynomial.evaluate": ("rankpit.poly", "Polynomial.evaluate"),
    "poly.Polynomial.mul": ("rankpit.poly", "Polynomial.mul"),
    "poly.Polynomial.translate": ("rankpit.poly", "Polynomial.translate"),
    "poly.Polynomial.partial_derivative": ("rankpit.poly",
                                           "Polynomial.partial_derivative"),
    "poly.compose": ("rankpit.poly", "compose"),
    "algdep.find_annihilator": ("rankpit.algdep", "find_annihilator"),
    "algdep.sample_good_translation": ("rankpit.algdep", "sample_good_translation"),
    "algdep.reconstruct_dependence": ("rankpit.algdep", "reconstruct_dependence"),
    "algdep.newton_reconstruct": ("rankpit.algdep", "newton_reconstruct"),
    "algdep.algebraic_rank": ("rankpit.algdep", "algebraic_rank"),
    "linalg.rref_dense": ("rankpit.linalg", "rref_dense"),
    "linalg.solve_dense": ("rankpit.linalg", "solve_dense"),
    "linalg.nullspace_modp": ("rankpit.linalg", "nullspace_modp"),
    "linalg.rank_dense": ("rankpit.linalg", "rank_dense"),
    "linalg.rank_stream": ("rankpit.linalg", "rank_stream"),
    "measure.psp_dimension": ("rankpit.measure", "psp_dimension"),
    "nw.nw_polynomial": ("rankpit.nw", "nw_polynomial"),
    "nw.hard_polynomial": ("rankpit.nw", "hard_polynomial"),
    "nw.restrict": ("rankpit.nw", "restrict"),
    "nw.extract_nw_projection": ("rankpit.nw", "extract_nw_projection"),
    "cli.run": ("rankpit.cli", "run"),
}
COUNTED = {"domains.PrimeField.coerce": ("rankpit.domains", "PrimeField.coerce")}

# Spans whose name carries a label: the rank mode and the measure domain.
LABELS = {
    "algdep.algebraic_rank": (
        ("symbolic", "randomized"),
        lambda args, kwargs: kwargs.get("mode", args[1] if len(args) > 1
                                        else "randomized")),
    "measure.psp_dimension": (
        ("Q", "Fp"),
        lambda args, kwargs: "Q" if args[0].domain.characteristic == 0 else "Fp"),
}


def span_names() -> list:
    """Every span name a trace can hold, labels expanded."""
    names = []
    for name in SPANNED:
        if name in LABELS:
            names += [f"{name}.{label}" for label in LABELS[name][0]]
        else:
            names.append(name)
    return names


class Tracer:
    """Spans and counters of one traced run; install() to record."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.op_id = -1            # -1: set-up (loading the inputs)
        self.counts: Counter = Counter()
        self.distinct_annihilators: set = set()
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _spanned(self, name, fn):
        label = LABELS.get(name, (None, None))[1]
        before, after = _BEFORE.get(name), _AFTER.get(name)
        fixed_id = self._name_id(name) if label is None else None
        stack = self._stack

        def wrapper(*args, **kwargs):
            nid = (fixed_id if label is None
                   else self._name_id(f"{name}.{label(args, kwargs)}"))
            if before is not None:
                args = before(self, args)
            idx = len(self.start)
            self.start.append(perf_counter())
            self.end.append(0.0)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        targets = [(name, spec, self._spanned) for name, spec in SPANNED.items()]
        targets += [(name, spec, self._counted) for name, spec in COUNTED.items()]
        modules = [m for key, m in sys.modules.items()
                   if key == "rankpit" or key.startswith("rankpit.")]
        for name, (modname, path), make in targets:
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = make(name, original)
            if outer:  # a method: the class is where every caller finds it
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def save(self, path) -> None:
        """Write every span (columnar, compressed) for later inspection."""
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names), start=np.frombuffer(self.start),
            end=np.frombuffer(self.end), name=np.array(self.name),
            parent=np.array(self.parent), op=np.array(self.op))

    def layer_metrics(self) -> dict:
        """Per-layer metrics for every traced name; 0 where a layer never ran."""
        selfs = self_times(self.start, self.end, self.parent)
        calls, busy, own = Counter(), Counter(), Counter()
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            calls[name] += 1
            busy[name] += self.end[i] - self.start[i]
            own[name] += selfs[i]
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = own[name]
        for name in COUNTED:
            out[f"{name}.calls"] = self.counts[name]
        c = self.counts
        evaluated = self._calls_under("circuit.evaluate_circuit", "pit.pit_test")
        annihilator_calls = calls["algdep.find_annihilator"]
        out.update({
            "pit.points_enumerated": c["pit.points_enumerated"],
            "pit.points_evaluated": evaluated,
            "pit.evaluated_per_enumerated": _ratio(evaluated,
                                                   c["pit.points_enumerated"]),
            "algdep.find_annihilator.distinct": len(self.distinct_annihilators),
            "algdep.annihilator_distinct_per_call": _ratio(
                len(self.distinct_annihilators), annihilator_calls),
            "linalg.rref_dense.cells": c["linalg.rref_dense.cells"],
            "linalg.rank_stream.rows": c["linalg.rank_stream.rows"],
            "measure.matrix_cells": c["measure.matrix_cells"],
            "measure.modular_certified_ratio": _ratio(c["measure.q_certified"],
                                                      c["measure.q_calls"]),
        })
        return out

    def _calls_under(self, child: str, ancestor: str) -> int:
        if child not in self._name_ids or ancestor not in self._name_ids:
            return 0
        cid, aid = self._name_ids[child], self._name_ids[ancestor]
        found = 0
        for i, nid in enumerate(self.name):
            if nid != cid:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != aid:
                p = self.parent[p]
            found += p >= 0
        return found


def self_times(start, end, parent) -> list:
    """Duration of each span minus the union of its children's intervals.

    Spans are in start order (a span is recorded when it opens), so each
    parent's children arrive in start order and one sweep merges overlaps.
    """
    n = len(start)
    covered = [0.0] * n
    reach = [float("-inf")] * n  # end of the merged child interval so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], end[i])
    return [end[i] - start[i] - covered[i] for i in range(n)]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# Work counts recorded after a traced call returns.

def _after_pit_test(tracer, args, kwargs, report):
    tracer.counts["pit.points_enumerated"] += report.hitting_set_size or 0


def _after_find_annihilator(tracer, args, kwargs, result):
    qs = args[0] if args else kwargs["qs"]
    tracer.distinct_annihilators.add(tuple(qs))


def _after_rref_dense(tracer, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    tracer.counts["linalg.rref_dense.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _after_psp_dimension(tracer, args, kwargs, report):
    tracer.counts["measure.matrix_cells"] += report.rows * report.cols
    if args[0].domain.characteristic == 0:
        tracer.counts["measure.q_calls"] += 1
        if report.rank_method == "modular-full-rank-certificate":
            tracer.counts["measure.q_certified"] += 1


def _count_rows(tracer, args):
    """rank_stream takes a row iterator; count the rows as it draws them."""
    counts = tracer.counts

    def rows(it):
        for row in it:
            counts["linalg.rank_stream.rows"] += 1
            yield row

    return (rows(args[0]),) + args[1:]


_AFTER = {
    "pit.pit_test": _after_pit_test,
    "algdep.find_annihilator": _after_find_annihilator,
    "linalg.rref_dense": _after_rref_dense,
    "measure.psp_dimension": _after_psp_dimension,
}
_BEFORE = {"linalg.rank_stream": _count_rows}
