"""Per-layer tracing of ghderiv from outside the package.

``Tracer.install`` wraps the public entry points of each module.  A span
wrapper records (name, start, end, parent); a counter wrapper counts calls.
Every wrapped name is replaced wherever callers look it up: in each loaded
``ghderiv`` module that holds the same object, or on the class for methods.
Spans stay in memory until the run ends.  A name that no longer exists is
skipped; the metrics that need it read 0 and are listed by ``absent``.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

# metric -> (unit, the spans or counters it needs).  A "_pct" metric is the
# time of the first of them as a share of the traced wall time; README.md
# describes each metric.
METRICS = {
    "cli.parse_pct": ("%", ("cli.parse",)),
    "cli.emit_pct": ("%", ("cli.emit",)),
    "cli.out_bytes": ("bytes", ()),
    "algebra.build_pct": ("%", ("algebra.build",)),
    "algebra.builds": ("count", ("algebra.build",)),
    "algebra.validate_pct": ("%", ("algebra.validate",)),
    "algebra.products": ("count", ("algebra.products",)),
    "ring.scalar_ops": ("count", ("ring.scalar_ops",)),
    "linmap.applies": ("count", ("linmap.applies",)),
    "linmap.lift_pct": ("%", ("linmap.lift",)),
    "identities.check_pct": ("%", ("identities.check",)),
    "identities.checks": ("count", ("identities.check",)),
    "identities.pairs": ("count", ("identities.check",)),
    "solver.build_system_pct": ("%", ("solver.build_system",)),
    "solver.rows": ("count", ("solver.build_system",)),
    "solver.nullspace_pct": ("%", ("solver.nullspace",)),
    "solver.to_doc_pct": ("%", ("solver.to_doc",)),
    "solver.verify_space_pct": ("%", ("solver.verify_space",)),
    "solver.evaluate_pct": ("%", ("solver.evaluate",)),
    "linalg.rref_pct": ("%", ("linalg.rref",)),
    "linalg.rows_in": ("count", ("linalg.rref",)),
    "linalg.pivots": ("count", ("linalg.rref",)),
    "linalg.pivot_yield": ("ratio", ("linalg.rref",)),
    "linalg.echelon_nnz": ("count", ("linalg.rref",)),
    "linalg.max_coeff_bits": ("bits", ("linalg.rref",)),
    "catalog.polylift_pct": ("%", ("catalog.polylift",)),
    "catalog.space_requests": ("count", ("catalog.space",)),
    "catalog.space_solves": ("count", ("catalog.space", "solver.solve")),
}

# Span name -> module and attribute (Class.method for methods).
SPANS = {
    "cli.parse": [("cli", "_read_doc"), ("linmap", "triple_from_doc"), ("linmap", "map_from_doc")],
    "cli.emit": [("cli", "_emit")],
    "algebra.build": [("algebra", "from_spec"), ("algebra", "algebra_from_doc"),
                      ("algebra", "truncated_poly"), ("algebra", "tensor_product")],
    "algebra.validate": [("algebra", "validate")],
    "linmap.lift": [("linmap", "poly_lift_triple"), ("linmap", "tensor_extend_triple")],
    "identities.check": [("identities", "check")],
    "solver.build_system": [("solver", "build_system")],
    "solver.nullspace": [("solver", "nullspace")],
    "solver.to_doc": [("solver", "SolutionSpace.to_doc")],
    "solver.verify_space": [("solver", "verify_space")],
    "solver.evaluate": [("solver", "LinearSystem.evaluate")],
    "linalg.rref": [("_linalg", "rref")],
    "catalog.space": [("catalog", "Context.space")],
}
COUNTERS = {
    "ring.scalar_ops": [("ring", f"Scalar.{m}") for m in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "inv")],
    "algebra.products": [("algebra", f"StructureAlgebra.{m}") for m in (
        "mul_vec_vec", "mul_basis_vec", "mul_vec_basis")],
    "linmap.applies": [("linmap", "LinMap.apply")],
}
# Metrics that are a span's whole duration rather than its self time.
INCLUSIVE = {"catalog.polylift"}


def _bits(v) -> int:
    v = Fraction(v)
    return max(abs(v.numerator).bit_length(), v.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts = {name: 0 for name in METRICS}
        self.cells = {name: [0] for name in COUNTERS}
        self.installed: set[str] = set()
        self._undo: list[tuple] = []

    # -- wrappers ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    @staticmethod
    def _counter(cell, fn):
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    # -- per-span bookkeeping ---------------------------------------------------

    def _after_check(self, args, report):
        self.counts["identities.checks"] += 1
        d = args[1].alg.dim
        cx = report.counterexample
        self.counts["identities.pairs"] += d * d if cx is None else cx.i * d + cx.j + 1

    def _after_build_system(self, args, system):
        self.counts["solver.rows"] += system.nrows

    def _after_build(self, args, result):
        self.counts["algebra.builds"] += 1

    def _rref(self, fn):
        def counted(rows):
            for row in rows:
                self.counts["linalg.rows_in"] += 1
                yield row

        def wrapper(rows, ops):
            idx = self.open("linalg.rref")
            try:
                echelon, pivots = fn(counted(rows), ops)
            finally:
                self.close(idx)
            self.counts["linalg.pivots"] += len(echelon)
            self.counts["linalg.echelon_nnz"] += sum(len(r) for r in echelon)
            bits = max((_bits(v) for r in echelon for v in r.values()), default=0)
            self.counts["linalg.max_coeff_bits"] = max(self.counts["linalg.max_coeff_bits"], bits)
            return echelon, pivots
        return wrapper

    def _space(self, fn):
        spanned = self._span("catalog.space", fn)

        def wrapper(*args, **kwargs):
            self.counts["catalog.space_requests"] += 1
            return spanned(*args, **kwargs)
        return wrapper

    def _solve(self, fn):
        def wrapper(*args, **kwargs):
            if self.stack and self.spans[self.stack[-1]][0] == "catalog.space":
                self.counts["catalog.space_solves"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------------

    def _replace(self, modname: str, attr: str, make) -> bool:
        """Swap ``attr`` everywhere it is looked up; False if it is gone."""
        module = sys.modules.get(f"ghderiv.{modname}")
        if module is None:
            return False
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = owner.__dict__.get(method) if owner is not None else None
            if original is None:
                return False
            setattr(owner, method, make(original))
            self._undo.append((owner, method, original))
            return True
        original = getattr(module, attr, None)
        if original is None:
            return False
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "ghderiv" or name.startswith("ghderiv.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))
        return True

    def install(self) -> "Tracer":
        after = {
            "identities.check": self._after_check,
            "solver.build_system": self._after_build_system,
            "algebra.build": self._after_build,
        }
        for span, targets in SPANS.items():
            for modname, attr in targets:
                if span == "linalg.rref":
                    make = self._rref
                elif span == "catalog.space":
                    make = self._space
                else:
                    make = lambda fn, s=span: self._span(s, fn, after.get(s))
                if self._replace(modname, attr, make):
                    self.installed.add(span)
        for metric, targets in COUNTERS.items():
            cell = self.cells[metric]
            for modname, attr in targets:
                if self._replace(modname, attr, lambda fn, c=cell: self._counter(c, fn)):
                    self.installed.add(metric)
        if self._replace("solver", "solve", self._solve):
            self.installed.add("solver.solve")
        # The verify-paper workload opens these spans around each polylift-*
        # entry that catalog.entries() returns.
        if hasattr(sys.modules.get("ghderiv.catalog"), "entries"):
            self.installed.add("catalog.polylift")
        return self

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def _times(self) -> dict:
        """Self time per span name; whole duration for INCLUSIVE names."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for k, (name, start, end, _) in enumerate(self.spans):
            dur = end - start
            out[name] = out.get(name, 0.0) + (dur if name in INCLUSIVE else dur - child[k])
        return out

    def absent(self) -> list[str]:
        """Metrics that need a name the program no longer has."""
        return [m for m, (_, needs) in METRICS.items() if not set(needs) <= self.installed]

    def metrics(self, rounds: int, wall: float, out_bytes: int) -> dict:
        """Every per-layer metric: counts per round, times as a share of
        ``wall``, the traced wall time of all rounds.  Absent ones read 0."""
        times = self._times()
        counts = dict(self.counts, **{m: cell[0] for m, cell in self.cells.items()})
        counts["cli.out_bytes"] = out_bytes
        absent = self.absent()
        result = {}
        for metric, (unit, needs) in METRICS.items():
            if metric in absent:
                value = 0
            elif unit == "%":
                value = 100 * times.get(needs[0], 0.0) / wall
            elif metric == "linalg.pivot_yield":
                rows_in = counts["linalg.rows_in"]
                value = counts["linalg.pivots"] / rows_in if rows_in else 0.0
            elif metric == "linalg.max_coeff_bits":
                value = counts[metric]
            else:
                value = counts[metric] / rounds
                value = int(value) if value == int(value) else value
            result[metric] = {"value": value, "unit": unit}
        return result

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "absent": self.absent()}, fh)
