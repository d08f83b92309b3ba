"""Per-layer tracing of the ``leibniz`` package, installed from outside.

``Tracer.install()`` wraps the public functions and methods listed in
``LAYERS`` and rebinds every reference to them that a ``leibniz`` module
holds: module attributes (names imported with ``from .x import y``), and
module-level lists and dicts such as ``suite.ALL_CHECKS`` and
``algebra.BUILDERS``.  The package itself is not edited.

A spanned call records ``(name, start, end, parent)`` in memory.  The self
time of a layer is the time of its spans minus the time covered by their
child spans, so every traced second is charged to the innermost layer.
Scalar calls in ``fields`` and matrix construction are only counted: they
are too frequent to span, and their time is charged to the calling span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import weakref
from collections import Counter, defaultdict
from time import perf_counter

# layer -> [((module, qualified name), options)].  ``count`` names a counter
# bumped per call; ``total`` names an inclusive timer, charged only at the
# outermost call of that timer; ``span=False`` counts without a span.
LAYERS = {
    "fields": [
        *((("fields", f"Rationals.{op}"), {"count": "fields.ops_q", "span": False})
          for op in ("add", "sub", "mul", "neg", "inv", "div")),
        *((("fields", f"PrimeField.{op}"), {"count": "fields.ops_fp", "span": False})
          for op in ("add", "sub", "mul", "neg", "inv", "div")),
        (("fields", "Rationals.coerce"), {"count": "fields.coerce", "span": False}),
        (("fields", "PrimeField.coerce"), {"count": "fields.coerce", "span": False}),
    ],
    "linalg": [
        (("linalg", "Matrix.__init__"), {"count": "linalg.matrix_new", "span": False}),
        (("linalg", "Matrix.__mul__"), {"count": "linalg.matmul"}),
        (("linalg", "Matrix.kron"), {}),
        (("linalg", "RowReducer.insert"),
         {"count": "linalg.rref_insert", "total": "linalg.rref_insert_s"}),
        (("linalg", "Subspace.span"), {}),
        (("linalg", "Subspace.sum"), {}),
        (("linalg", "Subspace.intersect"), {"total": "linalg.intersect_s"}),
        (("linalg", "nullspace"), {}),
        (("linalg", "rank"), {}),
        (("linalg", "invert"), {}),
        (("linalg", "determinant"),
         {"count": "linalg.determinant", "total": "linalg.determinant_s"}),
        (("linalg", "charpoly"), {"total": "linalg.charpoly_s"}),
        (("linalg", "eigenvalues_in_field"), {"total": "linalg.eigenvalues_s"}),
        (("linalg", "eigenspace"), {}),
    ],
    "algebra": [
        (("algebra", "make_sl2"), {"count": "algebra.builds"}),
        (("algebra", "make_S"), {"count": "algebra.builds"}),
        (("algebra", "make_e"), {}),
        (("algebra", "make_A"), {}),
        (("algebra", "make_N"), {}),
        (("algebra", "builtin_algebra"), {}),
        (("algebra", "leibniz_kernel"), {}),
        (("algebra", "canonical_lie"), {}),
        (("algebra", "products_and_series"), {}),
        (("algebra", "validate_left_leibniz"), {}),
    ],
    "bimodule": [
        (("bimodule", "axiom_report"), {"count": "bimodule.axiom_reports"}),
        (("bimodule", "subbimodule_closure"),
         {"count": "bimodule.closure", "total": "bimodule.closure_s"}),
        (("bimodule", "quotient"), {"total": "bimodule.quotient_s"}),
        (("bimodule", "restrict"), {"total": "bimodule.quotient_s"}),
        (("bimodule", "is_invariant"), {}),
        (("bimodule", "kernels_and_invariants"), {}),
        (("bimodule", "symmetrize"), {}),
        (("bimodule", "antisymmetrize"), {}),
        (("bimodule", "conjugate"), {}),
        (("bimodule", "direct_sum"), {}),
        (("bimodule", "hom_bimodule"), {}),
        (("bimodule", "dual"), {}),
        (("bimodule", "duality_morphism_checks"), {}),
    ],
    "tensor": [
        (("tensor", "tensor_bimodule"), {"count": "tensor.products"}),
        (("tensor", "mll_defect_span"), {"total": "tensor.defect_span_s"}),
        (("tensor", "truncation_kernel"), {"total": "tensor.kernel_s"}),
        (("tensor", "truncation_data"), {}),
        (("tensor", "trunc_bar"), {}),
        (("tensor", "trunc_under"), {}),
        (("tensor", "tensor_of_subspaces"), {}),
        (("tensor", "structural_checks"), {}),
        (("tensor", "nonassociativity_witness"), {}),
    ],
    "chop": [
        (("chop", "chop"), {"count": "chop.calls"}),
        (("chop", "common_eigenvector"), {"total": "chop.eigvec_s"}),
        (("chop", "sl2_triple_indices"), {"count": "chop.triple_lookups"}),
        (("chop", "bruteforce_invariant_subspaces"), {}),
        (("chop", "oracle_composition_factors"), {}),
    ],
    "envelope": [
        (("envelope", "build_presentation"), {}),
        (("envelope", "PresentedAlgebra.ideal_reducer"), {"total": "envelope.ideal_s"}),
        (("envelope", "PresentedAlgebra.low_degree_ideal_dims"),
         {"total": "envelope.low_dims_s"}),
        (("envelope", "PresentedAlgebra.filtered_dims"), {}),
        (("envelope", "PresentedAlgebra.in_ideal"), {"count": "envelope.in_ideal"}),
        (("envelope", "AlgebraHom.verify"), {}),
        (("envelope", "standard_homs"), {}),
        (("envelope", "check_section_identities"), {}),
        (("envelope", "hopf_check"), {}),
    ],
    "groth": [
        (("groth", "class_of_bimodule"), {"count": "groth.class_calls"}),
        (("groth", "gr_mul"), {"count": "groth.gr_mul"}),
        (("groth", "identity_checkers"), {"total": "groth.identity_s"}),
        (("groth", "criterion_scan"), {"total": "groth.identity_s"}),
        (("groth", "verify_ring_vs_modules"), {}),
    ],
    "samples": [
        (("samples", name), {"total": "samples.s"})
        for name in ("random_invertible", "random_one_dim_weak",
                     "random_left_module_matrices", "random_full_bimodule",
                     "random_weak_bimodule")
    ],
    "suite": [
        (("suite", fn), {"total": f"suite.check{cid}_s"})
        for cid, fn in (
            ("01", "check_kernels"),
            ("02", "check_truncation_solvable"),
            ("03", "check_truncation_nilpotent"),
            ("04", "check_truncation_simple"),
            ("05", "check_weak_classification"),
            ("06", "check_envelopes"),
            ("07", "check_rigidity"),
            ("08", "check_clebsch_gordan"),
            ("09", "check_nonassociativity"),
            ("10a", "check_weight_identity_laws"),
            ("10b", "check_sl2_identity_failures"),
            ("11", "check_oracle_equivalence"),
        )
    ],
}

SELF_TIME_LAYERS = ("linalg", "algebra", "bimodule", "tensor", "chop", "envelope", "groth")

# Every per-layer metric a traced round reports, with its unit.
METRICS = {
    "fields.ops_q": "count",
    "fields.ops_fp": "count",
    "fields.coerce": "count",
    **{f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS},
    "linalg.matrix_new": "count",
    "linalg.matmul": "count",
    "linalg.rref_insert": "count",
    "linalg.rref_insert_s": "s",
    "linalg.determinant": "count",
    "linalg.determinant_s": "s",
    "linalg.charpoly_s": "s",
    "linalg.eigenvalues_s": "s",
    "linalg.intersect_s": "s",
    "algebra.builds": "count",
    "bimodule.axiom_reports": "count",
    "bimodule.closure": "count",
    "bimodule.closure_s": "s",
    "bimodule.quotient_s": "s",
    "tensor.products": "count",
    "tensor.defect_span_s": "s",
    "tensor.kernel_s": "s",
    "chop.calls": "count",
    "chop.eigvec_s": "s",
    "chop.triple_lookups": "count",
    "chop.factors": "count",
    "chop.certified": "count",
    "chop.spin": "count",
    "envelope.ideal_s": "s",
    "envelope.low_dims_s": "s",
    "envelope.in_ideal": "count",
    "envelope.slice_width": "size",
    "envelope.ideal_rank": "size",
    "groth.class_calls": "count",
    "groth.class_distinct": "count",
    "groth.gr_mul": "count",
    "groth.identity_s": "s",
    "samples.s": "s",
    **{f"suite.check{cid}_s": "s"
       for cid in ("01", "02", "03", "04", "05", "06", "07", "08", "09", "10a", "10b", "11")},
}


def _leibniz_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "leibniz" or name.startswith("leibniz."))]


class Tracer:
    """Spans and counters for one interpreter; ``install`` once, then read
    ``metrics()`` after the traced work."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self.totals: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self._stack: list = []  # [span index, seconds of its child spans]
        self._depth: Counter = Counter()
        self._classes: set = set()
        self._reducers = weakref.WeakSet()
        self.slice_width = 0
        self.ideal_rank = 0

    # -- wrappers ---------------------------------------------------------

    def _counted(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def _spanned(self, fn, layer, name, count=None, total=None, after=None):
        spans, stack, depth = self.spans, self._stack, self._depth
        counts, totals, self_time = self.counts, self.totals, self.self_time

        def wrapper(*args, **kwargs):
            if count:
                counts[count] += 1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            if total:
                depth[total] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                spans[index] = (name, start, end, stack[-1][0] if stack else -1)
                self_time[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if total:
                    depth[total] -= 1
                    if not depth[total]:
                        totals[total] += elapsed
            if after is not None:
                after(result)
            return result

        return functools.wraps(fn)(wrapper)

    def _after_chop(self, report):
        self.counts["chop.factors"] += len(report.factors)
        self.counts["chop.certified"] += bool(report.certified)
        self.counts["chop.spin"] += "spin" in report.strategy

    def _after_ideal(self, reducer):
        if reducer not in self._reducers:
            self._reducers.add(reducer)
            self.slice_width = max(self.slice_width, reducer.width)
            self.ideal_rank += reducer.rank

    def _class_hook(self, fn):
        """Counts the distinct bimodules whose class is asked for."""
        classes = self._classes

        def wrapper(mod, *args, **kwargs):
            classes.add((mod.algebra.table, tuple(m.rows for m in mod.lam),
                         tuple(m.rows for m in mod.rho)))
            return fn(mod, *args, **kwargs)

        return functools.wraps(fn)(wrapper)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import leibniz.cli  # noqa: F401  (imports every layer)
        import leibniz.samples  # noqa: F401

        after = {"chop.chop": self._after_chop,
                 "envelope.PresentedAlgebra.ideal_reducer": self._after_ideal}
        for layer, entries in LAYERS.items():
            for (modname, qualname), opts in entries:
                module = sys.modules[f"leibniz.{modname}"]
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                raw = inspect.getattr_static(owner, attr)
                static = isinstance(raw, staticmethod)
                orig = raw.__func__ if static else raw
                full = f"{modname}.{qualname}"
                if opts.get("span", True):
                    wrapped = self._spanned(orig, layer, full, opts.get("count"),
                                            opts.get("total"), after.get(full))
                else:
                    wrapped = self._counted(orig, opts["count"])
                if full == "groth.class_of_bimodule":
                    wrapped = self._class_hook(wrapped)
                if owner_name:
                    setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
                else:
                    _rebind(orig, wrapped)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name in METRICS:
            if name.endswith(".self_s"):
                out[name] = self.self_time.get(name.split(".")[0], 0.0)
            elif METRICS[name] == "s":
                out[name] = self.totals.get(name, 0.0)
            else:
                out[name] = self.counts.get(name, 0)
        out["groth.class_distinct"] = len(self._classes)
        out["envelope.slice_width"] = self.slice_width
        out["envelope.ideal_rank"] = self.ideal_rank
        return out

    def write_spans(self, path) -> None:
        """All spans of the round, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _rebind(orig, wrapped) -> None:
    """Point every module-level reference to ``orig`` at ``wrapped``."""
    for module in _leibniz_modules():
        for key, value in list(vars(module).items()):
            if value is orig:
                setattr(module, key, wrapped)
            elif isinstance(value, list):
                value[:] = [wrapped if v is orig else v for v in value]
            elif isinstance(value, dict):
                for k, v in value.items():
                    if v is orig:
                        value[k] = wrapped
