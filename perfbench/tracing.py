"""Benchmark-side tracing: spans around entwine's public functions.

The tracer replaces each function named in TARGETS by a wrapper that records
a span (name, start, end, parent span, job id) in flat in-memory arrays.  A
module-level function is replaced in every ``entwine`` module namespace that
binds it, because ``from .linalg import kron`` copies the binding into the
importing module; a method is replaced on its class.  Spans are written out
when the run ends, and the per-layer metrics are derived from them: a layer's
self time is its span durations minus the time its direct child spans cover.

Layer -> per-command time it should move (large on / near zero on); wall_s
sums the command times of a pass:
  linalg.rref.*                       cohom_s, deform_s      cohom-ladder / cochain-algebra
  linalg.solve.*, linalg.quotient.*,
    linalg.kernel_basis.*             deform_s               cochain-algebra (deform jobs) / cohom-ladder (solve)
  linalg.mat_new.*, linalg.kron.*,
    linalg.matmul.*, linalg.addsub.*  equivariant_s, cup_s   cochain-algebra / cohom-ladder
  homspace.operator.*,
    entwining.tower.*                 cohom_s, equivariant_s both, small share
  complexes.differential.*,
    complexes.complex_init.*,
    complexes.cohomology.*            cohom_s                cohom-ladder / verify jobs
  compalg.*                           equivariant_s, cup_s   cochain-algebra / cohom-ladder, deform jobs
  deform.*                            deform_s               cochain-algebra (deform jobs) / cohom-ladder
  zoo.load.*, structures.validate.*,
    entwining.check_bowtie.*          verify_s, every command  cochain-algebra (verify jobs) / -
  tracing.overhead_s                  -                      every workload
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# span name -> (entwine submodule, attribute); a dotted attribute is a method
TARGETS = {
    "linalg.mat_new": ("linalg", "Mat.__init__"),
    "linalg.rref": ("linalg", "Mat.rref"),
    "linalg.matmul": ("linalg", "Mat.__matmul__"),
    "linalg.slow_matmul": ("linalg", "Mat._slow_matmul"),
    "linalg.add": ("linalg", "Mat.__add__"),
    "linalg.sub": ("linalg", "Mat.__sub__"),
    "linalg.kron": ("linalg", "kron"),
    "linalg.solve": ("linalg", "solve"),
    "linalg.quotient": ("linalg", "quotient_with_projection"),
    "linalg.kernel_basis": ("linalg", "kernel_basis"),
    "homspace.middle_operator": ("homspace", "middle_operator"),
    "homspace.op_postcompose": ("homspace", "op_postcompose"),
    "homspace.op_precompose": ("homspace", "op_precompose"),
    "entwining.psi_up": ("entwining", "psi_up"),
    "entwining.psi_down": ("entwining", "psi_down"),
    "entwining.rho_L_action": ("entwining", "rho_L_action"),
    "entwining.rho_R_action": ("entwining", "rho_R_action"),
    "entwining.rho_L_coaction": ("entwining", "rho_L_coaction"),
    "entwining.rho_R_coaction": ("entwining", "rho_R_coaction"),
    "entwining.check_bowtie": ("entwining", "check_bowtie"),
    "complexes.module_differential": ("complexes", "module_differential"),
    "complexes.comodule_differential": ("complexes", "comodule_differential"),
    "complexes.complex_init": ("complexes", "CochainComplex.__init__"),
    "complexes.cohomology": ("complexes", "cohomology"),
    "compalg.comp_i": ("compalg", "comp_i"),
    "compalg.K": ("compalg", "CompContext.K"),
    "compalg.cup": ("compalg", "cup"),
    "compalg.sqcup": ("compalg", "sqcup"),
    "compalg.coboundary": ("compalg", "coboundary"),
    "compalg._direct_cup": ("compalg", "_direct_cup"),
    "compalg._direct_sqcup": ("compalg", "_direct_sqcup"),
    "compalg.equivariant_basis": ("compalg", "equivariant_basis"),
    "deform.total_complex": ("deform", "TotalComplex.__init__"),
    "deform.first_order_checks": ("deform", "first_order_checks"),
    "deform.coboundary_equivalence": ("deform", "coboundary_equivalence"),
    "zoo.load": ("zoo", "load"),
    "structures.validate_algebra": ("structures", "validate_algebra"),
    "structures.validate_coalgebra": ("structures", "validate_coalgebra"),
    "structures.validate_bimodule": ("structures", "validate_bimodule"),
    "structures.validate_bicomodule": ("structures", "validate_bicomodule"),
}

# reported layer -> the span names it aggregates
LAYERS = {
    "linalg.rref": ["linalg.rref"],
    "linalg.solve": ["linalg.solve"],
    "linalg.quotient": ["linalg.quotient"],
    "linalg.kernel_basis": ["linalg.kernel_basis"],
    "linalg.mat_new": ["linalg.mat_new"],
    "linalg.kron": ["linalg.kron"],
    "linalg.matmul": ["linalg.matmul", "linalg.slow_matmul"],
    "linalg.addsub": ["linalg.add", "linalg.sub"],
    "homspace.operator": ["homspace.middle_operator", "homspace.op_postcompose", "homspace.op_precompose"],
    "entwining.tower": [
        "entwining.psi_up", "entwining.psi_down", "entwining.rho_L_action",
        "entwining.rho_R_action", "entwining.rho_L_coaction", "entwining.rho_R_coaction",
    ],
    "complexes.differential": ["complexes.module_differential", "complexes.comodule_differential"],
    "complexes.complex_init": ["complexes.complex_init"],
    "complexes.cohomology": ["complexes.cohomology"],
    "compalg.comp_i": ["compalg.comp_i"],
    "compalg.K": ["compalg.K"],
    "compalg.cup": ["compalg.cup"],
    "compalg.sqcup": ["compalg.sqcup"],
    "compalg.coboundary": ["compalg.coboundary"],
    "compalg.cross_check": ["compalg._direct_cup", "compalg._direct_sqcup"],
    "compalg.equivariant_basis": ["compalg.equivariant_basis"],
    "deform.total_complex": ["deform.total_complex"],
    "deform.first_order_checks": ["deform.first_order_checks"],
    "deform.coboundary_equivalence": ["deform.coboundary_equivalence"],
    "zoo.load": ["zoo.load"],
    "structures.validate": [
        "structures.validate_algebra", "structures.validate_coalgebra",
        "structures.validate_bimodule", "structures.validate_bicomodule",
    ],
    "entwining.check_bowtie": ["entwining.check_bowtie"],
}


class Tracer:
    """Span recorder; install() wraps TARGETS, uninstall() restores them."""

    def __init__(self):
        self.names = list(TARGETS)
        self.span_name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_job = -1
        self.rref_cells = 0
        self.rref_nnz_in = 0
        self._stack = [-1]
        self._restore = []

    # -- installation -------------------------------------------------------

    def install(self):
        for sid, (modname, attr) in enumerate(TARGETS.values()):
            module = importlib.import_module(f"entwine.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original, self._wrap(original, sid, meth == "rref"))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, sid, False)
            for name, mod in list(sys.modules.items()):
                if name.split(".")[0] == "entwine":
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _patch(self, owner, key, original, wrapper):
        self._restore.append((owner, key, original))
        setattr(owner, key, wrapper)

    def _wrap(self, fn, sid, is_rref):
        span_name, parent, job, start, end = self.span_name, self.parent, self.job, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_rref:
                m = args[0]
                if m._rref_cache is not None:
                    return fn(*args, **kwargs)  # cached echelon form: no elimination
                self.rref_cells += m.rows * m.cols
                self.rref_nnz_in += m.nnz
            idx = len(span_name)
            span_name.append(sid)
            parent.append(stack[-1])
            job.append(self.current_job)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    # -- output ---------------------------------------------------------------

    def arrays(self) -> dict:
        # copies, so the arrays are not left exporting buffers (which would block appends)
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def dump(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def metrics(self, passes: int) -> dict:
        """Per-layer counts and self times, per traced pass."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - covered
        calls = np.bincount(a["name"], minlength=n_names)
        self_s = np.bincount(a["name"], weights=self_time, minlength=n_names)
        incl_s = np.bincount(a["name"], weights=dur, minlength=n_names)
        sid = {name: i for i, name in enumerate(self.names)}

        out = {}
        for layer, members in LAYERS.items():
            ids = [sid[m] for m in members]
            out[f"{layer}.calls"] = int(calls[ids].sum()) / passes
            out[f"{layer}.self_s"] = float(self_s[ids].sum()) / passes
        out["linalg.mat_new.count"] = out["linalg.mat_new.calls"]
        out["linalg.rref.cells"] = self.rref_cells / passes
        out["linalg.rref.nnz_in"] = self.rref_nnz_in / passes
        out["linalg.matmul.bigint_fallbacks"] = int(calls[sid["linalg.slow_matmul"]]) / passes
        products = incl_s[[sid["compalg.cup"], sid["compalg.sqcup"]]].sum()
        checks = incl_s[[sid["compalg._direct_cup"], sid["compalg._direct_sqcup"]]].sum()
        out["compalg.cross_check.share"] = float(checks / products) if products else 0.0
        out["zoo.load.validations_per_load"] = self._validations_per_load(a, sid)
        return out

    def _validations_per_load(self, a, sid) -> float:
        """Algebra-axiom validations per validating zoo.load call (1 is enough).

        Loads with validate=False (the verify command's) run none and are not counted.
        """
        load, alg = sid["zoo.load"], sid["structures.validate_algebra"]
        names, parents = a["name"], a["parent"]
        per_load = {}
        for idx in np.flatnonzero(names == alg):
            p = parents[idx]
            while p >= 0 and names[p] != load:
                p = parents[p]
            if p >= 0:
                per_load[p] = per_load.get(p, 0) + 1
        return sum(per_load.values()) / len(per_load) if per_load else 0.0
