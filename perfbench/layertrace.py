"""Per-layer tracing of braidedforms from outside the program.

`install()` replaces each traced function or method with a wrapper. A
function is rebound under every name that holds it in any braidedforms
module, so the copies made by `from .matrix import kron` are traced too, and
so is the lazy `from .calculus import ...` inside `io.calculus_from_obj`,
which reads the module attributes at call time.

Timed wrappers keep a stack of open spans: a span's self time is its
duration minus the time of the traced spans it opened. Several functions can
share one metric name (the `matrix.solve` group, `io.load`); a call made
while a span of the same name is open is not counted again. Scalar
arithmetic is counted, not timed, to keep the overhead low.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

# (metric name, module, class or None, attribute)
SPANS = (
    ("matrix.compose", "matrix", "Matrix", "compose"),
    ("matrix.eq", "matrix", "Matrix", "__eq__"),
    ("matrix.rref", "matrix", "Matrix", "rref"),
    ("matrix.kron", "matrix", None, "kron"),
    ("matrix.solve", "matrix", None, "solve_mono"),
    ("matrix.solve", "matrix", None, "solve_epi"),
    ("matrix.solve", "matrix", None, "particular_solution"),
    ("matrix.solve", "matrix", None, "solve_factor"),
    ("matrix.solve", "matrix", "Matrix", "inverse"),
    ("permutations.shuffle_set", "permutations", None, "shuffle_set"),
    ("braiding.rep", "braiding", "BraidedSpace", "rep"),
    ("braiding.multinomial", "braiding", None, "multinomial"),
    ("braiding.braided_factorial", "braiding", None, "braided_factorial"),
    ("tensor_hopf.build_wedge", "tensor_hopf", None, "build_wedge"),
    ("tensor_hopf.build_tensor_hopf", "tensor_hopf", None, "build_tensor_hopf"),
    ("graded.check_graded_structure", "graded", None, "check_graded_structure"),
    ("graded.ideal_quotient", "graded", None, "ideal_quotient"),
    ("hopf.check_hopf", "hopf", None, "check_hopf"),
    ("bimodules.tensor_over_H", "bimodules", None, "tensor_over_H"),
    ("bimodules.yd_braiding", "bimodules", None, "yd_braiding"),
    ("bimodules.hopf_bimodule_braiding", "bimodules", None, "hopf_bimodule_braiding"),
    ("bimodules.square_bimodule", "bimodules", None, "square_bimodule"),
    ("bosonization.wedge_over_H", "bosonization", None, "wedge_over_H"),
    ("calculus.universal_fodc", "calculus", None, "universal_fodc"),
    ("calculus.fodc_from_submodule", "calculus", None, "fodc_from_submodule"),
    ("calculus.read_off_submodule", "calculus", None, "read_off_submodule"),
    ("calculus.kernel_counit_crossed", "calculus", None, "kernel_counit_crossed"),
    ("calculus.maximal_calculus", "calculus", None, "maximal_calculus"),
    ("calculus.exterior_calculus", "calculus", None, "exterior_calculus"),
    ("calculus.exterior_calculus_via_comma", "calculus", None, "exterior_calculus_via_comma"),
    ("calculus.verify_calculus", "calculus", None, "verify_calculus"),
    ("io.load", "io", None, "load_json"),
    ("io.load", "io", None, "hopf_from_obj"),
    ("io.load", "io", None, "braiding_from_obj"),
    ("io.load", "io", None, "load_hopf_ref"),
    ("io.load", "io", None, "bimodule_from_obj"),
    ("io.load", "io", None, "crossed_from_obj"),
    ("io.load", "io", None, "calculus_from_obj"),
    ("io.emit", "io", None, "save_json"),
    ("io.emit", "io", None, "dumps"),
)

# The per-layer metrics the traced run reports, with their units.
METRICS = {
    "cyclotomic.mul.calls": "count", "cyclotomic.mul.c1": "count",
    "cyclotomic.mul.cN": "count", "cyclotomic.mul.mixed": "count",
    "cyclotomic.add.calls": "count", "cyclotomic.inv.calls": "count",
    "matrix.compose.calls": "count", "matrix.compose.self_s": "s",
    "matrix.compose.madds": "count", "matrix.compose.nnz_frac": "ratio",
    "matrix.kron.calls": "count", "matrix.kron.self_s": "s",
    "matrix.kron.out_entries": "count",
    "matrix.eq.calls": "count", "matrix.eq.self_s": "s",
    "matrix.rref.calls": "count", "matrix.rref.self_s": "s",
    "matrix.rref.entries": "count",
    "matrix.solve.calls": "count", "matrix.solve.self_s": "s",
    "permutations.shuffle_set.calls": "count", "permutations.shuffle_set.self_s": "s",
    **{f"braiding.{f}.{m}": u for f in ("rep", "multinomial", "braided_factorial")
       for m, u in (("calls", "count"), ("self_s", "s"))},
    "tensor_hopf.build_wedge.incl_s": "s", "tensor_hopf.build_wedge.self_s": "s",
    "tensor_hopf.build_tensor_hopf.incl_s": "s",
    "graded.check_graded_structure.calls": "count",
    "graded.check_graded_structure.incl_s": "s",
    "graded.check_graded_structure.self_s": "s",
    "graded.ideal_quotient.incl_s": "s",
    "hopf.check_hopf.incl_s": "s",
    **{f"bimodules.{f}.{m}": u
       for f in ("tensor_over_H", "yd_braiding", "hopf_bimodule_braiding", "square_bimodule")
       for m, u in (("calls", "count"), ("incl_s", "s"))},
    "bosonization.wedge_over_H.incl_s": "s",
    **{f"calculus.{f}.{m}": u
       for f in ("universal_fodc", "fodc_from_submodule", "read_off_submodule",
                 "kernel_counit_crossed")
       for m, u in (("calls", "count"), ("incl_s", "s"))},
    **{f"calculus.{f}.incl_s": "s"
       for f in ("maximal_calculus", "exterior_calculus", "exterior_calculus_via_comma",
                 "verify_calculus")},
    "io.load.incl_s": "s", "io.emit.incl_s": "s",
    "cli.cpu_s": "s", "trace.overhead_ratio": "ratio",
}

# Metrics that count work: they must repeat exactly between two traced runs.
COUNTS = tuple(name for name, unit in METRICS.items() if unit == "count")


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self._open = Counter()
        self._child = [0.0]    # time of traced children, one slot per open span

    # --- wrappers ---------------------------------------------------------

    def span(self, name, fn, before=None):
        counts, incl, self_time, is_open, child = (
            self.counts, self.incl, self.self_time, self._open, self._child)

        @wraps(fn)
        def traced(*args, **kwargs):
            if is_open[name]:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            is_open[name] += 1
            child.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                is_open[name] -= 1
                inner = child.pop()
                child[-1] += dt
                counts[name + ".calls"] += 1
                incl[name] += dt
                self_time[name] += dt - inner

        return traced

    def scalar_mul(self, fn):
        counts = self.counts

        @wraps(fn)
        def traced(a, b):
            n, m = a.n, getattr(b, "n", 1)
            if n != m:
                counts["cyclotomic.mul.mixed"] += 1
            elif n == 1:
                counts["cyclotomic.mul.c1"] += 1
            else:
                counts["cyclotomic.mul.cN"] += 1
            return fn(a, b)

        return traced

    def counted(self, name, fn):
        counts = self.counts

        @wraps(fn)
        def traced(*args):
            counts[name] += 1
            return fn(*args)

        return traced

    # --- per-call work measures --------------------------------------------

    def _compose_work(self, args):
        a, b = args
        self.counts["matrix.compose.madds"] += a.rows * a.cols * b.cols
        nz_a = [not e.is_zero for e in a.entries]
        nz_b = [not e.is_zero for e in b.entries]
        bc = b.cols
        self.counts["compose.products"] += sum(
            sum(nz_a[k::a.cols]) * sum(nz_b[k * bc:(k + 1) * bc]) for k in range(a.cols))

    def _kron_work(self, args):
        f, g = args
        self.counts["matrix.kron.out_entries"] += f.rows * g.rows * f.cols * g.cols

    def _rref_work(self, args):
        (m,) = args
        self.counts["matrix.rref.entries"] += m.rows * m.cols

    # --- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric except `cli.cpu_s` and `trace.overhead_ratio`."""
        c = self.counts
        out = {}
        for name in METRICS:
            layer_fn, _, kind = name.rpartition(".")
            if name in ("cli.cpu_s", "trace.overhead_ratio"):
                continue    # measured around the traced command, not inside it
            if kind == "incl_s":
                out[name] = self.incl[layer_fn]
            elif kind == "self_s":
                out[name] = self.self_time[layer_fn]
            elif name == "cyclotomic.mul.calls":
                out[name] = (c["cyclotomic.mul.c1"] + c["cyclotomic.mul.cN"]
                             + c["cyclotomic.mul.mixed"])
            elif name == "matrix.compose.nnz_frac":
                madds = c["matrix.compose.madds"]
                out[name] = c["compose.products"] / madds if madds else 0.0
            else:
                out[name] = c[name]
        return out


def _rebind(modules, orig, wrapper) -> int:
    """Replace `orig` by `wrapper` under every name that holds it."""
    bound = 0
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)
                bound += 1
    return bound


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of the imported braidedforms package."""
    import braidedforms.cli  # noqa: F401  (imports every layer)

    modules = [m for n, m in sorted(sys.modules.items())
               if n.startswith("braidedforms.") and m is not None]
    by_name = {m.__name__.rpartition(".")[2]: m for m in modules}

    scalar = by_name["cyclotomic"].Scalar
    for attr, wrap in (("__mul__", tracer.scalar_mul),
                       ("__add__", lambda fn: tracer.counted("cyclotomic.add.calls", fn)),
                       ("inv", lambda fn: tracer.counted("cyclotomic.inv.calls", fn))):
        orig = vars(scalar)[attr]
        _rebind([scalar], orig, wrap(orig))   # also __rmul__ / __radd__

    before = {"matrix.compose": tracer._compose_work, "matrix.kron": tracer._kron_work,
              "matrix.rref": tracer._rref_work}
    for name, module, cls, attr in SPANS:
        owner = by_name[module]
        if cls is not None:
            owner = getattr(owner, cls)
        orig = vars(owner)[attr]
        wrapper = tracer.span(name, orig, before.get(name))
        if cls is not None:
            setattr(owner, attr, wrapper)
        elif not _rebind(modules, orig, wrapper):
            raise RuntimeError(f"{module}.{attr} is bound nowhere")
