"""Finite-dimensional Hopf algebras by structure constants, plus a small
corpus: group algebras kZ_n and kS_3, and Taft algebras (Sweedler's algebra
is the n = 2 case).

The corpus constructors read the antipode S off the inverse of the Galois
map g (x) h -> g h_(1) (x) h_(2), which exists exactly when the bialgebra is
Hopf.  A Hopf file states S once, never S^-1, and check_hopf verifies it.
"""

from __future__ import annotations

import itertools
import math

from .braiding import braided_line, multinomial
from .checks import Checks
from .cyclotomic import ONE, Scalar
from .errors import FactorizationError, InvalidBaseHopf, ShapeError
from .matrix import (
    Matrix,
    braided_product,
    compose_kron,
    kron,
    kron_apply,
    solve_mono,
    swap_matrix,
)


def set_legs(obj, keys, size, maps):
    """Set obj.<key> = f for each key of keys, an entry key -> (source legs,
    target legs) of obj.LEGS, and each map f, in order; size(leg) is a leg's
    dimension and "" the ground field.  ShapeError names a map of the wrong
    shape, and then no map is set; a stray or missing map is a ValueError."""
    pairs = list(zip(keys, maps, strict=True))
    for key, f in pairs:
        src, tgt = obj.LEGS[key]
        rows, cols = math.prod(map(size, tgt)), math.prod(map(size, src))
        if (f.rows, f.cols) != (rows, cols):
            raise ShapeError(f"{key} must be {rows}x{cols}, got {f.rows}x{f.cols}")
    for key, f in pairs:
        setattr(obj, key, f)


class LegTable:
    """Structure maps declared once in a table LEGS, which to_obj reads."""

    def to_obj(self):
        return {"dim": self.dim, **{key: getattr(self, key).to_obj() for key in self.LEGS}}

    def __repr__(self):
        return f"{type(self).__name__}({self.name or self.dim})"


class HopfAlgebraData(LegTable):
    """A Hopf algebra of dimension dim with the structure maps of LEGS, each
    leg H."""

    LEGS = {"mult": ("HH", "H"), "unit": ("", "H"), "comult": ("H", "HH"),
            "counit": ("H", ""), "antipode": ("H", "H")}

    def __init__(self, dim, *maps, name=""):
        set_legs(self, self.LEGS, {"H": dim}.get, maps)
        self.dim = dim
        self.name = name

    def eye(self) -> Matrix:
        return Matrix.identity(self.dim)


def solve_antipode(dim, mult, unit, comult, counit) -> Matrix:
    """S = (id (x) eps) o can^-1 o (eta (x) id), read off the Galois map
    can(g (x) h) = g h_(1) (x) h_(2) of H (x) H.  A bialgebra is Hopf exactly
    when can is invertible, with can^-1(g (x) h) = g S(h_(1)) (x) h_(2)
    (Montgomery, Hopf Algebras and Their Actions on Rings, 1993)."""
    eye = Matrix.identity(dim)
    can = braided_product(mult, eye, eye, eye, comult, (dim, 1, dim, dim))
    try:
        lifted = solve_mono(can, kron(unit, eye))  # h -> S(h_(1)) (x) h_(2)
    except FactorizationError as exc:
        raise InvalidBaseHopf("no antipode exists for the given bialgebra") from exc
    return kron_apply(eye, counit, lifted)


def make_hopf(dim, mult, unit, comult, counit, name="") -> HopfAlgebraData:
    s = solve_antipode(dim, mult, unit, comult, counit)
    return require_hopf(HopfAlgebraData(dim, mult, unit, comult, counit, s, name=name))


def require_hopf(h: HopfAlgebraData) -> HopfAlgebraData:
    """h, once check_hopf passes on it; InvalidBaseHopf names the failed checks."""
    bad = check_hopf(h).failed
    if bad:
        raise InvalidBaseHopf(f"{h.name or 'algebra'} fails axioms: {bad}")
    return h


def check_hopf(h: HopfAlgebraData) -> Checks:
    """The Hopf axioms as matrix identities; whiskers such as m o (m (x) id)
    are applied with compose_kron/kron_apply and the braided bialgebra law's
    right-hand side with braided_product, never built."""
    eye = h.eye()
    m, u, cm, cu, s = h.mult, h.unit, h.comult, h.counit, h.antipode
    d = h.dim
    eta_eps = u.compose(cu)
    return Checks({
        "associativity": compose_kron(m, m, eye) == compose_kron(m, eye, m),
        "unit": compose_kron(m, u, eye) == eye and compose_kron(m, eye, u) == eye,
        "coassociativity": kron_apply(cm, eye, cm) == kron_apply(eye, cm, cm),
        "counit": kron_apply(cu, eye, cm) == eye and kron_apply(eye, cu, cm) == eye,
        "bialgebra": cm.compose(m)
        == braided_product(m, m, swap_matrix(d, d), cm, cm, (d, d, d, d)),
        "unit_counit": cu.compose(m) == kron(cu, cu)
        and cm.compose(u) == kron(u, u)
        and cu.compose(u) == Matrix.identity(1),
        "antipode_left": m.compose(kron_apply(s, eye, cm)) == eta_eps,
        "antipode_right": m.compose(kron_apply(eye, s, cm)) == eta_eps,
        "antipode_invertible": s.rank() == d,
    })


# --- corpus ---------------------------------------------------------------


def group_algebra(elements, multiply, name="") -> HopfAlgebraData:
    """Group algebra kG: basis = group elements, Delta g = g @ g, S g = g^-1."""
    n = len(elements)
    index = {g: i for i, g in enumerate(elements)}
    mult = Matrix.zero(n, n * n)
    for i, g in enumerate(elements):
        for j, k in enumerate(elements):
            mult[index[multiply(g, k)], i * n + j] = ONE
    unit = Matrix.zero(n, 1)
    identity = next(g for g in elements if all(multiply(g, k) == k for k in elements))
    unit[index[identity], 0] = ONE
    comult = Matrix.zero(n * n, n)
    for i in range(n):
        comult[i * n + i, i] = ONE
    counit = Matrix(1, n, [ONE] * n)
    return make_hopf(n, mult, unit, comult, counit, name)


def cyclic_group_algebra(n: int) -> HopfAlgebraData:
    return group_algebra(list(range(n)), lambda a, b: (a + b) % n, f"kZ{n}")


def symmetric_group_algebra_s3() -> HopfAlgebraData:
    elements = list(itertools.permutations((1, 2, 3)))

    def multiply(a, b):
        return tuple(a[b[i] - 1] for i in range(3))

    return group_algebra(elements, multiply, "kS3")


def taft_algebra(n: int) -> HopfAlgebraData:
    """Taft algebra of dimension n^2 at a primitive n-th root of unity:
    g^n = 1, x^n = 0, x g = zeta g x, Delta g = g@g, Delta x = x@1 + g@x.
    n = 2 is Sweedler's four-dimensional Hopf algebra (zeta = -1)."""
    zeta = Scalar.zeta(n)
    dim = n * n

    def idx(a, b):  # basis g^a x^b
        return a * n + b

    mult = Matrix.zero(dim, dim * dim)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if b + d < n:
                        coeff = zeta ** (b * c)
                        mult[idx((a + c) % n, b + d), idx(a, b) * dim + idx(c, d)] = coeff
    unit = Matrix.zero(dim, 1)
    unit[idx(0, 0), 0] = ONE
    # Delta x = x (x) 1 + g (x) x with (x (x) 1)(g (x) x) = zeta (g (x) x)(x (x) 1),
    # so the braided binomial theorem on the braided line at zeta (Majid,
    # J. Math. Phys. 34, 1993; Kassel, Quantum Groups, ch. IV) gives
    # Delta(g^a x^b) = sum_k [b; k]_zeta g^(a+b-k) x^k (x) g^a x^(b-k)
    line = braided_line(zeta, ONE)
    comult = Matrix.zero(dim * dim, dim)
    for b in range(n):
        for k in range(b + 1):
            coeff = multinomial((k, b - k), line, "lower")[0, 0]
            for a in range(n):
                comult[idx((a + b - k) % n, k) * dim + idx(a, b - k), idx(a, b)] = coeff
    counit = Matrix.zero(1, dim)
    for a in range(n):
        counit[0, idx(a, 0)] = ONE
    return make_hopf(dim, mult, unit, comult, counit, f"taft{n}")


def sweedler_algebra() -> HopfAlgebraData:
    h = taft_algebra(2)
    h.name = "sweedler"
    return h

