"""Tensor Hopf algebras T(X), T°(X), the antisymmetrizer, and the wedge.

T(X) has concatenation product and shuffle coproduct [n+m over (n,m)];
T°(X) has shuffle product [(n,m) over n+m] and deconcatenation coproduct;
both share the closed-form antipode S_n = (-1)^n lam^C(n,2) rep(reversal).
The antisymmetrizer is the braided factorial at lam = -1; the wedge is its
image, a graded sub-Hopf algebra of T°(X).  build_wedge computes only the
images and their ranks; the wedge's Hopf structure is built when first read.
"""

from __future__ import annotations

from functools import cached_property

from .braiding import (
    BraidedSpace,
    block_swap,
    braided_factorial,
    braided_factorials,
    check_yang_baxter,
    multinomial,
)
from .checks import Checks
from .cyclotomic import MINUS_ONE, Scalar
from .errors import FactorizationError
from .graded import GradedBialgebra, ideal_quotient, sub_bialgebra
from .matrix import Matrix, compose_kron, kron_apply
from .permutations import Permutation


def reversal(n: int) -> Permutation:
    return Permutation(range(n, 0, -1))


def closed_form_antipode(x: BraidedSpace, n: int) -> Matrix:
    """S_n = (-1)^n lam^C(n,2) rep(sigma_n^0)."""
    sign = Scalar.rational(-1) ** n
    weight = sign * x.lam ** (n * (n - 1) // 2)
    mat = x.rep(reversal(n))
    return mat.scale(weight)


def at_minus_one(x: BraidedSpace) -> BraidedSpace:
    """x with lam = -1, the antisymmetrizer's and the wedge's parameter; x
    itself when its lam already is -1, so psi is ranked only once."""
    return x if x.lam == MINUS_ONE else BraidedSpace(x.dim, x.psi, MINUS_ONE)


def build_tensor_hopf(x: BraidedSpace, variant: str, N: int) -> GradedBialgebra:
    """variant "shuffle_coproduct" builds T(X); "shuffle_product" builds T°(X)."""
    x.guard(N)
    d = x.dim
    dims = [d**n for n in range(N + 1)]
    mult = {}
    comult = {}
    for k in range(N + 1):
        for l in range(N + 1 - k):
            if variant == "shuffle_coproduct":
                mult[(k, l)] = Matrix.identity(d ** (k + l))
                comult[(k, l)] = multinomial((k, l), x, "upper")
            elif variant == "shuffle_product":
                mult[(k, l)] = multinomial((k, l), x, "lower")
                comult[(k, l)] = Matrix.identity(d ** (k + l))
            else:
                raise ValueError(f"unknown variant {variant!r}")
    antipode = [closed_form_antipode(x, n) for n in range(N + 1)]
    return GradedBialgebra(
        dims, mult, Matrix.identity(1), comult, Matrix.identity(1),
        lambda k, l: x.rep(block_swap(k, l)), x.lam, antipode=antipode,
    )


def antisymmetrizer(x: BraidedSpace, N: int) -> list[Matrix]:
    """The degree-n blocks [n|X]! at lam = -1, for n = 0..N."""
    return braided_factorials(N, at_minus_one(x))


def check_antisym_hopf_morphism(x: BraidedSpace, N: int) -> Checks:
    """Blockwise check that A: T(X) -> T°(X) is a Hopf algebra morphism
    (at lam = -1)."""
    xm = at_minus_one(x)
    t = build_tensor_hopf(xm, "shuffle_coproduct", N)
    t0 = build_tensor_hopf(xm, "shuffle_product", N)
    a = antisymmetrizer(xm, N)
    checks = Checks()
    for k in range(N + 1):
        for l in range(N + 1 - k):
            ok = compose_kron(t0.m(k, l), a[k], a[l]) == a[k + l].compose(t.m(k, l))
            checks.record("multiplicative", None if ok else (k, l))
            ok = kron_apply(a[k], a[l], t.cm(k, l)) == t0.cm(k, l).compose(a[k + l])
            checks.record("comultiplicative", None if ok else (k, l))
    for n in range(N + 1):
        ok = t0.antipode[n].compose(a[n]) == a[n].compose(t.antipode[n])
        checks.record("antipode", None if ok else (n,))
    return checks


class WedgeAlgebra:
    def __init__(self, space: BraidedSpace, N: int, im: list, coim: list):
        self.space = space
        self.N = N
        self.im = im      # inclusion blocks into X^(tensor n)
        self.coim = coim  # projection blocks

    @property
    def dims(self) -> tuple:
        return tuple(i.cols for i in self.im)

    @cached_property
    def algebra(self) -> GradedBialgebra:
        """The Hopf structure, transported from T°(X) when first read."""
        t0 = build_tensor_hopf(self.space, "shuffle_product", self.N)
        return sub_bialgebra(t0, self.im)


def build_wedge(x: BraidedSpace, N: int) -> WedgeAlgebra:
    """The antisymmetric tensor algebra T^wedge(X): the images im[n] of the
    antisymmetrizer, a graded sub-Hopf algebra of T°(X).  The antisymmetrizer
    is a Hopf morphism only when psi satisfies the braid equation, so any
    other psi raises FactorizationError."""
    xm = at_minus_one(x)
    xm.guard(N)
    yb = check_yang_baxter(x.psi)
    if not yb.ok:
        raise FactorizationError(f"psi fails the braid equation at basis index "
                                 f"{yb.first['yang_baxter']}, so the wedge is not defined")
    im = []
    coim = []
    for fact in braided_factorials(N, xm):
        image, coimage = fact.rank_factorization()
        im.append(image)
        coim.append(coimage)
    return WedgeAlgebra(xm, N, im, coim)


def wedge_vs_quadratic(x: BraidedSpace, N: int) -> dict:
    """Compare the dimensions of T/(Ker [2]!) with those of T^wedge degree by
    degree (lam = -1).  The quadratic dims are the row counts of the
    projections onto T/(Ker [2]!); its Hopf structure is never built."""
    xm = at_minus_one(x)
    wedge = build_wedge(xm, N)
    t = build_tensor_hopf(xm, "shuffle_coproduct", N)
    two_bang = braided_factorial(2, xm)
    generators = two_bang.kernel_basis()
    quadratic_dims = [p.rows for p in ideal_quotient(t, generators, 2)]
    equal_from = None
    for n in range(N + 1):
        if quadratic_dims[n] != wedge.dims[n]:
            equal_from = n
            break
    return {
        "wedge_dims": list(wedge.dims),
        "quadratic_dims": quadratic_dims,
        "equal": equal_from is None,
        "first_unequal_degree": equal_from,
    }
