"""The exterior Hopf algebra of forms over H as a graded biproduct.

Given a Hopf bimodule X over H, the coinvariants M = _HX form a crossed
module whose braiding Psi(m (x) n) = n_(0) (x) m <| n_(1) makes M a braided
space; the antisymmetric tensor algebra T^wedge(M) is then a Hopf algebra in
crossed modules, and the biproduct H (x) T^wedge(M) is a graded Hopf algebra
in the base category (degree-0 component H, degree-1 component H (x) M
isomorphic to X by can(h (x) v) = h . v, which wedge_over_H returns with the
algebra).

All structure maps are assembled blockwise:
  (h (x) v)(g (x) w) = h g_(1) (x) (v <| g_(2)) w
  Delta(h (x) u)     = (h_(1) (x) u^(1)_(0)) (x) (h_(2) u^(1)_(1) (x) u^(2))
with the crossed action/coaction of H on T^wedge(M) taken degreewise
(diagonal on M^(tensor n), corestricted to the wedge).  The braiding is
lambda^(kl) times the plain flip, and the antipode is the biproduct's closed
form (Radford, J. Algebra 92, 1985; Majid, J. Algebra 163, 1994):
  S(h (x) w)         = (1 (x) S_W(w_(0))) (S_H(h w_(1)) (x) 1)
"""

from __future__ import annotations

from .bimodules import (
    CrossedModule,
    HopfBimodule,
    coinvariants,
    diagonal_structures,
    trivial_crossed,
    yd_braiding,
)
from .braiding import BraidedSpace
from .cyclotomic import MINUS_ONE
from .errors import FactorizationError
from .graded import GradedBialgebra
from .hopf import HopfAlgebraData
from .matrix import (
    Matrix,
    braided_product,
    compose_kron,
    kron,
    kron_apply,
    swap_matrix,
)
from .tensor_hopf import build_wedge


def crossed_powers(mc: CrossedModule, N: int) -> list[CrossedModule]:
    """M^(tensor n) for n = 0..N with the diagonal right action and
    codiagonal right coaction, each built on the one before; the unit object
    at n = 0."""
    powers = [trivial_crossed(mc.h)]
    for _ in range(N):
        last = powers[-1]
        powers.append(CrossedModule(mc.h, last.dim * mc.dim, *diagonal_structures(last, mc)))
    return powers


def wedge_over_H(h: HopfAlgebraData, x: HopfBimodule, N: int) -> tuple[GradedBialgebra, Matrix]:
    """The graded biproduct H (x) T^wedge(_HX) truncated at degree N, and the
    isomorphism can: H (x) _HX -> X, h (x) v -> h . v, from its degree 1 onto
    X (invertible by the Hopf module structure theorem)."""
    mc, _, i = coinvariants(x)
    a = h.dim
    # build_wedge checks the braid equation
    w = build_wedge(BraidedSpace(mc.dim, yd_braiding(mc, mc), MINUS_ONE), N)
    walg = w.algebra
    if walg.antipode is None:
        raise FactorizationError("the antipode of T°(M) does not restrict to the wedge")
    # W_n as a crossed submodule of M^(tensor n)
    wedges = [power.sub(im) for power, im in zip(crossed_powers(mc, N), w.im)]

    dims = [a * wn for wn in walg.dims]
    eye_a = Matrix.identity(a)
    eye_w = [Matrix.identity(wn) for wn in walg.dims]
    comult_w, mult_w = [kron(h.comult, e) for e in eye_w], [kron(h.mult, e) for e in eye_w]
    s_mult = h.antipode.compose(h.mult)
    mult, comult, antipode = {}, {}, []
    for k in range(N + 1):
        wk = walg.dims[k]
        eye_k, swap_wh, swap_hw = Matrix.identity(dims[k]), swap_matrix(wk, a), swap_matrix(a, wk)
        for l in range(N + 1 - k):
            # (h, v, g, w) -> (h, v, g1, g2, w) -> (h, g1, v, g2, w)
            #              -> (h g1, (v <| g2) w)
            mult[(k, l)] = braided_product(
                h.mult, compose_kron(walg.m(k, l), wedges[k].mu_r, eye_w[l]), swap_wh,
                eye_k, comult_w[l], (a, wk, a, dims[l]),
            )
            # (h, u) -> (h1, h2, u1_0, u1_1, u2) -> (h1, u1_0, h2, u1_1, u2)
            #        -> (h1, u1_0, h2 u1_1, u2)
            comult[(k, l)] = braided_product(
                eye_k, mult_w[l], swap_hw,
                h.comult, kron_apply(wedges[k].nu_r, eye_w[l], walg.cm(k, l)), (a, a, wk, dims[l]),
            )
        # (h, w) -> (h, w_0, w_1) -> (w_0, h, w_1) -> (1 (x) S_W(w_0)) (S(h w_1) (x) 1)
        antipode.append(compose_kron(mult[(k, 0)], h.unit, braided_product(
            walg.antipode[k], s_mult, swap_hw, eye_a, wedges[k].nu_r, (1, a, wk, a))))

    unit = kron(h.unit, walg.unit)
    counit = kron(h.counit, walg.counit)
    alg = GradedBialgebra(dims, mult, unit, comult, counit, None, MINUS_ONE, antipode=antipode)
    return alg, compose_kron(x.mu_l, eye_a, i)
