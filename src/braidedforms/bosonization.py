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
(diagonal on M^(tensor n), corestricted to the wedge).
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
from .graded import (
    GradedBialgebra,
    antipode_recursive,
    signed_swap_blocks,
)
from .hopf import HopfAlgebraData
from .matrix import (
    Matrix,
    braided_product,
    compose_kron,
    kron,
    kron_apply,
    solve_mono,
    swap_matrix,
)
from .tensor_hopf import build_wedge


def crossed_power(mc: CrossedModule, n: int) -> CrossedModule:
    """M^(tensor n) with the diagonal right action and codiagonal right
    coaction; the unit object at n = 0."""
    h = mc.h
    power = trivial_crossed(h)
    for _ in range(n):
        power = CrossedModule(h, power.dim * mc.dim, *diagonal_structures(power, mc))
    return power


def wedge_over_H(h: HopfAlgebraData, x: HopfBimodule, N: int) -> tuple[GradedBialgebra, Matrix]:
    """The graded biproduct H (x) T^wedge(_HX) truncated at degree N, and the
    isomorphism can: H (x) _HX -> X, h (x) v -> h . v, from its degree 1 onto
    X (invertible by the Hopf module structure theorem)."""
    mc, _, i = coinvariants(x)
    a = h.dim
    m = mc.dim
    psi = yd_braiding(mc, mc)
    space = BraidedSpace(m, psi, MINUS_ONE, check=False)  # build_wedge checks psi
    w = build_wedge(space, N)
    walg = w.algebra

    acts = []    # W_n (x) H -> W_n
    coacts = []  # W_n -> W_n (x) H
    for n in range(N + 1):
        power = crossed_power(mc, n)
        acts.append(solve_mono(w.im[n], compose_kron(power.mu_r, w.im[n], Matrix.identity(a))))
        coacts.append(solve_mono(kron(w.im[n], Matrix.identity(a)), power.nu_r.compose(w.im[n])))

    dims = [a * walg.dims[n] for n in range(N + 1)]
    mult = {}
    comult = {}
    for k in range(N + 1):
        wk = walg.dims[k]
        for l in range(N + 1 - k):
            wl = walg.dims[l]
            ewl = Matrix.identity(wl)
            # (h, v, g, w) -> (h, v, g1, g2, w) -> (h, g1, v, g2, w)
            #              -> (h g1, (v <| g2) w)
            mult[(k, l)] = braided_product(
                h.mult, compose_kron(walg.m(k, l), acts[k], ewl), swap_matrix(wk, a),
                Matrix.identity(a * wk), kron(h.comult, ewl), (a, wk, a, a * wl),
            )
            # (h, u) -> (h1, h2, u1_0, u1_1, u2) -> (h1, u1_0, h2, u1_1, u2)
            #        -> (h1, u1_0, h2 u1_1, u2)
            comult[(k, l)] = braided_product(
                Matrix.identity(a * wk), kron(h.mult, ewl), swap_matrix(a, wk),
                h.comult, kron_apply(coacts[k], ewl, walg.cm(k, l)), (a, a, wk, a * wl),
            )

    unit = kron(h.unit, walg.unit)
    counit = kron(h.counit, walg.counit)
    alg = GradedBialgebra(
        dims, mult, unit, comult, counit,
        signed_swap_blocks(dims, dims), lam=MINUS_ONE,
    )
    s0 = kron(h.antipode, Matrix.identity(walg.dims[0]))
    alg.antipode = antipode_recursive(alg, s0)
    return alg, compose_kron(x.mu_l, Matrix.identity(a), i)
