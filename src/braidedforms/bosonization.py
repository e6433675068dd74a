"""The exterior Hopf algebra of forms over H as a graded biproduct.

Given a Hopf bimodule X over H, the coinvariants M = _HX form a crossed
module whose braiding Psi(m (x) n) = n_(0) (x) m <| n_(1) makes M a braided
space; the antisymmetric tensor algebra T^wedge(M) is then a Hopf algebra in
crossed modules, and the biproduct H (x) T^wedge(M) is a graded Hopf algebra
in the base category (degree-0 component H, degree-1 component H (x) M
isomorphic to X).

All structure maps are assembled blockwise:
  (h (x) v)(g (x) w) = h g_(1) (x) (v <| g_(2)) w
  Delta(h (x) u)     = (h_(1) (x) u^(1)_(0)) (x) (h_(2) u^(1)_(1) (x) u^(2))
with the crossed action/coaction of H on T^wedge(M) taken degreewise
(diagonal on M^(tensor n), corestricted to the wedge).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bimodules import CrossedModule, HopfBimodule, coinvariants, yd_braiding
from .braiding import BraidedSpace
from .cyclotomic import MINUS_ONE
from .graded import (
    GradedBialgebra,
    GradedSpace,
    antipode_recursive,
    signed_swap_blocks,
)
from .hopf import HopfAlgebraData
from .matrix import Matrix, compose_kron, kron, kron_apply, solve_mono, swap_matrix
from .tensor_hopf import WedgeAlgebra, build_wedge


def crossed_power_action(mc: CrossedModule, n: int) -> Matrix:
    """Diagonal right action of H on M^(tensor n)."""
    h = mc.h
    a = h.dim
    if n == 0:
        return h.counit
    act = mc.mu_r
    for k in range(2, n + 1):
        prev_dim = mc.dim ** (k - 1)
        act = compose_kron(
            kron(act, mc.mu_r).compose(swap_matrix(mc.dim, a, prev_dim, a)),
            Matrix.identity(prev_dim * mc.dim), h.comult,
        )
    return act


def crossed_power_coaction(mc: CrossedModule, n: int) -> Matrix:
    """Codiagonal right coaction of H on M^(tensor n)."""
    h = mc.h
    a = h.dim
    if n == 0:
        return h.unit
    coact = mc.nu_r
    for k in range(2, n + 1):
        prev_dim = mc.dim ** (k - 1)
        coact = kron_apply(
            Matrix.identity(prev_dim * mc.dim), h.mult,
            swap_matrix(a, mc.dim, prev_dim, a).compose(kron(coact, mc.nu_r)),
        )
    return coact


@dataclass
class WedgeOverH:
    h: HopfAlgebraData
    x: HopfBimodule
    N: int
    algebra: GradedBialgebra
    coinv: CrossedModule
    p: Matrix
    i: Matrix
    wedge: WedgeAlgebra


def wedge_over_H(h: HopfAlgebraData, x: HopfBimodule, N: int) -> WedgeOverH:
    """The graded biproduct H (x) T^wedge(_HX) truncated at degree N."""
    mc, p, i = coinvariants(x)
    a = h.dim
    m = mc.dim
    psi = yd_braiding(mc, mc)
    space = BraidedSpace(m, psi, MINUS_ONE, check=False)  # build_wedge checks psi
    w = build_wedge(space, N)
    walg = w.algebra

    acts = []    # W_n (x) H -> W_n
    coacts = []  # W_n -> W_n (x) H
    for n in range(N + 1):
        big_act = crossed_power_action(mc, n)
        big_coact = crossed_power_coaction(mc, n)
        acts.append(solve_mono(w.im[n], compose_kron(big_act, w.im[n], Matrix.identity(a))))
        coacts.append(solve_mono(kron(w.im[n], Matrix.identity(a)), big_coact.compose(w.im[n])))

    dims = [a * walg.dims[n] for n in range(N + 1)]
    mult = {}
    comult = {}
    for k in range(N + 1):
        wk = walg.dims[k]
        for l in range(N + 1 - k):
            wl = walg.dims[l]
            # (h, v, g, w) -> (h, v, g1, g2, w) -> (h, g1, v, g2, w)
            acted = kron(h.mult, compose_kron(walg.m(k, l), acts[k], Matrix.identity(wl)))
            mult[(k, l)] = compose_kron(
                acted.compose(swap_matrix(wk, a, a, a * wl)),
                Matrix.identity(a * wk), kron(h.comult, Matrix.identity(wl)),
            )
            # (h, u) -> (h1, h2, u1, u2) -> (h1, h2, u1_0, u1_1, u2)
            #        -> (h1, u1_0, h2, u1_1, u2) -> (h1, u1_0, h2 u1_1, u2)
            coacted = kron(h.comult, kron_apply(coacts[k], Matrix.identity(wl), walg.cm(k, l)))
            comult[(k, l)] = kron_apply(
                Matrix.identity(a * wk), kron(h.mult, Matrix.identity(wl)),
                swap_matrix(a, wk, a, a * wl).compose(coacted),
            )

    unit = kron(h.unit, walg.unit)
    counit = kron(h.counit, walg.counit)
    alg = GradedBialgebra(
        GradedSpace(dims), mult, unit, comult, counit,
        signed_swap_blocks(dims, dims), lam=MINUS_ONE,
    )
    s0 = kron(h.antipode, Matrix.identity(walg.dims[0]))
    alg.antipode = antipode_recursive(alg, s0)
    return WedgeOverH(h, x, N, alg, mc, p, i, w)
