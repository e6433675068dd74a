"""Bicovariant differential calculi over a Hopf algebra H.

First order: the universal calculus on Ker m, and classification of calculi
by crossed submodules R of Ker epsilon (regular action, coadjoint coaction).
The calculus that R classifies is built on the crossed-module side of the
equivalence with Hopf bimodules (Schauenburg, J. Algebra 169, 1994) as the
smash product H |x (Ker eps / R) with d(h) = h_(1) (x) [h_(2) - eps(h_(2)) 1]
(Woronowicz, Comm. Math. Phys. 122, 1989), so no Ker m is built; the
quotient of the universal calculus by alpha(H (x) R) is the same calculus up
to isomorphism and is what "submodule" calculus bundles load.  R is read
back off any calculus as the kernel on Ker eps of its Maurer-Cartan form
omega(h) = S(h_(1)) d(h_(2)).

Higher order: the comma extension H (+)_d X with its distinguished
bi-invariant element, the maximal differential calculus inside a
differential graded algebra, and the exterior differential Hopf algebra
(X^wedge_H, d^wedge) computed by two independent routes (the biproduct of
forms, and the maximal calculus of the comma extension's wedge).  Both
routes take (calc, N) and return the GradedBialgebra carrying its
differential d_0 ... d_(N-1), which the maximal calculus, the generation
conditions and the checks read from it.
"""

from __future__ import annotations

from .bimodules import (
    CrossedModule,
    HopfBimodule,
    check_hopf_bimodule,
    coadjoint_crossed,
    smash,
    square_bimodule,
)
from .bosonization import wedge_over_H
from .checks import Checks
from .cyclotomic import MINUS_ONE, ONE
from .errors import NotASubmodule
from .graded import GradedBialgebra, check_graded_structure, sub_bialgebra
from .hopf import HopfAlgebraData
from .matrix import (
    Matrix,
    braided_product,
    compose_kron,
    hstack,
    kron,
    kron_apply,
    solve_epi,
    solve_mono,
    span_closure,
    split_leg,
    vstack,
)


class FirstOrderCalculus:
    def __init__(self, h: HopfAlgebraData, x: HopfBimodule, d: Matrix):
        self.h = h
        self.x = x
        self.d = d  # H -> X


class UniversalCalculus(FirstOrderCalculus):
    """The universal calculus Ker m, from which every bicovariant first order
    calculus over H is a quotient."""

    def __init__(self, h: HopfAlgebraData, x: HopfBimodule, d: Matrix, *,
                 smash_map: Matrix, inclusion: Matrix, ker_counit: CrossedModule):
        super().__init__(h, x, d)
        self.smash_map = smash_map    # the isomorphism alpha: H (x) Ker eps -> Ker m
        self.inclusion = inclusion    # Ker m -> H (x) H
        self.ker_counit = ker_counit  # Ker eps, regular action, coadjoint coaction


def check_first_order(calc: FirstOrderCalculus) -> Checks:
    """Leibniz, generation, bicovariance, plus the bimodule axioms of X."""
    h, x, d = calc.h, calc.x, calc.d
    a = h.dim
    ea = Matrix.identity(a)
    checks = check_hopf_bimodule(x)
    span = compose_kron(x.mu_l, ea, d)
    checks.record_all({
        "leibniz": d.compose(h.mult) == compose_kron(x.mu_r, d, ea) + span,
        "generation": span.column_echelon_basis()[0].cols == x.dim,
        "left_covariance": x.nu_l.compose(d) == kron_apply(ea, d, h.comult),
        "right_covariance": x.nu_r.compose(d) == kron_apply(d, ea, h.comult),
    })
    return checks


def universal_fodc(h: HopfAlgebraData) -> UniversalCalculus:
    """The universal first order calculus: X = Ker m inside the square Hopf
    bimodule H (x) H, with incl o D = eta (x) id - id (x) eta, together with
    Ker eps and the smash isomorphism alpha: H (x) Ker eps -> Ker m,
    h (x) x -> h S(x_(1)) (x) x_(2)."""
    a = h.dim
    ea = Matrix.identity(a)
    mc, ik = kernel_counit_crossed(h)
    incl = h.mult.kernel_basis()
    x = square_bimodule(h).sub(incl, "ker_mult")
    d = solve_mono(incl, kron(h.unit, ea) - kron(ea, h.unit))
    twisted = kron_apply(h.antipode, ea, h.comult.compose(ik))  # x -> S(x_(1)) (x) x_(2)
    alpha = solve_mono(incl, braided_product(h.mult, ea, ea, ea, twisted, (a, 1, a, a)))
    return UniversalCalculus(h, x, d, smash_map=alpha, inclusion=incl, ker_counit=mc)


def derivation_morphism(univ: UniversalCalculus, other: FirstOrderCalculus) -> Matrix:
    """The unique bimodule morphism pi: Ker m -> X' with pi o D = d',
    computed as mu_l' o (id (x) d') o incl (initiality of the universal
    calculus)."""
    ea = Matrix.identity(univ.h.dim)
    return other.x.mu_l.compose(kron_apply(ea, other.d, univ.inclusion))


def kernel_counit_crossed(h: HopfAlgebraData):
    """Ker epsilon as a crossed submodule of H^ad (regular action, coadjoint
    coaction). Returns (CrossedModule, inclusion into H)."""
    ik = h.counit.kernel_basis()
    return coadjoint_crossed(h).sub(ik, "ker_counit"), ik


def crossed_submodule_closure(m: CrossedModule, gens: Matrix) -> Matrix:
    """Echelon basis of the smallest subspace of M containing Im(gens) that
    is stable under the action (v <| h) and the coaction components
    (id (x) e_j*) o nu_r: matrix.span_closure of one step that applies
    both."""
    a = m.h.dim
    ea = Matrix.identity(a)
    return span_closure(lambda v: hstack([compose_kron(m.mu_r, v, ea),
                                          split_leg(m.nu_r.compose(v), a)]), gens)


def fodc_from_submodule(univ: UniversalCalculus, r_gens: Matrix) -> FirstOrderCalculus:
    """The first order calculus classified by the crossed submodule
    R = Im(r_gens) of Ker eps: the quotient of the universal calculus by the
    Hopf sub-bimodule alpha(H (x) R)."""
    h = univ.h
    alpha = univ.smash_map
    r_basis = r_gens.column_echelon_basis()[0]
    closed = crossed_submodule_closure(univ.ker_counit, r_basis)
    if closed.cols != r_basis.cols:
        raise NotASubmodule(
            f"generators span {r_basis.cols} dims but their closure spans {closed.cols}"
        )
    n_basis = compose_kron(alpha, Matrix.identity(h.dim), r_basis).column_echelon_basis()[0]
    q = n_basis.cokernel()
    return FirstOrderCalculus(h, univ.x.quotient(q, "classified"), q.compose(univ.d))


def smash_calculus(ker: CrossedModule, ik: Matrix, r_basis: Matrix) -> FirstOrderCalculus:
    """The first order calculus classified by the crossed submodule
    R = Im(r_basis) of Ker eps, built on the crossed-module side:
    X = H |x (Ker eps / R) with d(h) = h_(1) (x) q(h_(2) - eps(h_(2)) 1), where
    ker and ik are kernel_counit_crossed(h) and q is the cokernel of R.  Along
    alpha it is isomorphic to fodc_from_submodule's quotient of Ker m, which
    it never builds.  Ker eps / R is ker.quotient(q), so a subspace R that
    is not a crossed submodule raises FactorizationError."""
    h = ker.h
    ea = Matrix.identity(h.dim)
    q = r_basis.cokernel()
    quotient = ker.quotient(q, "ker_counit/R")
    to_ker = solve_mono(ik, ea - h.unit.compose(h.counit))  # id - eta eps: H -> Ker eps
    d = kron_apply(ea, q.compose(to_ker), h.comult)
    return FirstOrderCalculus(h, smash(h, quotient), d)


def read_off_submodule(calc: FirstOrderCalculus) -> Matrix:
    """Recover the classifying crossed submodule R of Ker eps from a calculus
    (X, d) alone: R = {x in Ker eps : omega(x) = 0}, the kernel of the
    Maurer-Cartan form omega = mu_l o (S (x) d) o Delta, x -> S(x_(1)) d(x_(2)).
    On the smash calculus omega(x) = 1 (x) q(x); on a quotient of Ker m it is
    the class of alpha(1 (x) x)."""
    h = calc.h
    ik = h.counit.kernel_basis()
    omega = calc.x.mu_l.compose(kron_apply(h.antipode, calc.d, h.comult.compose(ik)))
    return omega.kernel_basis().column_echelon_basis()[0]


# --- comma extension -------------------------------------------------------


def comma_extension(calc: FirstOrderCalculus) -> tuple[HopfBimodule, Matrix]:
    """H (+)_d X: the Hopf bimodule on H (+) X with
    mu_l = diag(m, mu_l), mu_r = [[m, 0], [mu_l o (id (x) d), mu_r]],
    block-diagonal coactions, and its distinguished bi-invariant element
    xhat = (eta, 0), a column vector in H (+) X."""
    h, x, d = calc.h, calc.x, calc.d
    a = h.dim
    dx = x.dim
    n = a + dx
    ih = vstack([Matrix.identity(a), Matrix.zero(dx, a)])
    ix = vstack([Matrix.zero(a, dx), Matrix.identity(dx)])
    ph = ih.transpose()
    px = ix.transpose()
    ea = Matrix.identity(a)
    mu_l = compose_kron(ih.compose(h.mult), ea, ph) + compose_kron(ix.compose(x.mu_l), ea, px)
    on_h = ih.compose(h.mult) + ix.compose(compose_kron(x.mu_l, ea, d))  # g h + g d(h)
    mu_r = compose_kron(on_h, ph, ea) + compose_kron(ix.compose(x.mu_r), px, ea)
    nu_l = kron_apply(ea, ih, h.comult.compose(ph)) + kron_apply(ea, ix, x.nu_l.compose(px))
    nu_r = kron_apply(ih, ea, h.comult.compose(ph)) + kron_apply(ix, ea, x.nu_r.compose(px))
    bim = HopfBimodule(h, n, mu_l, mu_r, nu_l, nu_r, name="comma")
    return bim, ih.compose(h.unit)


def bracket_differential(alg: GradedBialgebra, xhat: Matrix) -> list[Matrix]:
    """The graded bracket [xhat, .]_n = m_(1,n)(xhat (x) .) - (-1)^n
    m_(n,1)(. (x) xhat) for a degree-1 element xhat."""
    out = []
    for n in range(alg.N):
        left = compose_kron(alg.m(1, n), xhat, alg.eye(n))
        right = compose_kron(alg.m(n, 1), alg.eye(n), xhat)
        sign = ONE if n % 2 == 0 else MINUS_ONE
        out.append(left - right.scale(sign))
    return out


# --- maximal calculus ------------------------------------------------------


def maximal_calculus(alg: GradedBialgebra) -> GradedBialgebra:
    """The maximal differential calculus inside a graded algebra with a
    differential: the sub-bialgebra with i_0 = id,
    i_1 = Im(m_(0,1) o (id (x) d_0)), i_(n+1) = Im(m_(n,1) o (i_n (x) i_1))."""
    incl = [Matrix.identity(alg.dims[0])]
    first = compose_kron(alg.m(0, 1), alg.eye(0), alg.differential[0])
    incl.append(first.column_echelon_basis()[0])
    for n in range(2, alg.N + 1):
        gen = compose_kron(alg.m(n - 1, 1), incl[n - 1], incl[1])
        incl.append(gen.column_echelon_basis()[0])
    return sub_bialgebra(alg, incl)


# --- exterior calculus -----------------------------------------------------


def biproduct_differential(alg: GradedBialgebra, can: Matrix, d: Matrix) -> list[Matrix]:
    """The differential on the biproduct B = H (x) T^wedge(_HX) determined by
    the first order d: H -> X, where can: B_1 -> X is the isomorphism of
    wedge_over_H.  Degree by degree, each block is solved over a surjection
    onto its source from blocks already known:
      d_0 = can^-1 o d;
      d_1 from d(a d(b)) = d(a) d(b), over m(0,1) o (id (x) d_0): H (x) H -> B_1;
      d_n (n >= 2) from d(x y) = d(x) y - x d(y), over m(1,n-1): B_1 (x) B_(n-1) -> B_n,
    the last a surjection because T^wedge(_HX) is generated in degree 1.  No
    block is built on H^(x)(n+1), so the cost follows the dimensions of B.
    """
    N = alg.N
    d0 = can.inverse().compose(d)
    diff = [d0]
    if N >= 2:
        gen = compose_kron(alg.m(0, 1), alg.eye(0), d0)
        diff.append(solve_epi(compose_kron(alg.m(1, 1), d0, d0), gen))
    for n in range(2, N):
        target = (compose_kron(alg.m(2, n - 1), diff[1], alg.eye(n - 1))
                  - compose_kron(alg.m(1, n), alg.eye(1), diff[n - 1]))
        diff.append(solve_epi(target, alg.m(1, n - 1)))
    return diff


def exterior_calculus(calc: FirstOrderCalculus, N: int) -> GradedBialgebra:
    """(X^wedge_H, d^wedge) by the biproduct route."""
    alg, can = wedge_over_H(calc.h, calc.x, N)
    alg.differential = biproduct_differential(alg, can, calc.d)
    return alg


def exterior_calculus_via_comma(calc: FirstOrderCalculus, N: int) -> GradedBialgebra:
    """(X^wedge_H, d^wedge) by the oracle route: the maximal calculus of
    ((H (+)_d X)^wedge_H, [xhat, .])."""
    bim, xhat = comma_extension(calc)
    alg, can = wedge_over_H(calc.h, bim, N)
    # xhat = (eta, 0) in degree 1: B_1 = H (x) _H(H (+) X)
    alg.differential = bracket_differential(alg, can.inverse().compose(xhat))
    return maximal_calculus(alg)


# --- verification ----------------------------------------------------------


def generation_conditions(alg: GradedBialgebra) -> dict:
    """The equivalent generation conditions on alg's differential, evaluated
    per degree:
    (2) A_0 . d(A_n) spans A_(n+1);
    (3) d(A_n) . A_0 spans A_(n+1);
    (4) A_0 . d(A_n) . A_0 spans A_(n+1);
    (5) A_0 . d(A_0) ... d(A_0) spans A_n."""
    N, diff = alg.N, alg.differential
    e0 = alg.eye(0)
    cond = {"left": [], "right": [], "two_sided": [], "iterated": []}
    for n in range(N):
        target = alg.dims[n + 1]
        left = compose_kron(alg.m(0, n + 1), e0, diff[n])
        cond["left"].append(left.column_echelon_basis()[0].cols == target)
        right = compose_kron(alg.m(n + 1, 0), diff[n], e0)
        cond["right"].append(right.column_echelon_basis()[0].cols == target)
        two = compose_kron(alg.m(n + 1, 0), left, e0)
        cond["two_sided"].append(two.column_echelon_basis()[0].cols == target)
    ok_iter = []
    word = diff[0]
    for n in range(1, N + 1):
        gen = compose_kron(alg.m(0, n), e0, word)
        ok_iter.append(gen.column_echelon_basis()[0].cols == alg.dims[n])
        if n < N:
            word = compose_kron(alg.m(1, n), diff[0], word)
    cond["iterated"] = ok_iter
    agree = cond["left"] == cond["right"] == cond["two_sided"] == cond["iterated"]
    return {"conditions": cond, "all_agree": agree,
            "generated": all(cond["left"])}


def verify_calculus(obj) -> Checks:
    """Per-axiom verdicts: the first-order axioms of a FirstOrderCalculus, or
    the differential Hopf axioms of a graded bialgebra with differential."""
    if isinstance(obj, FirstOrderCalculus):
        return check_first_order(obj)
    return check_graded_structure(obj)
