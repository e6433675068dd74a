import gc
import weakref
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidedforms import calculus, io, tensor_hopf
from braidedforms.bimodules import check_hopf_bimodule, is_bimodule_morphism
from braidedforms.bosonization import crossed_powers, wedge_over_H
from braidedforms.calculus import (
    FirstOrderCalculus,
    biproduct_differential,
    check_first_order,
    comma_extension,
    crossed_submodule_closure,
    derivation_morphism,
    exterior_calculus,
    exterior_calculus_via_comma,
    fodc_from_submodule,
    generation_conditions,
    kernel_counit_crossed,
    maximal_calculus,
    read_off_submodule,
    smash_calculus,
    universal_fodc,
    verify_calculus,
)
from braidedforms.errors import FactorizationError, NotASubmodule
from braidedforms.graded import antipode_recursive, check_graded_structure, sub_bialgebra
from braidedforms.hopf import cyclic_group_algebra
from braidedforms.matrix import (
    Matrix,
    compose_kron,
    hstack,
    kron,
    kron_all,
    restrict,
    solve_epi,
    split_leg,
    swap_matrix,
)
from test_bimodules import reference_smash


def reference_antipode(b, s0):
    """antipode_recursive with its whiskers built as Kronecker products."""
    s = [s0]
    for n in range(1, b.N + 1):
        total = Matrix.zero(b.dims[n], b.dims[n])
        for k in range(1, n + 1):
            inner = b.m(k, n - k).compose(kron(b.eye(k), s[n - k]))
            total = total + b.m(0, n).compose(kron(s0, inner)).compose(
                kron(Matrix.identity(b.dims[0]), b.cm(k, n - k))).compose(b.cm(0, n))
        s.append(-total)
    return s


def reference_crossed_powers(mc, n):
    """(action, coaction) of crossed_powers(mc, n)[k] for k = 0..n, each factor
    added as a Kronecker chain through id (x) swap (x) id."""
    h, a = mc.h, mc.h.dim
    out = [(h.counit, h.unit), (mc.mu_r, mc.nu_r)]
    act, coact = mc.mu_r, mc.nu_r
    for k in range(2, n + 1):
        prev = Matrix.identity(mc.dim ** (k - 1))
        eye, ea = Matrix.identity(mc.dim ** k), Matrix.identity(a)
        act = kron(act, mc.mu_r).compose(kron_all(prev, swap_matrix(mc.dim, a), ea)).compose(
            kron(eye, h.comult))
        coact = kron(eye, h.mult).compose(kron_all(prev, swap_matrix(a, mc.dim), ea)).compose(
            kron(coact, mc.nu_r))
        out.append((act, coact))
    return out[:n + 1]


def reference_biproduct_differential(alg, can, d):
    """The biproduct differential solved over the generation surjections
    H^(x)(n+1) -> B_n, a_0 (x) ... (x) a_n -> a_0 d(a_1) ... d(a_n), from
    d(a_0 d(a_1) ... d(a_n)) = d(a_0) d(a_1) ... d(a_n)."""
    N, eh = alg.N, alg.eye(0)
    d0 = can.inverse().compose(d)
    words = [eh, d0]  # words[n]: H^(x)n -> B_n, d(a_1) ... d(a_n)
    for n in range(2, N + 1):
        words.append(alg.m(1, n - 1).compose(kron(d0, words[n - 1])))
    diff = [d0]
    for n in range(1, N):
        gen = alg.m(0, n).compose(kron(eh, words[n]))
        diff.append(solve_epi(alg.m(1, n).compose(kron(d0, words[n])), gen))
    return diff


# the bundled calculi, and the universal calculi of the corpus algebras that
# have none; taft3's universal calculus is left out, since its recursive
# antipode alone takes over a second at N = 2
ANTIPODE_CALCULI = ("kz2_universal_calculus", "kz3_universal_calculus",
                    "sweedler_universal_calculus", "taft3_quotient_calculus",
                    "kz4", "kz5", "kz6", "ks3")


class TestBosonization:
    def test_crossed_powers_against_kronecker_chains(self, kz3, sweedler, ks3):
        for h in (kz3, sweedler, ks3):
            mc = kernel_counit_crossed(h)[0]
            powers = crossed_powers(mc, 3)
            assert len(powers) == 4
            for n, (act, coact) in enumerate(reference_crossed_powers(mc, 3)):
                power = powers[n]
                assert power.dim == mc.dim ** n
                assert (power.mu_r, power.nu_r) == (act, coact), (h.name, n)

    def test_wedge_over_H_builds_each_crossed_power_once(self, kz3, monkeypatch):
        from braidedforms import bosonization

        calls = []
        diagonal_structures = bosonization.diagonal_structures

        def counting(x, m):
            calls.append(x.dim)
            return diagonal_structures(x, m)

        monkeypatch.setattr(bosonization, "diagonal_structures", counting)
        x = universal_fodc(kz3).x
        for N in (1, 2, 3):
            calls.clear()
            wedge_over_H(kz3, x, N)
            assert len(calls) == N  # not N(N+1)/2: M^(tensor n) is built once

    def test_antipode_against_kronecker_chains(self, sweedler):
        alg, _ = wedge_over_H(sweedler, universal_fodc(sweedler).x, 2)
        assert alg.antipode == reference_antipode(alg, alg.antipode[0])

    @pytest.mark.parametrize("route", ["X", "comma"])
    @pytest.mark.parametrize("name", ANTIPODE_CALCULI)
    def test_closed_form_antipode_against_recursion(self, name, route):
        calc = corpus_calculus(name)
        x = calc.x if route == "X" else comma_extension(calc)[0]
        for N in (1, 2, 3):
            alg, _ = wedge_over_H(calc.h, x, N)
            assert alg.antipode == antipode_recursive(alg, calc.h.antipode), N

    def test_wedge_antipode_that_does_not_restrict(self, kz3, monkeypatch):
        # with T°(M)'s antipode replaced by a cyclic shift of the basis, the
        # wedge is no longer stable under it: the biproduct cannot be built
        def shift(x, n):
            d = x.dim ** n
            return Matrix(d, d, [int(r == (c + 1) % d) for r in range(d) for c in range(d)])

        monkeypatch.setattr(tensor_hopf, "closed_form_antipode", shift)
        with pytest.raises(FactorizationError, match="does not restrict to the wedge"):
            wedge_over_H(kz3, universal_fodc(kz3).x, 2)

    def test_wedge_over_H_square_kz2(self, kz2):
        from braidedforms.bimodules import square_bimodule

        alg, _ = wedge_over_H(kz2, square_bimodule(kz2), 3)
        assert alg.dims == (2, 4, 2, 0)
        assert check_graded_structure(alg).ok

    def test_wedge_over_H_regular_degenerate(self, kz2):
        from braidedforms.bimodules import regular_bimodule

        alg, _ = wedge_over_H(kz2, regular_bimodule(kz2), 2)
        # coinvariants of H itself are one-dimensional and the trivial
        # crossed braiding is the plain swap, so the wedge truncates at 1
        assert alg.dims == (2, 2, 0)
        assert check_graded_structure(alg).ok


class TestUniversal:
    def test_dims_and_axioms(self, kz2, kz3, sweedler):
        for h in (kz2, kz3, sweedler):
            univ = universal_fodc(h)
            assert univ.x.dim == h.dim * h.dim - h.dim
            assert check_first_order(univ).ok

    def test_d_of_unit_vanishes(self, kz3):
        univ = universal_fodc(kz3)
        assert univ.d.compose(kz3.unit).is_zero

    def test_initiality(self, kz3, sweedler):
        for h in (kz3, sweedler):
            univ = universal_fodc(h)
            mc = univ.ker_counit
            # target: the calculus classified by a proper submodule (here 0
            # and the full Ker eps give universal and zero targets)
            for gens in (Matrix.zero(mc.dim, 0), Matrix.identity(mc.dim)):
                other = fodc_from_submodule(univ, gens)
                phi = derivation_morphism(univ, other)
                assert phi.compose(univ.d) == other.d
                from braidedforms.bimodules import is_bimodule_morphism

                assert is_bimodule_morphism(univ.x, other.x, phi)

    def test_smash_iso(self, kz2, kz3, sweedler):
        for h in (kz2, kz3, sweedler):
            univ = universal_fodc(h)
            alpha, mc = univ.smash_map, univ.ker_counit
            assert alpha.rows == alpha.cols == univ.x.dim
            assert alpha.rank() == univ.x.dim
            from braidedforms.bimodules import smash
            from braidedforms.bimodules import is_bimodule_morphism

            assert is_bimodule_morphism(smash(h, mc), univ.x, alpha)


def reference_closure(m, gens):
    """crossed_submodule_closure as it was before it became semi-naive: each
    round applies the action and the coaction to the whole basis, with the
    coaction components split off nu_r o basis by index arithmetic on the
    M (x) H rows."""
    a = m.h.dim
    basis = gens.column_echelon_basis()[0]
    while True:
        pieces = [basis]
        if basis.cols:
            pieces.append(m.mu_r.compose(kron(basis, Matrix.identity(a))))
            co = m.nu_r.compose(basis)
            comp = Matrix.zero(m.dim, basis.cols * a)
            for (rj, c), v in co.nonzeros():
                r, j = divmod(rj, a)
                comp[r, c * a + j] = v
            pieces.append(comp)
        new_basis = hstack(pieces).column_echelon_basis()[0]
        if new_basis.cols == basis.cols:
            return new_basis
        basis = new_basis


def reference_read_off(univ, calc):
    """read_off_submodule of a quotient of the universal calculus as it was
    before it read the Maurer-Cartan form: the kernel of x -> psi(1 (x) x) on
    Ker eps, for psi = pi o alpha: H (x) Ker eps -> X and pi the quotient map."""
    h = univ.h
    psi = derivation_morphism(univ, calc).compose(univ.smash_map)
    psi0 = compose_kron(psi, h.unit, Matrix.identity(univ.ker_counit.dim))
    return psi0.kernel_basis().column_echelon_basis()[0]


CORPUS = ("kz2", "kz3", "kz4", "kz5", "kz6", "ks3", "sweedler", "taft3")


@cache
def corpus_hopf(name):
    return io.hopf_from_obj(io.load_json(io.bundled_path(name)))


@cache
def corpus_calculus(name):
    """A bundled calculus by file name, or a corpus algebra's universal calculus."""
    if name in CORPUS:
        return universal_fodc(corpus_hopf(name))
    path = io.bundled_path(name)
    return io.calculus_from_obj(io.load_json(path), path.parent)


@cache
def classified(name):
    """(universal calculus, Ker eps with its inclusion, the closed submodules
    of classify's default sweep) of a corpus Hopf algebra."""
    h = corpus_hopf(name)
    univ = universal_fodc(h)
    mc, ik = kernel_counit_crossed(h)
    eye = Matrix.identity(mc.dim)
    closed = {crossed_submodule_closure(mc, gens): None
              for gens in [Matrix.zero(mc.dim, 0)] + [eye.col(j) for j in range(mc.dim)] + [eye]}
    return univ, mc, ik, list(closed)


@cache
def closure_module(name):
    """Ker eps of a corpus Hopf algebra, or the bundled crossed module H^ad of
    Sweedler's algebra."""
    if name == "sweedler_coadjoint_crossed":
        path = io.bundled_path(name)
        return io.crossed_from_obj(io.load_json(path), path.parent)
    return kernel_counit_crossed(corpus_hopf(name))[0]


def spans(basis, vectors):
    """Whether the columns of vectors lie in the span of the columns of basis."""
    return hstack([basis, vectors]).column_echelon_basis()[0].cols == basis.cols


@st.composite
def closure_inputs(draw):
    """(crossed module name, 0-3 random rational generator vectors)."""
    name = draw(st.sampled_from(CORPUS + ("sweedler_coadjoint_crossed",)))
    dim = closure_module(name).dim
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    vectors = draw(st.lists(st.lists(rationals, min_size=dim, max_size=dim), max_size=3))
    return name, vectors


class TestClassification:
    @pytest.mark.parametrize("name", ["kz3", "sweedler", "ks3", "taft3"])
    def test_closure_against_index_split(self, request, name):
        # every coordinate vector of Ker eps as a one-vector candidate
        mc, _ = kernel_counit_crossed(request.getfixturevalue(name))
        eye = Matrix.identity(mc.dim)
        for j in range(mc.dim):
            gens = eye.col(j)
            assert crossed_submodule_closure(mc, gens) == reference_closure(mc, gens)

    @settings(max_examples=60, deadline=None)
    @given(closure_inputs())
    # e_1 of taft3 grows 1 -> 5 -> 6 of 8 dims in two rounds: a closure that
    # stops after one growing round fails here
    @example(("taft3", [[0, 1, 0, 0, 0, 0, 0, 0]]))
    def test_closure_against_reference(self, drawn):
        name, vectors = drawn
        m = closure_module(name)
        gens = Matrix(len(vectors), m.dim, [x for v in vectors for x in v]).transpose()
        closed = crossed_submodule_closure(m, gens)
        assert closed == reference_closure(m, gens)
        ea = Matrix.identity(m.h.dim)
        assert spans(closed, gens)
        assert spans(closed, compose_kron(m.mu_r, closed, ea))
        assert spans(closed, split_leg(m.nu_r.compose(closed), m.h.dim))

    @pytest.mark.parametrize("name", CORPUS)
    def test_smash_calculus_isomorphic_to_quotient(self, name):
        # for every closed submodule R of the default sweep, the smash
        # calculus H |x (Ker eps / R) and the quotient of Ker m by alpha(H (x) R)
        # are one calculus: the bimodule map X_quot -> X_smash fixed by
        # a d_quot(b) -> a d_smash(b) exists and is invertible
        univ, mc, ik, closed_list = classified(name)
        h = univ.h
        ea = Matrix.identity(h.dim)
        for closed in closed_list:
            quot = fodc_from_submodule(univ, closed)
            sm = smash_calculus(mc, ik, closed)
            assert sm.x.dim == quot.x.dim == h.dim * (mc.dim - closed.cols)
            assert check_first_order(sm).ok, (name, closed.cols)
            phi = solve_epi(compose_kron(sm.x.mu_l, ea, sm.d),
                            compose_kron(quot.x.mu_l, ea, quot.d))
            assert phi.rows == phi.cols and phi.rank() == phi.rows
            assert phi.compose(quot.d) == sm.d
            assert is_bimodule_morphism(quot.x, sm.x, phi)
            assert read_off_submodule(sm) == closed

    @pytest.mark.parametrize("name", CORPUS)
    def test_smash_calculus_lazy_matches_eager(self, name):
        # each smash calculus builds its right structure on first read: forced
        # inside the checks or by to_obj, it agrees with the eager smash
        # product of the Kronecker-chain reference
        _, mc, ik, closed_list = classified(name)
        h = mc.h
        for closed in closed_list:
            q = closed.transpose().kernel_basis().transpose()
            sm = smash_calculus(mc, ik, closed)
            eager = FirstOrderCalculus(h, reference_smash(h, mc.quotient(q)), sm.d)
            assert check_hopf_bimodule(smash_calculus(mc, ik, closed).x).to_obj() == \
                check_hopf_bimodule(eager.x).to_obj()
            assert check_first_order(sm).to_obj() == check_first_order(eager).to_obj()
            assert sm.x.to_obj() == eager.x.to_obj(), (name, closed.cols)

    @pytest.mark.parametrize("name", CORPUS)
    def test_read_off_against_psi(self, name):
        # on a quotient of Ker m the Maurer-Cartan form is psi(1 (x) .)
        univ, _, _, closed_list = classified(name)
        for closed in closed_list:
            calc = fodc_from_submodule(univ, closed)
            assert read_off_submodule(calc) == reference_read_off(univ, calc) == closed

    def test_read_off_explicit_bundle(self, kz2, kz3, sweedler):
        # an explicit (X, d) bundle carries no map from H (x) Ker eps; its
        # Maurer-Cartan form alone gives R, here 0 for the universal calculus
        for h in (kz2, kz3, sweedler):
            univ = universal_fodc(h)
            obj = {"hopf": f"bundled:{h.name}", "X": univ.x.to_obj(), "d": univ.d.to_obj()}
            calc = io.calculus_from_obj(obj)
            assert type(calc) is FirstOrderCalculus
            assert read_off_submodule(calc) == Matrix.zero(univ.ker_counit.dim, 0)

    def test_smash_calculus_rejects_unstable_subspace(self, kz3):
        mc, ik = kernel_counit_crossed(kz3)
        with pytest.raises(FactorizationError):
            smash_calculus(mc, ik, Matrix.identity(mc.dim).col(0))

    def test_roundtrip_extremes(self, kz3, sweedler):
        for h in (kz3, sweedler):
            univ = universal_fodc(h)
            mc = univ.ker_counit
            # R = 0 -> the universal calculus, which is its own R = 0 quotient
            assert read_off_submodule(univ).cols == 0
            calc0 = fodc_from_submodule(univ, Matrix.zero(mc.dim, 0))
            assert calc0.x.dim == univ.x.dim == h.dim * h.dim - h.dim
            assert calc0.d == univ.d
            assert read_off_submodule(calc0).cols == 0
            # R = Ker eps -> the zero calculus
            calc1 = fodc_from_submodule(univ, Matrix.identity(mc.dim))
            assert calc1.x.dim == 0
            assert read_off_submodule(calc1).cols == mc.dim

    def test_unstable_generators_rejected(self, kz3):
        gens = Matrix.zero(2, 1)
        from braidedforms.cyclotomic import ONE

        gens[0, 0] = ONE
        with pytest.raises(NotASubmodule):
            fodc_from_submodule(universal_fodc(kz3), gens)

    def test_quotient_calculi_are_valid(self, sweedler):
        # every closed submodule yields a valid first order calculus
        univ = universal_fodc(sweedler)
        mc = univ.ker_counit
        from braidedforms.calculus import crossed_submodule_closure

        seen = set()
        for j in range(mc.dim):
            gens = Matrix.identity(mc.dim).col(j)
            closed = crossed_submodule_closure(mc, gens)
            if closed.cols in seen:
                continue
            seen.add(closed.cols)
            calc = fodc_from_submodule(univ, closed)
            failed = check_first_order(calc).failed
            assert failed in ([], ["generation"])  # zero quotients generate trivially
            assert read_off_submodule(calc) == closed


class TestExterior:
    def test_kz2_universal_both_routes(self, kz2):
        univ = universal_fodc(kz2)
        ext = exterior_calculus(univ, 3)
        assert ext.dims == (2, 2, 0, 0)
        assert verify_calculus(ext).ok
        alg2 = exterior_calculus_via_comma(univ, 3)
        assert tuple(alg2.dims) == (2, 2, 0, 0)
        assert verify_calculus(alg2).ok
        # d_0 ... d_(N-1): nothing maps out of the top degree
        assert len(ext.differential) == len(alg2.differential) == 3

    @pytest.mark.parametrize("name, N", [("sweedler", 3), ("kz3", 3)])
    def test_biproduct_differential_against_generation_words(self, name, N, request):
        # sweedler at N = 3 has d_2: B_2 -> B_3 between nonzero blocks (dims
        # 4, 12, 24, 48), the first degree solved over m(1, n-1)
        h = request.getfixturevalue(name)
        univ = universal_fodc(h)
        alg, can = wedge_over_H(h, univ.x, N)
        diff = biproduct_differential(alg, can, univ.d)
        assert diff == reference_biproduct_differential(alg, can, univ.d)
        assert exterior_calculus(univ, N).differential == diff

    def test_restricts_to_input_in_low_degrees(self, kz2):
        univ = universal_fodc(kz2)
        ext = exterior_calculus(univ, 3)
        # degree 0 is H, degree 1 is X through the canonical iso
        assert ext.dims[0] == kz2.dim
        assert ext.dims[1] == univ.x.dim
        can = wedge_over_H(kz2, univ.x, 1)[1]
        assert can.compose(ext.differential[0]) == univ.d

    def test_generation_conditions(self, kz3):
        univ = universal_fodc(kz3)
        ext = exterior_calculus(univ, 2)
        gen = generation_conditions(ext)
        assert gen["generated"] and gen["all_agree"]

    def test_kz3_routes_agree(self, kz3):
        univ = universal_fodc(kz3)
        ext = exterior_calculus(univ, 3)
        alg2 = exterior_calculus_via_comma(univ, 3)
        assert tuple(ext.dims) == tuple(alg2.dims) == (3, 6, 3, 0)
        assert verify_calculus(ext).ok

    def test_comma_extension_is_bimodule(self, kz3):
        univ = universal_fodc(kz3)
        b, xhat = comma_extension(univ)
        assert check_hopf_bimodule(b).ok
        # xhat is bi-invariant: nu_l(xhat) = 1 (x) xhat, nu_r likewise
        assert b.nu_l.compose(xhat) == kron(kz3.unit, xhat)
        assert b.nu_r.compose(xhat) == kron(xhat, kz3.unit)

    def test_maximal_calculus_idempotent(self, kz3):
        univ = universal_fodc(kz3)
        alg = exterior_calculus_via_comma(univ, 2)
        again = maximal_calculus(alg)
        assert tuple(again.dims) == tuple(alg.dims)

    def test_braid_blocks_are_memoized(self, kz3):
        alg = exterior_calculus_via_comma(universal_fodc(kz3), 2)
        assert alg.braid(1, 1) is alg.braid(1, 1)

    @pytest.mark.parametrize("name", ["kz3", "sweedler"])
    def test_braid_blocks_are_the_weighted_flips(self, name, monkeypatch):
        # reference: the biproduct's swap as the plain flip callable it was,
        # and the maximal calculus's as that flip restricted along its
        # inclusions
        seen = []

        def recording(b, incl):
            seen.append((b, incl))
            return sub_bialgebra(b, incl)

        monkeypatch.setattr(calculus, "sub_bialgebra", recording)
        N = 3
        sub = exterior_calculus_via_comma(universal_fodc(corpus_hopf(name)), N)
        (alg, incl), = seen
        for k in range(N + 1):
            for l in range(N + 1 - k):
                flip = swap_matrix(alg.dims[k], alg.dims[l]).scale(alg.lam ** (k * l))
                assert alg.braid(k, l) == flip, (k, l)
                expected = restrict(flip, [incl[k], incl[l]], [incl[l], incl[k]])
                assert sub.braid(k, l) == expected, (k, l)

    def test_comma_algebra_is_freed(self, kz3, monkeypatch):
        # the maximal calculus holds no reference to the comma extension's
        # biproduct it was cut from
        refs = []

        def recording(b, incl):
            refs.append(weakref.ref(b))
            return sub_bialgebra(b, incl)

        monkeypatch.setattr(calculus, "sub_bialgebra", recording)
        sub = exterior_calculus_via_comma(universal_fodc(kz3), 2)
        gc.collect()
        assert sub.dims == (3, 6, 3) and refs[0]() is None

    def test_zero_calculus_exterior(self, kz2):
        univ = universal_fodc(kz2)
        calc = fodc_from_submodule(univ, Matrix.identity(univ.ker_counit.dim))
        ext = exterior_calculus(calc, 2)
        assert ext.dims == (2, 0, 0)
