"""End-to-end acceptance suite.

Each test class numbers one acceptance criterion; all arithmetic is exact
(cyclotomic over the rationals), no tolerances anywhere.
"""

from math import comb

import pytest

from braidedforms import io
from braidedforms.bimodules import (
    TensorCache,
    adjoint_crossed,
    coadjoint_crossed,
    crossed_iso_smash,
    hexagon_identities,
    hopf_bimodule_braiding,
    hopf_bimodule_braiding_inverse,
    is_bimodule_morphism,
    lam_sections,
    regular_bimodule,
    rho_lambda_formula,
    smash,
    square_bimodule,
    theta,
    trivial_crossed,
)
from braidedforms.bosonization import wedge_over_H
from braidedforms.braiding import (
    braided_factorial,
    braided_line,
    diagonal_space,
    multinomial,
    swap_space,
)
from braidedforms.calculus import (
    check_first_order,
    crossed_submodule_closure,
    derivation_morphism,
    exterior_calculus,
    exterior_calculus_via_comma,
    fodc_from_submodule,
    generation_conditions,
    kernel_counit_crossed,
    read_off_submodule,
    universal_fodc,
)
from braidedforms.cli import main as cli_main
from braidedforms.cyclotomic import MINUS_ONE, ONE, Scalar
from braidedforms.graded import antipode_recursive, check_graded_structure
from braidedforms.matrix import Matrix, compose_all, kron, kron_all, solve_epi, solve_mono
from braidedforms.permutations import all_permutations
from braidedforms.tensor_hopf import (
    build_tensor_hopf,
    build_wedge,
    check_antisym_hopf_morphism,
    closed_form_antipode,
    wedge_vs_quadratic,
)


def braiding_corpus():
    z5 = Scalar.zeta(5)
    return [
        swap_space(2),
        swap_space(3),
        diagonal_space([[z5, z5 * z5], [ONE, z5]]),
        braided_line(Scalar.zeta(3)),
    ]


def compositions(n):
    """All compositions of n into positive parts."""
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(1, n + 1) for rest in compositions(n - first)]


class TestCriterion1WellDefinedness:
    def test_two_reduced_words_agree_for_all_s4(self):
        for x in braiding_corpus():
            eye = Matrix.identity(x.dim**4)
            for p in all_permutations(4):
                words = [p.reduced_expression(), p.reduced_expression_left()]
                m1, m2 = [
                    compose_all(*[x.elementary(4, a) for a in w], eye) for w in words
                ]
                assert m1 == m2 == x.rep(p), (x.dim, p)


class TestCriterion2MultinomialIdentities:
    _memo = {}

    @classmethod
    def mn(cls, pi, x, side):
        """Memoized multinomial; the sweep reuses the same blocks many times."""
        key = (x, pi, side)
        if key not in cls._memo:
            cls._memo[key] = multinomial(tuple(pi), x, side)
        return cls._memo[key]

    def spaces(self):
        z5 = Scalar.zeta(5)
        return [
            braided_line(Scalar.zeta(3)),
            swap_space(2),
            swap_space(2, Scalar.zeta(3)),  # generic lambda
            diagonal_space([[z5, z5 * z5], [ONE, z5]]),
            swap_space(3),
        ]

    def check_eq1_eq2(self, x, max_total):
        d = x.dim
        for j in range(max_total + 1):
            for pi in compositions(j):
                base_lower = self.mn(pi, x, "lower")
                base_upper = self.mn(pi, x, "upper")
                for subs in self._sub_tuples(pi):
                    flat = tuple(p for sub in subs for p in sub)
                    lhs1 = self.mn(flat, x, "lower")
                    rhs1 = base_lower.compose(
                        kron_all(
                            Matrix.identity(1),
                            *[self.mn(sub, x, "lower") for sub in subs],
                        )
                    )
                    assert lhs1 == rhs1, ("eq1", pi, subs)
                    lhs2 = self.mn(flat, x, "upper")
                    rhs2 = kron_all(
                        Matrix.identity(1),
                        *[self.mn(sub, x, "upper") for sub in subs],
                    ).compose(base_upper)
                    assert lhs2 == rhs2, ("eq2", pi, subs)

    @staticmethod
    def _sub_tuples(pi):
        if not pi:
            return [()]
        out = [()]
        for part in pi:
            out = [prev + (sub,) for prev in out for sub in compositions(part)]
        return out

    def check_eq3(self, x, max_total):
        for j in range(2, max_total + 1):
            fact = self.mn((1,) * j, x, "upper")
            left = [
                kron(
                    Matrix.identity(x.dim ** (j - k)),
                    self.mn((1, k - 1), x, "upper"),
                )
                for k in range(2, j + 1)
            ]
            assert fact == compose_all(*left), ("eq3a", j)
            right = [
                kron(
                    self.mn((k - 1, 1), x, "upper"),
                    Matrix.identity(x.dim ** (j - k)),
                )
                for k in range(2, j + 1)
            ]
            assert fact == compose_all(*right), ("eq3b", j)

    def check_eq4(self, x, max_total):
        for j in range(max_total + 1):
            for k in range(max_total + 1 - j):
                lhs = self.mn((1,) * (j + k), x, "upper")
                # the S_n-sum reference against the library's product form
                assert lhs == braided_factorial(j + k, x), ("factorial", j + k)
                rhs = kron(self.mn((1,) * j, x, "upper"), self.mn((1,) * k, x, "upper")).compose(
                    self.mn((j, k), x, "upper")
                )
                assert lhs == rhs, ("eq4", j, k)

    def test_identities_total_5_full_corpus(self):
        for x in self.spaces():
            self.check_eq1_eq2(x, 5)
            self.check_eq3(x, 5)
            self.check_eq4(x, 5)

    def test_zero_parts_allowed(self):
        x = swap_space(2)
        for pi in [(0, 2), (2, 0), (1, 0, 1), (0,)]:
            flatj = sum(pi)
            lhs = multinomial(tuple(pi), x, "upper")
            assert lhs.rows == x.dim**flatj
        # eq4 with a zero block reduces to the factorial itself
        assert braided_factorial(3, x) == kron(
            braided_factorial(3, x), braided_factorial(0, x)
        ).compose(multinomial((3, 0), x, "upper"))


class TestCriterion3TensorHopf:
    def test_hopf_axioms_to_degree_4(self):
        for x in braiding_corpus():
            for variant in ("shuffle_coproduct", "shuffle_product"):
                t = build_tensor_hopf(x, variant, 4)
                assert check_graded_structure(t).ok

    def test_recursive_antipode_matches_closed_form(self):
        for x in braiding_corpus():
            t = build_tensor_hopf(x, "shuffle_coproduct", 4)
            rec = antipode_recursive(t, t.antipode[0])
            for n in range(5):
                assert rec[n] == closed_form_antipode(x, n), (x.dim, n)


class TestCriterion4Antisymmetrizer:
    def test_hopf_morphism_to_degree_4(self):
        for x in braiding_corpus():
            assert check_antisym_hopf_morphism(x, 4).ok, x.dim

    def test_wedge_structure_unique_epi_mono_compatible(self):
        x = swap_space(2)
        N = 3
        w = build_wedge(x, N)
        xm = type(x)(x.dim, x.psi, MINUS_ONE)
        t = build_tensor_hopf(xm, "shuffle_coproduct", N)
        t0 = build_tensor_hopf(xm, "shuffle_product", N)
        for k in range(N + 1):
            for l in range(N + 1 - k):
                pp = kron(w.coim[k], w.coim[l])
                # epi-compatibility determines the product uniquely ...
                assert pp.rank() == w.dims[k] * w.dims[l]  # full row rank
                assert w.algebra.m(k, l).compose(pp) == w.coim[k + l].compose(t.m(k, l))
                # ... and the same product is mono-compatible with T-degree
                assert w.im[k + l].compose(w.algebra.m(k, l)) == t0.m(k, l).compose(
                    kron(w.im[k], w.im[l])
                )
                # dually for the coproduct
                ii = kron(w.im[k], w.im[l])
                assert ii.rank() == w.dims[k] * w.dims[l]  # full column rank
                assert ii.compose(w.algebra.cm(k, l)) == t0.cm(k, l).compose(w.im[k + l])
                assert kron(w.coim[k], w.coim[l]).compose(t.cm(k, l)) == \
                    w.algebra.cm(k, l).compose(w.coim[k + l])


class TestCriterion5BraidedLine:
    def test_wedge_vs_quadratic_at_zeta3(self):
        cmp = wedge_vs_quadratic(braided_line(Scalar.zeta(3)), 4)
        assert cmp["wedge_dims"] == [1, 1, 1, 0, 0]
        assert cmp["quadratic_dims"] == [1, 1, 1, 1, 1]
        assert cmp["equal"] is False and cmp["first_unequal_degree"] == 3


class TestCriterion6SwapWedge:
    def test_binomial_dimensions(self):
        for d in (1, 2, 3):
            w = build_wedge(swap_space(d), 4)
            assert list(w.dims) == [comb(d, n) for n in range(5)]


class TestCriterion7EquivalenceRoundtrip:
    def crossed_corpus(self, h):
        mods = [trivial_crossed(h), adjoint_crossed(h), coadjoint_crossed(h)]
        mods.append(kernel_counit_crossed(h)[0])
        return mods

    def test_coinvariants_of_smash_recover_input(self, kz2, kz3, sweedler):
        for h in (kz2, kz3, sweedler):
            ea = Matrix.identity(h.dim)
            for mc in self.crossed_corpus(h):
                got, alpha, beta = crossed_iso_smash(mc)
                assert got.dim == mc.dim
                assert alpha.compose(beta) == Matrix.identity(mc.dim)
                assert beta.compose(alpha) == Matrix.identity(mc.dim)
                assert alpha.compose(mc.mu_r) == got.mu_r.compose(kron(alpha, ea))
                assert got.nu_r.compose(alpha) == kron(alpha, ea).compose(mc.nu_r)


@pytest.fixture(scope="module")
def corpus(sweedler):
    return {
        "regular": regular_bimodule(sweedler),
        "square": square_bimodule(sweedler),
        "smash_trivial": smash(sweedler, trivial_crossed(sweedler)),
    }


@pytest.fixture(scope="module")
def cache():
    return TensorCache()


class TestCriterion8MonoidalStructure:
    def test_rho_lambda_formula_all_pairs(self, corpus, cache):
        for x in corpus.values():
            for y in corpus.values():
                t = cache.get(x, y)
                assert t.rho.compose(t.lam) == rho_lambda_formula(x, y), (x.name, y.name)

    def test_braiding_exists_unique_section_independent(self, corpus, cache):
        for x in corpus.values():
            for y in corpus.values():
                txy, tyx = cache.get(x, y), cache.get(y, x)
                b = hopf_bimodule_braiding(x, y, txy, tyx)
                # defining equation
                assert tyx.rho.compose(b).compose(txy.lam) == theta(x, y)
                # uniqueness: rho is mono and lam epi, so any solution agrees;
                # recompute through two genuinely different sections
                s1, s2 = lam_sections(txy)
                b1 = solve_mono(tyx.rho, theta(x, y).compose(s1))
                b2 = solve_mono(tyx.rho, theta(x, y).compose(s2))
                assert b == b1 == b2
                if txy.lam.kernel_basis().cols:
                    assert s1 != s2
                # morphism of Hopf bimodules
                assert is_bimodule_morphism(txy.z, tyx.z, b)

    def test_inverse_formula_all_pairs(self, corpus, cache):
        for x in corpus.values():
            for y in corpus.values():
                txy, tyx = cache.get(x, y), cache.get(y, x)
                b = hopf_bimodule_braiding(x, y, txy, tyx)
                binv = hopf_bimodule_braiding_inverse(x, y, txy, tyx)
                assert b.compose(binv) == Matrix.identity(tyx.z.dim)
                assert binv.compose(b) == Matrix.identity(txy.z.dim)

    def test_hexagons(self, corpus, cache):
        reg = corpus["regular"]
        sm = corpus["smash_trivial"]
        sq = corpus["square"]
        for triple in [(reg, reg, reg), (reg, sm, reg), (sm, reg, sm), (reg, sq, sm)]:
            assert hexagon_identities(*triple, cache).ok, [t.name for t in triple]


class TestCriterion9UniversalCalculus:
    def test_kernel_dimension_entire_corpus(self, kz2, kz3, kz4, ks3, sweedler, taft3):
        extra = [io.hopf_from_obj(io.load_json(io.bundled_path(n))) for n in ("kz5", "kz6")]
        for h in [kz2, kz3, kz4, ks3, sweedler, taft3] + extra:
            ker = h.mult.kernel_basis()
            assert ker.cols == h.dim * h.dim - h.dim, h.name

    def test_universal_is_bicovariant_calculus(self, kz2, kz3, sweedler):
        for h in (kz2, kz3, sweedler):
            univ = universal_fodc(h)
            assert check_first_order(univ).ok, h.name

    def test_initial_morphism_exists_and_unique(self, kz3, sweedler):
        for h in (kz3, sweedler):
            univ = universal_fodc(h)
            mc = univ.ker_counit
            targets = [fodc_from_submodule(univ, Matrix.zero(mc.dim, 0)),
                       fodc_from_submodule(univ, Matrix.identity(mc.dim))]
            if h.dim == 4:  # sweedler: also a proper nontrivial quotient
                closed = crossed_submodule_closure(mc, Matrix.identity(mc.dim).col(0))
                if closed.cols < mc.dim:
                    targets.append(fodc_from_submodule(univ, closed))
            for other in targets:
                phi = derivation_morphism(univ, other)
                assert phi.compose(univ.d) == other.d
                assert is_bimodule_morphism(univ.x, other.x, phi)
                # uniqueness: H . d(H) spans the universal calculus, so a
                # left-module morphism is determined by phi o d
                span = univ.x.mu_l.compose(kron(Matrix.identity(h.dim), univ.d))
                assert span.rank() == univ.x.dim


class TestCriterion10ClassificationRoundtrip:
    def closed_submodules(self, mc):
        seen = {}
        candidates = [Matrix.zero(mc.dim, 0), Matrix.identity(mc.dim)]
        candidates += [Matrix.identity(mc.dim).col(j) for j in range(mc.dim)]
        for gens in candidates:
            closed = crossed_submodule_closure(mc, gens)
            seen[closed] = closed  # the echelon basis, hashed by value
        return list(seen.values())

    def test_roundtrip_kz3_and_sweedler(self, kz3, sweedler):
        for h in (kz3, sweedler):
            univ = universal_fodc(h)
            for closed in self.closed_submodules(univ.ker_counit):
                calc = fodc_from_submodule(univ, closed)
                recovered = read_off_submodule(calc)
                assert recovered == closed.column_echelon_basis()[0]

    def test_extremes(self, kz3, sweedler):
        for h in (kz3, sweedler):
            univ = universal_fodc(h)
            mc = univ.ker_counit
            universal = fodc_from_submodule(univ, Matrix.zero(mc.dim, 0))
            assert universal.x.dim == h.dim * h.dim - h.dim
            zero = fodc_from_submodule(univ, Matrix.identity(mc.dim))
            assert zero.x.dim == 0 and zero.d.is_zero


MAIN_THEOREM_N = 3


@pytest.fixture(scope="module")
def routes(kz2):
    univ = universal_fodc(kz2)
    ext = exterior_calculus(univ, MAIN_THEOREM_N)
    alg_max = exterior_calculus_via_comma(univ, MAIN_THEOREM_N)
    return univ, ext, alg_max


class TestCriterion11MainTheorem:
    N = MAIN_THEOREM_N

    def test_full_diff_hopf_suite_both_routes(self, routes):
        univ, ext, alg_max = routes
        for alg in (ext, alg_max):
            report = check_graded_structure(alg)
            assert report.ok, report

    def test_restricts_to_input_in_degrees_0_1(self, routes, kz2):
        univ, ext, _ = routes
        alg = ext
        assert alg.dims[0] == kz2.dim
        assert alg.dims[1] == univ.x.dim
        assert alg.m(0, 0) == kz2.mult and alg.cm(0, 0) == kz2.comult
        # d restricted to degree 0 is the first-order d through the iso
        assert wedge_over_H(kz2, univ.x, 1)[1].compose(alg.differential[0]) == univ.d

    def test_generation_per_degree(self, routes):
        _, ext, alg_max = routes
        for alg in (ext, alg_max):
            gen = generation_conditions(alg)
            assert gen["generated"] and gen["all_agree"], gen

    def _iterated_generators(self, alg, d, dim_h):
        """gens[n]: H^(x)(n+1) -> A_n, a_0 (x) ... (x) a_n -> a_0 d(a_1)...d(a_n)."""
        gens = [Matrix.identity(dim_h)]
        for n in range(1, alg.N + 1):
            prev = gens[n - 1]
            step = alg.m(n - 1, 1).compose(kron(prev, d[0]))
            gens.append(step)
        return gens

    def test_routes_degreewise_isomorphic(self, routes, kz2):
        univ, ext, alg_max = routes
        a, b = ext, alg_max
        assert tuple(a.dims) == tuple(b.dims)
        ga = self._iterated_generators(a, a.differential, kz2.dim)
        gb = self._iterated_generators(b, b.differential, kz2.dim)
        fs = [solve_epi(gb[n], ga[n]) for n in range(self.N + 1)]
        for n in range(self.N + 1):
            assert fs[n].rank() == a.dims[n]  # invertible in each degree
        # the degreewise iso intertwines every structure map
        for k in range(self.N + 1):
            for l in range(self.N + 1 - k):
                assert fs[k + l].compose(a.m(k, l)) == b.m(k, l).compose(kron(fs[k], fs[l]))
                assert kron(fs[k], fs[l]).compose(a.cm(k, l)) == b.cm(k, l).compose(fs[k + l])
        for n in range(self.N):
            assert fs[n + 1].compose(a.differential[n]) == b.differential[n].compose(fs[n])
        for n in range(self.N + 1):
            assert fs[n].compose(a.antipode[n]) == b.antipode[n].compose(fs[n])


class TestCriterion12Determinism:
    def test_cli_reports_bit_identical(self, tmp_path):
        jobs = [
            ["check", "--kind", "hopf", str(io.bundled_path("sweedler"))],
            ["check", "--kind", "bimodule", str(io.bundled_path("kz3_square_bimodule"))],
            ["wedge-dims", str(io.bundled_path("braided_line_zeta3")),
             "--max-degree", "4", "--compare-quadratic"],
            ["build-calculus", str(io.bundled_path("kz2_universal_calculus")),
             "--max-degree", "3", "--route", "both"],
            ["classify", str(io.bundled_path("kz3"))],
        ]
        for idx, job in enumerate(jobs):
            blobs = []
            for attempt in range(2):
                out = tmp_path / f"{idx}_{attempt}.json"
                assert cli_main(job + ["--out", str(out)]) == 0, job
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1], job
