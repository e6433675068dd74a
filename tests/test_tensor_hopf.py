import json
from pathlib import Path

import pytest

from braidedforms import braiding, io, matrix, tensor_hopf
from braidedforms.braiding import (
    BraidedSpace,
    braided_factorial,
    braided_line,
    diagonal_space,
    swap_space,
)
from braidedforms.cli import main
from braidedforms.cyclotomic import MINUS_ONE, ONE, Scalar
from braidedforms.errors import FactorizationError
from braidedforms.graded import check_graded_structure, ideal_quotient
from braidedforms.matrix import Matrix, hstack, kron, swap_matrix
from braidedforms.tensor_hopf import (
    antisymmetrizer,
    at_minus_one,
    build_tensor_hopf,
    build_wedge,
    check_antisym_hopf_morphism,
    closed_form_antipode,
    wedge_vs_quadratic,
)


def binomial(n, k):
    from math import comb

    return comb(n, k)


class TestTensorHopf:
    def test_both_variants_are_hopf(self):
        for x in (swap_space(2), braided_line(Scalar.zeta(3))):
            for variant in ("shuffle_coproduct", "shuffle_product"):
                t = build_tensor_hopf(x, variant, 3)
                assert check_graded_structure(t).ok, (variant, x.dim)

    def test_closed_form_antipode_matches_recursive(self):
        from braidedforms.graded import antipode_recursive

        for x in (swap_space(2), braided_line(Scalar.zeta(4))):
            t = build_tensor_hopf(x, "shuffle_coproduct", 3)
            rec = antipode_recursive(t, t.antipode[0])
            for n in range(4):
                assert rec[n] == closed_form_antipode(x, n), n

    def test_degree_zero_and_one_structure(self):
        x = swap_space(2)
        t = build_tensor_hopf(x, "shuffle_coproduct", 3)
        assert t.dims == (1, 2, 4, 8)
        # degree-1 comultiplication is primitive: cm(0,1) and cm(1,0) are id
        assert t.cm(0, 1) == Matrix.identity(2)
        assert t.cm(1, 0) == Matrix.identity(2)


class TestAntisymmetrizer:
    def test_is_hopf_morphism(self):
        for x in (swap_space(2), diagonal_space([[Scalar.zeta(5)]])):
            assert check_antisym_hopf_morphism(x, 3).ok

    def test_blocks_are_braided_factorials(self):
        x = swap_space(3)
        xm = BraidedSpace(x.dim, x.psi, MINUS_ONE)
        a = antisymmetrizer(x, 3)
        for n in range(4):
            assert a[n] == braided_factorial(n, xm)


class TestWedge:
    def test_swap_dims_are_binomials(self):
        for d in (2, 3):
            w = build_wedge(swap_space(d), 4)
            assert list(w.dims) == [binomial(d, n) for n in range(5)]

    def test_braided_line_zeta3_dims(self):
        w = build_wedge(braided_line(Scalar.zeta(3)), 4)
        assert list(w.dims) == [1, 1, 1, 0, 0]

    def test_wedge_is_hopf(self):
        w = build_wedge(swap_space(2), 3)
        assert check_graded_structure(w.algebra).ok

    def test_epi_mono_factorization(self):
        # coim o im = id on the wedge; im o coim = the antisymmetrizer up to
        # the factorization through its image
        x = swap_space(2)
        w = build_wedge(x, 3)
        a = antisymmetrizer(x, 3)
        for n in range(4):
            assert w.coim[n].compose(w.im[n]).rank() == w.dims[n]
            assert w.im[n].compose(w.coim[n]).column_echelon_basis()[0].cols == \
                a[n].rank()

    def test_wedge_multiplication_compatible_with_projection(self):
        # coim is an algebra morphism T -> wedge; this determines the wedge
        # product uniquely since coim is surjective
        x = swap_space(2)
        w = build_wedge(x, 3)
        t = build_tensor_hopf(
            type(x)(x.dim, x.psi, MINUS_ONE), "shuffle_coproduct", 3
        )
        for k in range(4):
            for l in range(4 - k):
                lhs = w.coim[k + l].compose(t.m(k, l))
                rhs = w.algebra.m(k, l).compose(kron(w.coim[k], w.coim[l]))
                assert lhs == rhs, (k, l)

    def test_quadratic_comparison_braided_line(self):
        cmp = wedge_vs_quadratic(braided_line(Scalar.zeta(3)), 4)
        assert cmp["wedge_dims"] == [1, 1, 1, 0, 0]
        assert cmp["quadratic_dims"] == [1, 1, 1, 1, 1]
        assert not cmp["equal"] and cmp["first_unequal_degree"] == 3

    def test_quadratic_comparison_swap(self):
        cmp = wedge_vs_quadratic(swap_space(2), 3)
        assert cmp["equal"] and cmp["first_unequal_degree"] is None


def hilbert_series(roots, N):
    """Degrees 0..N of the product over the roots (n, h) of
    (n)_{t^h} = 1 + t^h + ... + t^((n-1)h)."""
    coeffs = [1] + [0] * N
    for n, h in roots:
        coeffs = [sum(coeffs[i - k * h] for k in range(n) if k * h <= i) for i in range(N + 1)]
    return coeffs


def a1xa1(n1, n2):
    """Braiding matrix with q_11, q_22 of orders n1, n2 and q_12 q_21 = 1, and
    its positive roots (N_beta, ht beta)."""
    return [[Scalar.zeta(n1), ONE], [ONE, Scalar.zeta(n2)]], [(n1, 1), (n2, 1)]


def a2(n):
    """Braiding matrix of Cartan type A2, q_11 = q_22 = q of order n and
    q_12 q_21 = q^-1, and its positive roots a_1, a_2, a_1 + a_2."""
    q = Scalar.zeta(n)
    return [[q, q.inv()], [ONE, q]], [(n, 1), (n, 1), (n, 2)]


def nichols_space(q):
    """diagonal_space(-q): the wedge at lam = -1 is the Nichols algebra of -psi."""
    return diagonal_space([[-e for e in row] for row in q])


class TestNicholsOracles:
    """The wedge at lam = -1 is the image of the symmetrizer of -psi, so it is
    the Nichols algebra of -psi (Schauenburg 1996; Rosso 1998). For a diagonal
    braiding of finite Cartan type its Hilbert series is the product over the
    positive roots beta of (N_beta)_{t^{ht beta}} (Kharchenko 1999;
    Andruskiewitsch-Schneider 2000; Heckenberger 2006), 0 past the top degree.
    Each degree N is past the top degree or at the most that fits the tests'
    time."""

    @pytest.mark.parametrize("q, roots, N", [
        (*a1xa1(3, 3), 6), (*a1xa1(4, 4), 8), (*a1xa1(5, 5), 10), (*a1xa1(3, 4), 7),
        (*a2(2), 6), (*a2(3), 10), (*a2(4), 9), (*a2(5), 8),
    ], ids=["A1xA1-3-3", "A1xA1-4-4", "A1xA1-5-5", "A1xA1-3-4", "A2-2", "A2-3", "A2-4", "A2-5"])
    def test_wedge_dims_are_the_hilbert_series(self, q, roots, N):
        assert list(build_wedge(nichols_space(q), N).dims) == hilbert_series(roots, N)

    @pytest.mark.parametrize("q, N, first", [
        (a2(3)[0], 3, 3), (a2(4)[0], 3, 3), (a1xa1(3, 3)[0], 3, 3), (a1xa1(4, 4)[0], 4, 4),
    ], ids=["A2-3", "A2-4", "A1xA1-3-3", "A1xA1-4-4"])
    def test_quadratic_dims_part_at_the_first_higher_relation(self, q, N, first):
        # the quantum Serre relations of A2 are cubic; x_i^n = 0 has degree n
        assert wedge_vs_quadratic(nichols_space(q), N)["first_unequal_degree"] == first

    def test_wedge_dims_command(self, tmp_path):
        q, roots = a2(3)
        path, out = tmp_path / "a2.json", tmp_path / "report.json"
        path.write_text(json.dumps({"dim": 2, "psi": nichols_space(q).psi.to_obj()}))
        assert main(["wedge-dims", str(path), "--max-degree", "9", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["dims"] == hilbert_series(roots, 9)
        # 2^13 is past BraidedSpace.guard's bound
        assert main(["wedge-dims", str(path), "--max-degree", "13"]) == 3


GOLDEN = Path(__file__).resolve().parent / "golden"
QUADRATIC_N = 5  # the --max-degree of the --compare-quadratic goldens


@pytest.mark.parametrize("name", ["swap2", "swap3", "braided_line_zeta3", "diagonal_zeta5"])
class TestQuadraticProjections:
    """ideal_quotient(T(X), Ker [2]!, 2) returns the projections onto
    T(X)/(Ker [2]!), and the comparison reads its dims off them."""

    def test_projections_are_the_quotient(self, name):
        # in T(X) the product is concatenation, so the ideal's degree-n part
        # is spanned by the words u (x) r (x) v, r in Ker [2]!
        x = at_minus_one(io.braiding_from_obj(io.load_json(io.bundled_path(name))))
        t = build_tensor_hopf(x, "shuffle_coproduct", QUADRATIC_N)
        rel = braided_factorial(2, x).kernel_basis()
        projs = ideal_quotient(t, rel, 2)
        golden = json.loads((GOLDEN / f"wedge-dims-{name}-compare-quadratic.json").read_text())
        assert [p.rows for p in projs] == golden["quadratic_dims"]
        for n, p in enumerate(projs):
            assert p.cols == t.dims[n] and p.rank() == p.rows, n
            if n < 2:
                continue
            words = [kron(kron(Matrix.identity(x.dim**a), rel), Matrix.identity(x.dim**(n - 2 - a)))
                     for a in range(n - 1)]
            ideal = hstack(words)
            assert p.compose(ideal).is_zero, n
            assert p.rows == t.dims[n] - ideal.rank(), n

    def test_comparison_descends_no_structure(self, name, monkeypatch):
        # the dims are the projections' row counts: no block is solved for
        calls = []
        solve_epi = matrix.solve_epi
        monkeypatch.setattr(matrix, "solve_epi", lambda *a: calls.append(1) or solve_epi(*a))
        x = io.braiding_from_obj(io.load_json(io.bundled_path(name)))
        cmp = wedge_vs_quadratic(x, QUADRATIC_N)
        golden = json.loads((GOLDEN / f"wedge-dims-{name}-compare-quadratic.json").read_text())
        assert cmp["quadratic_dims"] == golden["quadratic_dims"]
        assert len(calls) == 0


class TestWedgeOnDemand:
    def test_dims_do_not_build_tensor_hopf(self, monkeypatch):
        def refuse(*args):
            raise RuntimeError("build_wedge built T°(X)")

        monkeypatch.setattr(tensor_hopf, "build_tensor_hopf", refuse)
        w = build_wedge(diagonal_space([[Scalar.zeta(5)]]), 4)
        assert w.dims == (1, 1, 1, 1, 1)
        with pytest.raises(RuntimeError):
            w.algebra

    def test_algebra_built_once(self):
        w = build_wedge(swap_space(2), 3)
        assert w.algebra is w.algebra
        assert w.algebra.dims == w.dims

    def test_dims_are_factorial_ranks(self):
        for x in (swap_space(3), braided_line(Scalar.zeta(3)), diagonal_space([[Scalar.zeta(5)]])):
            xm = BraidedSpace(x.dim, x.psi, MINUS_ONE)
            w = build_wedge(x, 4)
            assert w.dims == tuple(braided_factorial(n, xm).rank() for n in range(5))

    @staticmethod
    def multinomials_built(monkeypatch):
        """The compositions braiding.multinomial is called with from now on."""
        built = []
        inner = braiding.multinomial

        def counting(pi, x, side):
            built.append(pi)
            return inner(pi, x, side)

        monkeypatch.setattr(braiding, "multinomial", counting)
        return built

    def test_each_degree_builds_on_the_one_before(self, monkeypatch):
        # one shuffle factor [1, n-1] per degree n, none rebuilt, and none
        # past the first zero degree: [n]! vanishes with [n-1]!
        built = self.multinomials_built(monkeypatch)
        w = build_wedge(braided_line(Scalar.zeta(3)), 8)
        assert w.dims == (1, 1, 1, 0, 0, 0, 0, 0, 0)
        assert built == [(1, 1), (1, 2)]

    def test_factorials_stop_at_the_first_zero(self, monkeypatch):
        # Lambda^4 of a 3-dimensional space is 0, so [5]! and [6]! are the
        # zero blocks and build no shuffle factor
        built = self.multinomials_built(monkeypatch)
        facts = braiding.braided_factorials(6, swap_space(3))
        assert built == [(1, 1), (1, 2), (1, 3)]
        assert [f.rank() for f in facts] == [1, 3, 3, 1, 0, 0, 0]
        assert facts[5] == Matrix.zero(3**5, 3**5) and facts[6] == Matrix.zero(3**6, 3**6)

    def test_non_yang_baxter_raises_before_algebra(self):
        psi = swap_matrix(2, 2)
        psi[0, 1] = 1
        x = BraidedSpace(2, psi)
        with pytest.raises(FactorizationError, match="braid equation"):
            build_wedge(x, 2)
