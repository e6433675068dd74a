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

    def test_each_degree_builds_on_the_one_before(self, monkeypatch):
        # one shuffle factor [1, n-1] per degree n = 2..N, none rebuilt
        built = []
        inner = braiding.multinomial

        def counting(pi, x, side):
            built.append(tuple(pi.parts))
            return inner(pi, x, side)

        monkeypatch.setattr(braiding, "multinomial", counting)
        w = build_wedge(braided_line(Scalar.zeta(3)), 8)
        assert w.dims == (1, 1, 1, 0, 0, 0, 0, 0, 0)
        assert built == [(1, n - 1) for n in range(2, 9)]

    def test_non_yang_baxter_raises_before_algebra(self):
        psi = swap_matrix(2, 2)
        psi[0, 1] = 1
        x = BraidedSpace(2, psi)
        with pytest.raises(FactorizationError, match="braid equation"):
            build_wedge(x, 2)
