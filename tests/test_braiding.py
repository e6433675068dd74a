from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidedforms import io
from braidedforms.braiding import (
    BraidedSpace,
    block_swap,
    braided_factorial,
    braided_line,
    check_yang_baxter,
    diagonal_space,
    multinomial,
    swap_space,
)
from braidedforms.cyclotomic import MINUS_ONE, ONE, Scalar
from braidedforms.errors import FactorizationError, ShapeError, TooLarge
from braidedforms.matrix import Matrix, compose_all, kron, swap_matrix
from braidedforms.permutations import inverted, length, reduced_word
from braidedforms.tensor_hopf import build_wedge

perms4 = st.permutations(list(range(1, 5))).map(tuple)


def compose(p, q):
    """The product p q, composed as functions: (p q)(i) = p(q(i))."""
    return tuple(p[i - 1] for i in q)


def corpus_spaces():
    z5 = Scalar.zeta(5)
    return [
        swap_space(2),
        swap_space(3),
        diagonal_space([[z5, z5 * z5], [ONE, z5]]),
        braided_line(Scalar.zeta(3)),
    ]


def q_int(q, n):
    return sum((q**k for k in range(1, n)), ONE)


def q_factorial(q, n):
    out = ONE
    for k in range(2, n + 1):
        out = out * q_int(q, k)
    return out


class TestYangBaxter:
    def test_corpus_satisfies_yb(self):
        for x in corpus_spaces():
            checks = check_yang_baxter(x.psi)
            assert checks.ok and checks.first == {"yang_baxter": None}

    def test_failing_braiding_has_witness(self):
        bad = Matrix(4, 4, [ONE, ONE, 0, 0, 0, ONE, 0, 0, 0, 0, ONE, ONE, 0, 0, ONE, 0])
        checks = check_yang_baxter(bad)
        assert checks.failed == ["yang_baxter"]
        assert isinstance(checks.first["yang_baxter"], int)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-1, 1), min_size=16, max_size=16))
    def test_witness_is_that_of_the_built_composites(self, entries):
        # reference: both sides of the braid equation built from kron factors
        psi = Matrix(4, 4, entries)
        eye = Matrix.identity(2)
        left, right = kron(psi, eye), kron(eye, psi)
        diff = left.compose(right).compose(left) - right.compose(left).compose(right)
        witness = next((col for (_, col), _ in diff.nonzeros()), None)
        assert check_yang_baxter(psi).first == {"yang_baxter": witness}

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            check_yang_baxter(Matrix.zero(3, 4))
        with pytest.raises(ShapeError):
            check_yang_baxter(Matrix.identity(3))  # 3 is not a perfect square

    def test_constructor_validates(self):
        # the constructor checks shapes and invertibility; the braid equation
        # is rejected where a result depends on it
        bad = Matrix(4, 4, [ONE, ONE, 0, 0, 0, ONE, 0, 0, 0, 0, ONE, ONE, 0, 0, ONE, 0])
        with pytest.raises(ShapeError):
            BraidedSpace(2, Matrix.identity(3))
        with pytest.raises(ShapeError):
            BraidedSpace(2, Matrix.zero(4, 4))
        x = BraidedSpace(2, bad)
        assert not check_yang_baxter(x.psi).ok
        with pytest.raises(FactorizationError, match="braid equation"):
            build_wedge(x, 2)


class TestRepresentation:
    @settings(max_examples=25, deadline=None)
    @given(perms4, st.sampled_from(corpus_spaces()))
    def test_well_defined_on_reduced_words(self, p, x):
        words = [reduced_word(p), reduced_word(inverted(p))[::-1]]
        mats = [
            compose_all(*[x.elementary(4, a) for a in w], Matrix.identity(x.dim**4))
            for w in words
        ]
        assert mats[0] == mats[1] == x.rep(p)

    @settings(max_examples=25, deadline=None)
    @given(perms4, perms4)
    def test_multiplicative_when_length_additive(self, p, q):
        x = swap_space(2)
        pq = compose(p, q)
        if length(pq) == length(p) + length(q):
            assert x.rep(pq) == x.rep(p).compose(x.rep(q))

    def test_identity_and_transposition(self):
        x = swap_space(2)
        assert x.rep((1, 2, 3)) == Matrix.identity(8)
        assert x.rep((2, 1)) == swap_matrix(2, 2)

    @pytest.mark.parametrize("p", [(1, 1), (2, 3), (0, 1), (1, 2, 2)])
    @pytest.mark.parametrize("x", [swap_space(2), braided_line(Scalar.zeta(5), ONE)],
                             ids=["swap2", "line"])
    def test_rep_refuses_a_non_permutation(self, x, p):
        with pytest.raises(ShapeError, match="not a permutation"):
            x.rep(p)

    def test_braided_line_rep_is_q_power(self):
        x = braided_line(Scalar.zeta(5), ONE)  # psi = [zeta_5]
        q = Scalar.zeta(5)
        for p in permutations(range(1, 5)):
            assert x.rep(p) == Matrix(1, 1, [q ** length(p)])

    def test_braided_line_rep_matches_reduced_word_product(self):
        # rep on a 1-dimensional space is psi^length; the product of the
        # elementary braidings over the reduced word is the definition
        x = io.braiding_from_obj(io.load_json(io.bundled_path("braided_line_zeta3")))
        assert x.dim == 1
        for p in permutations(range(1, 7)):
            word = compose_all(Matrix.identity(1),
                               *[x.elementary(6, a) for a in reduced_word(p)])
            got = x.rep(p)
            assert got == word and got.to_obj() == word.to_obj()


class TestMultinomials:
    def test_two_over_one_one(self):
        for x in corpus_spaces():
            got = multinomial((1, 1), x, "upper")
            assert got == Matrix.identity(x.dim**2) + x.psi.scale(x.lam)

    def test_j_over_j_is_identity(self):
        for x in corpus_spaces():
            for j in (0, 1, 2, 3):
                assert multinomial((j,), x, "upper") == Matrix.identity(x.dim**j)
                assert multinomial((j,), x, "lower") == Matrix.identity(x.dim**j)

    def test_braided_line_factorial_is_gaussian(self):
        # effective parameter mu: [n]! = [n]_mu! as 1x1 matrices
        for mu in (Scalar.zeta(3), Scalar.zeta(5), Scalar.rational(2)):
            x = braided_line(mu)
            for n in range(6):
                assert braided_factorial(n, x) == Matrix(1, 1, [q_factorial(mu, n)])

    def test_braided_line_zeta3_kernel(self):
        x = braided_line(Scalar.zeta(3))
        assert braided_factorial(2, x).rank() == 1  # [2]! = 1 + zeta_3 != 0
        assert braided_factorial(3, x).rank() == 0  # [3]! = [3]_q! = 0

    def test_swap_antisymmetrizer_ranks(self):
        x = swap_space(2, MINUS_ONE)
        assert braided_factorial(2, x).rank() == 1  # dim Lambda^2(k^2)
        assert braided_factorial(3, x).rank() == 0  # Lambda^3 vanishes

    def test_classical_multinomial_at_lambda_one(self):
        x = swap_space(2, ONE)
        pi = (2, 1)
        got = multinomial(pi, x, "upper")
        direct = Matrix.zero(8, 8)
        from braidedforms.permutations import shuffle_set

        for sigma in shuffle_set(pi, "upper"):
            direct = direct + x.rep(sigma)
        assert got == direct

    def test_line_multinomial_enumerates_no_shuffles(self, monkeypatch):
        # on a 1-dimensional space the sum over shuffles is a polynomial in
        # lam * psi, so no shuffle set is built
        from braidedforms import braiding
        from braidedforms.permutations import shuffle_set

        x = braided_line(Scalar.zeta(5) + 2, Scalar.zeta(3))
        expected = {}
        for parts in ([2, 3], [1, 4], [3, 0, 2], [0], [2, 2, 2]):
            for side in ("lower", "upper"):
                total = Scalar.rational(0)
                for sigma in shuffle_set(tuple(parts), side):
                    total = total + x.lam ** length(sigma) * x.rep(sigma)[0, 0]
                expected[tuple(parts), side] = Matrix(1, 1, [total])
        calls = []
        monkeypatch.setattr(braiding, "shuffle_set", lambda *args: calls.append(args))
        for (parts, side), want in expected.items():
            assert multinomial(tuple(parts), x, side) == want, (parts, side)
        assert calls == []

    def test_resource_bound(self):
        x = swap_space(4)
        with pytest.raises(TooLarge):
            x.guard(7)  # 4^7 > 4096
        x.guard(6)


@pytest.mark.parametrize("x", corpus_spaces(), ids=["swap2", "swap3", "diagonal", "line"])
def test_block_swap_past_an_empty_block_is_the_identity(x):
    # psi^0 = 1 on a line, and the empty word on a space of dim >= 2
    for n in range(4):
        eye = Matrix.identity(x.dim**n)
        assert x.rep(block_swap(n, 0)) == eye and x.rep(block_swap(0, n)) == eye
