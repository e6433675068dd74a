import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidedforms import io
from braidedforms.cyclotomic import MINUS_ONE, ONE, ZERO, Scalar
from braidedforms.errors import FactorizationError, ShapeError
from braidedforms.matrix import (
    Matrix,
    hstack,
    kron,
    kron_all,
    mid_swap_indices,
    particular_solution,
    solve_epi,
    solve_factor,
    solve_mono,
    vstack,
)

entries = st.integers(-4, 4).map(Scalar.rational)


def matrices(rows, cols):
    return st.lists(entries, min_size=rows * cols, max_size=rows * cols).map(
        lambda e: Matrix(rows, cols, e)
    )


def mat(rows):
    return Matrix.from_rows([[Scalar.rational(v) for v in r] for r in rows])


class TestBasics:
    def test_compose_identity(self):
        m = mat([[1, 2], [3, 4], [5, 6]])
        assert Matrix.identity(3).compose(m) == m == m.compose(Matrix.identity(2))

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            mat([[1, 2]]).compose(mat([[1, 2]]))
        with pytest.raises(ShapeError):
            mat([[1]]) + mat([[1, 2]])

    def test_inverse(self):
        m = mat([[1, 2], [3, 5]])
        assert m.compose(m.inverse()) == Matrix.identity(2)
        assert m.inverse().compose(m) == Matrix.identity(2)

    def test_singular_inverse_raises(self):
        with pytest.raises(FactorizationError):
            mat([[1, 2], [2, 4]]).inverse()

    def test_rref_pivots_and_rank(self):
        m = mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        assert m.rank() == 2
        assert m.kernel_basis().cols == 1

    def test_kernel_image_dimensions(self):
        m = mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        ker = m.kernel_basis()
        image, coim = m.rank_factorization()
        assert ker.cols + image.cols == m.cols  # rank-nullity
        assert m.compose(ker).is_zero
        # image columns span m's column space, and m factors through them
        assert hstack([image, m]).rank() == image.cols
        assert image.compose(coim) == m

    def test_setitem_and_nonzeros(self):
        m = Matrix.zero(2, 3)
        m[1, 2] = 5
        m[0, 1] = Scalar.zeta(3)
        m[1, 0] = ZERO
        assert m[1, 2] == Scalar.rational(5)
        assert list(m.nonzeros()) == [((0, 1), Scalar.zeta(3)), ((1, 2), Scalar.rational(5))]
        assert list(Matrix.zero(3, 0).nonzeros()) == []

    @pytest.mark.parametrize("key", [(0, 2), (2, 0), (-1, 0), (0, -1)])
    def test_index_out_of_range(self, key):
        # a flat row-major offset would send (0, 2) and (-1, 0) to entry (1, 0)
        m = mat([[1, 2], [3, 4]])
        with pytest.raises(IndexError):
            m[key]
        with pytest.raises(IndexError):
            m[key] = 1
        assert m == mat([[1, 2], [3, 4]])

    def test_kron_mixed_product(self):
        a, b = mat([[1, 2], [0, 1]]), mat([[2, 1], [1, 1]])
        c, d = mat([[1, 1], [1, 2]]), mat([[3, 0], [1, 1]])
        assert kron(a, b).compose(kron(c, d)) == kron(a.compose(c), b.compose(d))

    def test_kron_all_associative(self):
        a, b, c = mat([[1, 2]]), mat([[3], [4]]), mat([[5, 6], [7, 8]])
        assert kron_all(a, b, c) == kron(kron(a, b), c) == kron(a, kron(b, c))

    def test_hstack_vstack_direct_sum(self):
        a, b = mat([[1, 2], [3, 4]]), mat([[5], [6]])
        h = hstack([a, b])
        assert h.rows == 2 and h.cols == 3 and h[1, 2] == Scalar.rational(6)
        v = vstack([a, mat([[7, 8]])])
        assert v.rows == 3 and v[2, 1] == Scalar.rational(8)

    def test_mid_swap_is_tensor_swap(self):
        # id_2 (x) swap_{2,3} (x) id_1 as a row permutation
        from braidedforms.braiding import swap_matrix

        perm = mid_swap_indices(2, 2, 3, 1)
        target = kron(kron(Matrix.identity(2), swap_matrix(2, 3)), Matrix.identity(1))
        assert Matrix.identity(12).permute_rows(perm) == target

    def test_permute_rows_cols_inverse(self):
        m = mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        p = [2, 0, 1]
        q = [p.index(i) for i in range(3)]
        assert m.permute_rows(p).permute_rows(q) == m
        assert m.permute_cols(p).permute_cols(q) == m

    def test_serialization_roundtrip(self):
        m = mat([[1, 2], [3, 4]]).scale(Scalar.zeta(5))
        assert io.matrix_from_obj(m.to_obj()) == m


class TestSolvers:
    def test_solve_mono(self):
        a = mat([[1, 0], [1, 1], [0, 2]])  # injective 3x2
        x = mat([[2, 1], [3, 5]])
        assert solve_mono(a, a.compose(x)) == x

    def test_solve_mono_fails_outside_image(self):
        a = mat([[1], [0]])
        with pytest.raises(FactorizationError):
            solve_mono(a, mat([[0], [1]]))

    def test_solve_epi(self):
        e = mat([[1, 1, 0], [0, 1, 1]])  # surjective 2x3
        c = mat([[1, 2], [0, 1]])
        assert solve_epi(c.compose(e), e) == c

    def test_solve_epi_fails_off_kernel(self):
        e = mat([[1, 0]])  # kernel = span(e_2)
        b = mat([[0, 1]])  # does not kill the kernel
        with pytest.raises(FactorizationError):
            solve_epi(b, e)

    def test_solve_factor(self):
        mono = mat([[1, 0], [0, 1], [1, 1]])
        epi = mat([[1, 0, 1], [0, 1, 0]])
        mid = mat([[1, 2], [3, 4]])
        h = mono.compose(mid).compose(epi)
        assert solve_factor(mono, epi, h) == mid

    def test_particular_solution(self):
        a = mat([[1, 1, 0], [0, 0, 1]])
        b = mat([[3], [4]])
        x = particular_solution(a, b)
        assert a.compose(x) == b


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(matrices(3, 4))
    def test_rank_nullity_and_kernel(self, m):
        ker = m.kernel_basis()
        assert m.rank() + ker.cols == 4
        assert m.compose(ker).is_zero

    @settings(max_examples=30, deadline=None)
    @given(matrices(3, 3), matrices(3, 3))
    def test_transpose_antihomomorphism(self, a, b):
        assert a.compose(b).transpose() == b.transpose().compose(a.transpose())

    @settings(max_examples=30, deadline=None)
    @given(matrices(2, 3), matrices(3, 2))
    def test_echelon_basis_spans(self, a, b):
        m = a.compose(b)
        basis, _ = m.column_echelon_basis()
        assert basis.cols == m.rank()
        assert hstack([basis, m]).rank() == basis.cols

    @settings(max_examples=30, deadline=None)
    @given(matrices(2, 3), matrices(3, 4))
    def test_rank_factorization(self, a, b):
        m = a.compose(b)
        image, coim = m.rank_factorization()
        assert image.cols == coim.rows == m.rank()
        assert image.compose(coim) == m

    @settings(max_examples=20, deadline=None)
    @given(matrices(2, 2), matrices(2, 2))
    def test_kron_transpose(self, a, b):
        assert kron(a, b).transpose() == kron(a.transpose(), b.transpose())
