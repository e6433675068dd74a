import pytest

from braidedforms.braiding import braided_line, swap_space
from braidedforms.cyclotomic import MINUS_ONE, ONE, Scalar
from braidedforms.errors import IncompatibleBraiding, NotABiIdeal, ShapeError
from braidedforms.graded import (
    GradedBialgebra,
    GradedMap,
    GradedSpace,
    antipode_recursive,
    check_graded_structure,
    graded_braiding,
    graded_tensor,
    graded_tensor_map,
    ideal_quotient,
    signed_swap_blocks,
    tensor_layout,
)
from braidedforms.matrix import Matrix, kron
from braidedforms.tensor_hopf import build_tensor_hopf


class TestSpacesAndMaps:
    def test_graded_tensor_dims(self):
        x = GradedSpace([1, 2, 1])
        y = GradedSpace([1, 3, 2])
        assert graded_tensor(x, y).dims == (1, 5, 9)

    def test_tensor_layout_partitions_degree(self):
        x = GradedSpace([1, 2, 1])
        y = GradedSpace([1, 3, 2])
        layout = tensor_layout(x, y, 2)
        assert [(k, l) for k, l, _, _ in layout] == [(0, 2), (1, 1), (2, 0)]
        assert sum(size for _, _, _, size in layout) == 9

    def test_graded_map_shape_check(self):
        x = GradedSpace([1, 2])
        with pytest.raises(ShapeError):
            GradedMap(x, x, [Matrix.identity(1), Matrix.identity(3)])

    def test_graded_tensor_map_functorial(self):
        x = GradedSpace([1, 2])
        f = GradedMap(x, x, [Matrix.identity(1), Matrix.identity(2).scale(Scalar.rational(2))])
        ff = graded_tensor_map(f, f)
        assert ff.blocks[1] == Matrix.identity(4).scale(Scalar.rational(2))

    def test_signed_swap_square_is_identity(self):
        dims = (1, 2, 1)
        blocks = signed_swap_blocks(dims, dims)
        for k in range(3):
            for l in range(3 - k):
                forward = blocks(k, l)
                back = blocks(l, k)
                assert back.compose(forward) == Matrix.identity(dims[k] * dims[l])

    def test_graded_braiding_requires_minus_one_with_differential(self):
        x = GradedSpace([1, 1])
        with pytest.raises(IncompatibleBraiding):
            graded_braiding(x, x, signed_swap_blocks(x.dims, x.dims, ONE), ONE,
                            with_differential=True)


class TestGradedBialgebra:
    def test_tensor_hopf_passes_all_levels(self):
        t = build_tensor_hopf(swap_space(2), "shuffle_coproduct", 3).algebra
        for level in ("algebra", "coalgebra", "bialgebra", "hopf"):
            assert check_graded_structure(t, level).ok, level

    def test_differential_requires_lambda_minus_one(self):
        x = GradedSpace([1, 1])
        eye = Matrix.identity(1)
        mult = {(0, 0): eye, (0, 1): eye, (1, 0): eye}
        comult = {(0, 0): eye, (0, 1): eye, (1, 0): eye}
        with pytest.raises(IncompatibleBraiding):
            GradedBialgebra(x, mult, eye, comult, eye,
                            signed_swap_blocks(x.dims, x.dims, ONE),
                            differential=[eye, Matrix.zero(0, 1)], lam=ONE)

    def test_broken_multiplication_detected(self):
        t = build_tensor_hopf(swap_space(2), "shuffle_coproduct", 2).algebra
        t.mult[(0, 1)] = Matrix.zero(2, 2)  # breaks unitality
        report = check_graded_structure(t, "algebra")
        assert report.first == {"associativity": (0, 1, 1), "unit": (1,)}

    def test_antipode_recursive_is_convolution_inverse(self):
        t = build_tensor_hopf(braided_line(Scalar.zeta(4)), "shuffle_coproduct", 3).algebra
        s = antipode_recursive(t)
        t.antipode = s
        assert check_graded_structure(t, "hopf").ok

    def test_ideal_quotient_exterior_line(self):
        # q = -1: (x^2) is a biideal, quotient has dims 1,1,0,0
        t = build_tensor_hopf(braided_line(MINUS_ONE, ONE), "shuffle_coproduct", 3).algebra
        q = ideal_quotient(t, Matrix.identity(1), 2)
        assert q.dims == (1, 1, 0, 0)
        assert check_graded_structure(q, "bialgebra").ok

    def test_ideal_quotient_rejects_non_coideal(self):
        # q = 1: Delta(x^2) has the cross term 2 x(x)x, so (x^2) is not a
        # coideal and the quotient must be rejected
        t = build_tensor_hopf(braided_line(ONE, ONE), "shuffle_coproduct", 3).algebra
        with pytest.raises(NotABiIdeal):
            ideal_quotient(t, Matrix.identity(1), 2)
