import pytest

from braidedforms.braiding import braided_line, swap_space
from braidedforms.cyclotomic import MINUS_ONE, ONE, Scalar
from braidedforms.errors import IncompatibleBraiding, NotABiIdeal
from braidedforms.graded import (
    GradedBialgebra,
    GradedSpace,
    antipode_recursive,
    check_graded_structure,
    ideal_quotient,
    signed_swap_blocks,
)
from braidedforms.matrix import Matrix, kron
from braidedforms.tensor_hopf import build_tensor_hopf


class TestSpacesAndMaps:
    def test_signed_swap_square_is_identity(self):
        dims = (1, 2, 1)
        blocks = signed_swap_blocks(dims, dims)
        for k in range(3):
            for l in range(3 - k):
                forward = blocks(k, l)
                back = blocks(l, k)
                assert back.compose(forward) == Matrix.identity(dims[k] * dims[l])


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
        assert q.antipode is not None  # the antipode descends to the quotient
        assert check_graded_structure(q, "hopf").ok

    def test_ideal_quotient_rejects_non_coideal(self):
        # q = 1: Delta(x^2) has the cross term 2 x(x)x, so (x^2) is not a
        # coideal and the quotient must be rejected
        t = build_tensor_hopf(braided_line(ONE, ONE), "shuffle_coproduct", 3).algebra
        with pytest.raises(NotABiIdeal):
            ideal_quotient(t, Matrix.identity(1), 2)
