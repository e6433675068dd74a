import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidedforms import io
from braidedforms.cyclotomic import MINUS_ONE, ONE, ZERO, Scalar
from braidedforms.errors import FactorizationError, ShapeError
from braidedforms.matrix import (
    Matrix,
    braided_product,
    compose_kron,
    hstack,
    kron,
    kron_all,
    kron_apply,
    particular_solution,
    solve_epi,
    solve_factor,
    solve_mono,
    span_closure,
    split_leg,
    swap_matrix,
    vstack,
)

entries = st.integers(-4, 4).map(Scalar.rational)


def matrices(rows, cols):
    return st.lists(entries, min_size=rows * cols, max_size=rows * cols).map(
        lambda e: Matrix(rows, cols, e)
    )


def mat(rows):
    return Matrix(len(rows), len(rows[0]), [Scalar.rational(v) for r in rows for v in r])


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

    def test_swap_matrix_is_the_plain_swap(self):
        # swap_matrix(a, b) sends e_i (x) f_j to f_j (x) e_i
        assert list(swap_matrix(2, 3).nonzeros()) == sorted(
            ((j * 2 + i, i * 3 + j), ONE) for i in range(2) for j in range(3))

    def test_swap_matrix_inverse(self):
        eye = Matrix.identity(2)
        assert kron_all(eye, swap_matrix(3, 2), eye).compose(
            kron_all(eye, swap_matrix(2, 3), eye)) == Matrix.identity(24)
        m = mat([[1, 2, 3, 4, 5, 6], [0, 7, 0, 8, 0, 9]])
        assert m.compose(swap_matrix(2, 3)).compose(swap_matrix(3, 2)) == m

    def test_compose_with_swap_matches_general_path(self):
        # rows that are one entry ONE take the row-copy path of compose; a
        # rational 1 that is not the shared ONE object forces the general path
        one = Scalar(1, [1])
        assert one == ONE and one is not ONE
        p = swap_matrix(2, 3)
        general = Matrix(6, 6, [0 if e.is_zero else one for e in p.entries])
        m = Matrix(6, 4, [Scalar.zeta(5, k) if k % 3 else k for k in range(24)])
        mt = m.transpose()
        for fast, slow in ((p.compose(m), general.compose(m)),
                           (mt.compose(p), mt.compose(general))):
            assert [(rc, e.to_obj()) for rc, e in fast.nonzeros()] == \
                [(rc, e.to_obj()) for rc, e in slow.nonzeros()]

    def test_zeroed_entry_is_not_stored(self):
        m = mat([[1, 0], [0, 2]])
        m[0, 1] = Scalar.zeta(5)
        m[0, 1] = 0
        m[1, 1] = ZERO
        never_set = mat([[1, 0], [0, 0]])
        assert m == never_set and hash(m) == hash(never_set)
        assert list(m.nonzeros()) == [((0, 0), ONE)]

    def test_entries_is_a_read_only_view(self):
        m = mat([[0, 3], [4, 0]])
        assert m.entries == [ZERO, Scalar.rational(3), Scalar.rational(4), ZERO]
        with pytest.raises(AttributeError):
            m.entries = []

    def test_sparse_kron_memory(self):
        # the id (x) tau (x) id of check_hopf on a 9-dimensional algebra:
        # 6561 nonzero entries among 43M
        tracemalloc.start()
        try:
            big = kron(kron(Matrix.identity(9), swap_matrix(9, 9)), Matrix.identity(9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert big.rows == big.cols == 6561 and len(list(big.nonzeros())) == 6561
        assert peak < 32 * 2**20

    def test_serialization_roundtrip(self):
        m = mat([[1, 2], [3, 4]]).scale(Scalar.zeta(5))
        assert io.matrix_from_obj(m.to_obj()) == m


# --- a dense list-of-lists reference -----------------------------------------


def _dense(m):
    return [[m[r, c] for c in range(m.cols)] for r in range(m.rows)]


def _obj(rows, cols, d):
    return {"rows": rows, "cols": cols, "entries": [e.to_obj() for row in d for e in row]}


def _compose(a, b, inner, cols):
    # each entry sums over k in ascending order, starting from ZERO
    out = []
    for arow in a:
        row = []
        for j in range(cols):
            acc = ZERO
            for k in range(inner):
                acc = acc + arow[k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def _rref(d, cols):
    # leftmost pivot, pivot row scaled by inv * x, rows updated by x - c * y
    m = [list(row) for row in d]
    pivots, pr = [], 0
    for pc in range(cols):
        found = next((r for r in range(pr, len(m)) if not m[r][pc].is_zero), None)
        if found is None:
            continue
        m[pr], m[found] = m[found], m[pr]
        inv = m[pr][pc].inv()
        m[pr] = [inv * x for x in m[pr]]
        for r in range(len(m)):
            if r != pr and not m[r][pc].is_zero:
                c = m[r][pc]
                m[r] = [x - c * y for x, y in zip(m[r], m[pr])]
        pivots.append(pc)
        pr += 1
        if pr == len(m):
            break
    return m, pivots


# mostly zeros; nonzero entries at conductors 1, 3, 5 and 15, so sums of
# mixed conductors end at a conductor that depends on the order of the terms.
# Besides the monomials, non-units that are not monomials, whose inverses
# have Fraction coordinates, so rref scales pivot rows by cleared inverses.
NON_UNITS = (1 - Scalar.zeta(5), 2 + Scalar.zeta(3), Scalar.zeta(15, 4) + Scalar.rational(1, 2))
sparse_entries = st.one_of(
    st.just(ZERO), st.just(ZERO), st.just(ZERO),
    st.tuples(st.sampled_from([1, 3, 5, 15]), st.integers(0, 14), st.sampled_from([1, -1, 2]))
    .map(lambda t: Scalar.zeta(t[0], t[1]) * t[2]),
    st.sampled_from(NON_UNITS))


def sparse_matrices(rows, cols):
    return st.lists(sparse_entries, min_size=rows * cols, max_size=rows * cols).map(
        lambda e: Matrix(rows, cols, e))


z3, z5 = Scalar.zeta(3), Scalar.zeta(5)

# entries of one field, or of two whose products land at conductor 12
FIELD_ENTRIES = {
    "conductor 1": st.builds(Scalar.rational, st.integers(-4, 4), st.integers(1, 3)),
    "conductor 5": st.builds(lambda k, q, r: Scalar.zeta(5, k) * q + r,
                             st.integers(0, 4), st.integers(-2, 2), st.integers(-2, 2)),
    "conductors 3 and 4": st.builds(lambda n, k, q, r: Scalar.zeta(n, k) * q + r,
                                    st.sampled_from([3, 4]), st.integers(0, 3),
                                    st.integers(-2, 2), st.integers(-2, 2)),
}


class TestSparseAgainstDense:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_dense_reference(self, data):
        r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
        a = data.draw(sparse_matrices(r, k))
        a2 = data.draw(sparse_matrices(r, k))
        b = data.draw(sparse_matrices(k, c))
        g = data.draw(sparse_matrices(data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))))
        self.check_against_dense(a, a2, b, g)

    def test_summation_order_pins_conductor(self):
        # (z3 + z5) - z5 stays at conductor 15; z3 + (z5 - z5) would be z3 at 3
        a = Matrix(1, 3, [z3, z5, ONE])
        b = Matrix(3, 1, [ONE, ONE, -z5])
        assert a.compose(b)[0, 0].n == 15
        self.check_against_dense(a, a, b, b)

    def test_non_unit_pivots(self):
        # every pivot is a non-unit whose inverse has Fraction coordinates,
        # against rows of integral, Fraction and mixed-conductor entries
        u, v, w = NON_UNITS
        a = Matrix(3, 4, [u, v, ONE, w, z3 * v, w, u, ZERO, w * u, ZERO, v, z5])
        assert all(type(c) is not int for x in (u.inv(), v.inv(), w.inv()) for c in x.c)
        red, pivots = a.rref()
        assert pivots == [0, 1, 2] and all(red[r, c] is ONE for r, c in enumerate(pivots))
        self.check_against_dense(a, a, a.transpose(), a)

    @pytest.mark.parametrize("n", [5, 97])
    def test_lone_pivots_take_no_inverse(self, monkeypatch, n):
        # each pivot is the only entry of its row, so rref sets it to ONE
        # without inverting it; the inverses of these non-units at conductor
        # 97 are the slow ones
        z = Scalar.zeta(n)
        diag = [1 - z, 2 + z, z + Scalar.zeta(n, 2), Scalar.rational(3)]
        a = Matrix(4, 4, [diag[r] if r == c else ZERO for r in range(4) for c in range(4)])
        ref, ref_pivots = _rref(_dense(a), 4)
        calls = []
        inv = Scalar.inv
        monkeypatch.setattr(Scalar, "inv", lambda x: calls.append(x) or inv(x))
        red, pivots = a.rref()
        assert calls == []
        assert pivots == ref_pivots == [0, 1, 2, 3] and red.to_obj() == _obj(4, 4, ref)

    @pytest.mark.parametrize("field", sorted(FIELD_ENTRIES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_rref_makes_no_subtraction(self, field, data):
        # elimination adds the pivot row times the negated multiplier
        r, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
        cells = st.one_of(st.just(ZERO), FIELD_ENTRIES[field])
        a = Matrix(r, k, data.draw(st.lists(cells, min_size=r * k, max_size=r * k)))
        ref, ref_pivots = _rref(_dense(a), k)

        def refuse(x, y):
            raise AssertionError(f"rref subtracted {y!r} from {x!r}")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Scalar, "__sub__", refuse)
            red, pivots = a.rref()
        assert pivots == ref_pivots and red.to_obj() == _obj(r, k, ref)

    @staticmethod
    def check_against_dense(a, a2, b, g):
        da, da2, db, dg = _dense(a), _dense(a2), _dense(b), _dense(g)
        r, k, c = a.rows, a.cols, b.cols
        assert a.compose(b).to_obj() == _obj(r, c, _compose(da, db, k, c))
        kr = [[da[i][p] * dg[j][q] for p in range(k) for q in range(g.cols)]
              for i in range(r) for j in range(g.rows)]
        assert kron(a, g).to_obj() == _obj(r * g.rows, k * g.cols, kr)
        assert a.transpose().to_obj() == _obj(k, r, zip(*da))
        assert (a + a2).to_obj() == _obj(r, k, [[x + y for x, y in zip(u, v)]
                                                 for u, v in zip(da, da2)])
        assert (a - a2).to_obj() == _obj(r, k, [[x - y for x, y in zip(u, v)]
                                                 for u, v in zip(da, da2)])
        assert hstack([a, a2]).to_obj() == _obj(r, 2 * k, [u + v for u, v in zip(da, da2)])
        assert vstack([a, a2]).to_obj() == _obj(2 * r, k, da + da2)
        red, pivots = a.rref()
        ref, ref_pivots = _rref(da, k)
        assert pivots == ref_pivots and red.to_obj() == _obj(r, k, ref)
        assert list(a.nonzeros()) == [((i, j), x) for i, row in enumerate(da)
                                      for j, x in enumerate(row) if not x.is_zero]


def _no_stored_zero(m):
    return all(not v.is_zero for _, v in m.nonzeros())


class TestKronApply:
    """kron_apply and compose_kron against the materialized Kronecker product."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_materialized_product(self, data):
        fr, fc, gr, gc, p = (data.draw(st.integers(0, 3)) for _ in range(5))
        f = data.draw(sparse_matrices(fr, fc))
        g = data.draw(sparse_matrices(gr, gc))
        x = data.draw(sparse_matrices(fc * gc, p))
        y = data.draw(sparse_matrices(p, fr * gr))
        out = kron_apply(f, g, x)
        assert out == kron(f, g).compose(x) and _no_stored_zero(out)
        out = compose_kron(y, f, g)
        assert out == y.compose(kron(f, g)) and _no_stored_zero(out)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_cancelling_sums_store_no_zero(self, data):
        # f' = [f f] against x' = [x; -x] (and the mirror) sums to zero
        # entry by entry, through mixed-conductor partial sums
        fr, fc, gr, gc, p = (data.draw(st.integers(1, 3)) for _ in range(5))
        f = data.draw(sparse_matrices(fr, fc))
        g = data.draw(sparse_matrices(gr, gc))
        x = data.draw(sparse_matrices(fc * gc, p))
        out = kron_apply(hstack([f, f]), g, vstack([x, -x]))
        assert out.is_zero and list(out.nonzeros()) == []
        y = data.draw(sparse_matrices(p, fr * gr))
        out = compose_kron(hstack([y, -y]), vstack([f, f]), g)
        assert out.is_zero and list(out.nonzeros()) == []

    def test_partial_cancellation(self):
        f = Matrix(1, 2, [ONE, ONE])
        x = Matrix(2, 2, [z3 + z5, z5, -z5, -z5])
        out = kron_apply(f, Matrix.identity(1), x)
        assert out == Matrix(1, 2, [z3, ZERO]) and list(out.nonzeros()) == [((0, 0), z3)]
        assert not out.is_zero and out == kron(f, Matrix.identity(1)).compose(x)

    def test_shape_mismatch(self):
        f, g = Matrix.identity(2), Matrix.identity(3)
        with pytest.raises(ShapeError):
            kron_apply(f, g, Matrix.identity(5))
        with pytest.raises(ShapeError):
            compose_kron(Matrix.identity(5), f, g)


class TestSplitLeg:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_components_along_the_leg(self, data):
        # block j is (id_A (x) e_j*) o x, the covector applied by kron_apply
        a, b, k = (data.draw(st.integers(1, 3)) for _ in range(3))
        x = data.draw(sparse_matrices(a * b, k))
        covectors = Matrix.identity(b)
        blocks = [kron_apply(Matrix.identity(a), covectors.col(j).transpose(), x)
                  for j in range(b)]
        assert split_leg(x, b) == hstack(blocks)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            split_leg(Matrix.identity(5), 2)


def _naive_closure(ops, gens):
    """The echelon basis of Im(gens) closed under ops, every operator applied
    to the whole basis until it stops growing."""
    basis = gens.column_echelon_basis()[0]
    while True:
        grown = hstack([basis] + [op.compose(basis) for op in ops]).column_echelon_basis()[0]
        if grown.cols == basis.cols:
            return basis
        basis = grown


class TestSpanClosure:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equals_the_naive_fixed_point(self, data):
        # sparse operators, and gens that are empty, random or the whole space
        n = data.draw(st.integers(1, 5))
        ops = data.draw(st.lists(sparse_matrices(n, n), min_size=1, max_size=2))
        gens = data.draw(st.one_of(
            st.just(Matrix.zero(n, 0)), st.just(Matrix.identity(n)),
            st.integers(1, 3).flatmap(lambda k: sparse_matrices(n, k))))
        closed = span_closure(lambda v: hstack([op.compose(v) for op in ops]), gens)
        assert closed == _naive_closure(ops, gens)

    def test_whole_space_is_the_identity(self):
        shift = mat([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        assert span_closure(shift.compose, Matrix.identity(3).col(0)) == Matrix.identity(3)
        assert span_closure(shift.compose, Matrix.identity(3).col(1)).cols == 2


class TestCokernel:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_an_epi_that_kills_the_column_space(self, data):
        r, c = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
        m = data.draw(sparse_matrices(r, c))
        q = m.cokernel()
        assert q.compose(m).is_zero
        assert q.rows == r - m.rank() and q.rank() == q.rows


# zero-heavy entries 0, +-1, 1/2, zeta_3 and zeta_5; ONE is the shared object
# the kernels skip, Scalar.rational(1) an equal one they multiply
kernel_entries = st.sampled_from([
    ZERO, ZERO, ZERO, ONE, Scalar.rational(1), MINUS_ONE, Scalar.rational(1, 2), z3, z5, -z5])


def kernel_matrices(rows, cols):
    return st.lists(kernel_entries, min_size=rows * cols, max_size=rows * cols).map(
        lambda e: Matrix(rows, cols, e))


def braided_reference(m1, m2, beta, c1, c2, dims):
    """(m1 (x) m2) o (id_A (x) beta (x) id_D) o (c1 (x) c2), every factor built."""
    a, _, _, d = dims
    whisker = kron(kron(Matrix.identity(a), beta), Matrix.identity(d))
    return kron(m1, m2).compose(whisker).compose(kron(c1, c2))


class TestKernels:
    """braided_product, kron_apply and compose_kron against the materialized
    kron/compose chain."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_braided_product_matches_reference(self, data):
        a, b, c, d, x, y, p, q = (data.draw(st.integers(0, 2)) for _ in range(8))
        m1 = data.draw(kernel_matrices(p, a * c))
        m2 = data.draw(kernel_matrices(q, b * d))
        beta = data.draw(kernel_matrices(c * b, b * c))
        c1 = data.draw(kernel_matrices(a * b, x))
        c2 = data.draw(kernel_matrices(c * d, y))
        out = braided_product(m1, m2, beta, c1, c2, (a, b, c, d))
        assert out == braided_reference(m1, m2, beta, c1, c2, (a, b, c, d))
        assert (out.rows, out.cols) == (p * q, x * y) and _no_stored_zero(out)

    def test_braided_product_with_swap_is_the_bialgebra_right_side(self):
        d = 2
        m = Matrix(d, d * d, [ONE, z3, ZERO, MINUS_ONE, ZERO, z5, Scalar.rational(1, 2), ONE])
        cm = m.transpose()
        got = braided_product(m, m, swap_matrix(d, d), cm, cm, (d, d, d, d))
        legs = kron_all(Matrix.identity(d), swap_matrix(d, d), Matrix.identity(d))
        assert got == kron(m, m).compose(legs).compose(kron(cm, cm))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_kron_apply_and_compose_kron_match_reference(self, data):
        fr, fc, gr, gc, p = (data.draw(st.integers(0, 3)) for _ in range(5))
        f = data.draw(kernel_matrices(fr, fc))
        g = data.draw(kernel_matrices(gr, gc))
        x = data.draw(kernel_matrices(fc * gc, p))
        y = data.draw(kernel_matrices(p, fr * gr))
        out = kron_apply(f, g, x)
        assert out == kron(f, g).compose(x) and _no_stored_zero(out)
        out = compose_kron(y, f, g)
        assert out == y.compose(kron(f, g)) and _no_stored_zero(out)

    def test_braided_product_cancels_to_zero(self):
        # two summands of one output entry cancel: no zero is stored
        m1 = Matrix(1, 2, [ONE, ONE])
        c1 = Matrix(2, 1, [z5, -z5])
        one = Matrix.identity(1)
        out = braided_product(m1, one, one, c1, one, (2, 1, 1, 1))
        assert out.is_zero and list(out.nonzeros()) == []

    @pytest.mark.parametrize("bad", ["c1", "c2", "beta_rows", "beta_cols", "m1", "m2"])
    def test_braided_product_shape_mismatch(self, bad):
        dims = (1, 2, 2, 1)
        shapes = {"m1": (1, 2), "m2": (1, 2), "beta": (4, 4), "c1": (2, 1), "c2": (2, 1)}
        fit = (Matrix.zero(*shapes[k]) for k in ("m1", "m2", "beta", "c1", "c2"))
        assert braided_product(*fit, dims).is_zero
        if bad.startswith("beta"):
            r, c = shapes["beta"]
            shapes["beta"] = (r + 1, c) if bad == "beta_rows" else (r, c + 1)
        elif bad.startswith("m"):
            shapes[bad] = (1, 3)
        else:
            shapes[bad] = (3, 1)
        m1, m2, beta, c1, c2 = (Matrix.zero(*shapes[k]) for k in ("m1", "m2", "beta", "c1", "c2"))
        with pytest.raises(ShapeError):
            braided_product(m1, m2, beta, c1, c2, dims)


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


# --- solvers against elimination -------------------------------------------

MONO_MESSAGE = "image not contained in the mono's image, or mono not injective"


def _reference_solve_mono(a, b):
    """solve_mono by dense elimination of the augmented system [a | b]."""
    k = a.cols
    red, pivots = _rref([ra + rb for ra, rb in zip(_dense(a), _dense(b))], k + b.cols)
    if pivots != list(range(k)):
        raise FactorizationError(MONO_MESSAGE)
    return Matrix(k, b.cols, [e for row in red[:k] for e in row[k:]])


def _outcome(solve, *args):
    """The solution's serialization, or the FactorizationError message."""
    try:
        return solve(*args).to_obj()
    except FactorizationError as exc:
        return str(exc)


def field_entries(n):
    # mostly zeros, else k * zeta_n^j: one field per system, where equal
    # values serialize alike whatever the order of the sums
    return st.one_of(
        st.just(ZERO), st.just(ZERO),
        st.builds(lambda k, j: Scalar.zeta(n, j) * k, st.integers(-3, 3), st.integers(0, n - 1)))


SYSTEM_KINDS = ("cover", "duplicate_unit_rows", "zero_column", "unshared_one", "no_cover")


@st.composite
def mono_systems(draw):
    """(kind, a, b): a with or without a row {j: ONE} for each column j, and
    b = a o x, perturbed half of the time so that it may leave the image."""
    kind = draw(st.sampled_from(SYSTEM_KINDS))
    entry = field_entries(draw(st.sampled_from([1, 3, 4])))
    k = draw(st.integers(0, 4))
    rows = [[draw(entry) for _ in range(k)] for _ in range(draw(st.integers(0, 3)))]
    if kind == "no_cover":
        rows += [[draw(entry) for _ in range(k)] for _ in range(k)]
    else:
        units = list(range(k))
        if kind == "duplicate_unit_rows" and k:
            units += draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=2))
        for j in units:
            unit = [ZERO] * k
            unit[j] = ONE
            rows.insert(draw(st.integers(0, len(rows))), unit)
        if kind == "zero_column" and k:
            j = draw(st.integers(0, k - 1))
            for row in rows:
                row[j] = ZERO
        if kind == "unshared_one" and k:
            # equal to 1 but not the shared ONE: no unit row for that column
            j = draw(st.integers(0, k - 1))
            for row in rows:
                if row[j] is ONE:
                    row[j] = Scalar(1, [1])
    a = Matrix(len(rows), k, [e for row in rows for e in row])
    c = draw(st.integers(0, 3))
    b = a.compose(Matrix(k, c, [draw(entry) for _ in range(k * c)]))
    if draw(st.booleans()):
        b = b + Matrix(a.rows, c, [draw(entry) for _ in range(a.rows * c)])
    return kind, a, b


class TestSolversAgainstElimination:
    @settings(max_examples=300, deadline=None)
    @given(mono_systems())
    def test_solve_mono_matches_elimination(self, system):
        kind, a, b = system
        assert _outcome(solve_mono, a, b) == _outcome(_reference_solve_mono, a, b), kind

    @settings(max_examples=150, deadline=None)
    @given(mono_systems())
    def test_solve_epi_matches_elimination(self, system):
        kind, e, b = system
        e, b = e.transpose(), b.transpose()

        def reference(b, e):
            return _reference_solve_mono(e.transpose(), b.transpose()).transpose()

        assert _outcome(solve_epi, b, e) == _outcome(reference, b, e), kind

    def test_unit_rows_are_read_without_elimination(self, monkeypatch):
        m = mat([[1, 2, 0, 1], [0, 1, 1, 3]])
        ker = m.kernel_basis()
        q = ker.transpose().kernel_basis().transpose()  # a cokernel: identity columns
        x = mat([[1, -2], [3, 0]])
        eye = Matrix.identity(2)
        rhs = kron(eye, ker).compose(kron(x, x))

        def no_rref(self):
            raise AssertionError("eliminated a matrix with unit rows")

        monkeypatch.setattr(Matrix, "rref", no_rref)
        assert solve_mono(ker, ker.compose(x)) == x
        assert solve_mono(kron(eye, ker), rhs) == kron(x, x)
        assert solve_epi(x.compose(q), q) == x
        assert solve_factor(ker, q, ker.compose(x).compose(q)) == x
        with pytest.raises(FactorizationError, match="mono's image"):
            solve_mono(ker, Matrix.identity(4).col(0))
        # two unit rows of one column: read off the first, checked on both
        twice = mat([[1], [1]])
        assert solve_mono(twice, mat([[2], [2]])) == mat([[2]])
        with pytest.raises(FactorizationError, match="mono's image"):
            solve_mono(twice, mat([[1], [2]]))

    def test_matrix_without_unit_rows_is_eliminated(self, monkeypatch):
        calls = []
        rref = Matrix.rref
        monkeypatch.setattr(Matrix, "rref", lambda self: calls.append(1) or rref(self))
        a = mat([[1, 0], [1, 1], [0, 2]])
        assert solve_mono(a, a.compose(mat([[2], [3]]))) == mat([[2], [3]])
        assert calls == [1]


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
