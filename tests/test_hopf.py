import pytest

from braidedforms import io
from braidedforms.checks import Checks
from braidedforms.cyclotomic import ONE, ZERO, Scalar
from braidedforms.errors import FactorizationError, InvalidBaseHopf, ParseError, ShapeError
from braidedforms.hopf import (
    HopfAlgebraData,
    check_hopf,
    cyclic_group_algebra,
    make_hopf,
    solve_antipode,
    sweedler_algebra,
    symmetric_group_algebra_s3,
    taft_algebra,
)
from braidedforms.matrix import (
    Matrix,
    kron,
    kron_all,
    solve_mono,
    swap_matrix,
    vstack,
)


class TestCorpus:
    def test_group_algebras_fresh(self):
        for n in (2, 3, 4, 5, 6):
            h = cyclic_group_algebra(n)
            assert h.dim == n
            assert check_hopf(h).ok

    def test_s3(self):
        h = symmetric_group_algebra_s3()
        assert h.dim == 6
        assert check_hopf(h).ok
        # noncommutative multiplication
        m = h.mult
        tau_inputs = [
            kron(Matrix.identity(6).col(i), Matrix.identity(6).col(j))
            for i, j in [(1, 2), (2, 1)]
        ]
        assert m.compose(tau_inputs[0]) != m.compose(tau_inputs[1])

    def test_sweedler(self):
        h = sweedler_algebra()
        assert h.dim == 4 and check_hopf(h).ok
        # antipode has order 4 (S^2 = conjugation by g, not the identity)
        s2 = h.antipode.compose(h.antipode)
        assert s2 != h.eye()
        assert s2.compose(s2) == h.eye()

    def test_taft3(self):
        h = taft_algebra(3)
        assert h.dim == 9 and check_hopf(h).ok
        s2 = h.antipode.compose(h.antipode)
        # S has order 2n = 6
        assert s2 != h.eye()
        assert s2.compose(s2).compose(s2) == h.eye()

    def test_group_antipode_inverts(self):
        h = cyclic_group_algebra(5)
        # S(g^a) = g^(-a): the antipode permutes the basis accordingly
        for a in range(5):
            col = h.antipode.col(a)
            expected = Matrix.zero(5, 1)
            expected[(-a) % 5, 0] = ONE
            assert col == expected


CORPUS = {"kz2": lambda: cyclic_group_algebra(2), "kz3": lambda: cyclic_group_algebra(3),
          "kz4": lambda: cyclic_group_algebra(4), "kz5": lambda: cyclic_group_algebra(5),
          "kz6": lambda: cyclic_group_algebra(6), "ks3": symmetric_group_algebra_s3,
          "sweedler": sweedler_algebra, "taft3": lambda: taft_algebra(3)}


@pytest.mark.parametrize("name", list(CORPUS))
def test_bundled_file_is_its_constructor(name):
    # each bundled Hopf file is the report text of its constructor's maps
    text = io.bundled_path(name).read_text(encoding="utf-8")
    obj = {**CORPUS[name]().to_obj(), "kind": "hopf", "name": name, "schema_version": 1}
    assert text == io.dumps(obj)


def test_zero_antipode_fails_the_antipode_checks(kz2):
    zero = Matrix.zero(kz2.dim, kz2.dim)
    h = HopfAlgebraData(kz2.dim, kz2.mult, kz2.unit, kz2.comult, kz2.counit, zero)
    assert sorted(check_hopf(h).failed) == ["antipode_invertible", "antipode_left",
                                            "antipode_right"]


class TestSerialization:
    def test_roundtrip_bit_exact(self, sweedler):
        obj = sweedler.to_obj()
        again = io.hopf_from_obj(obj)
        assert again.to_obj() == obj
        assert again.mult == sweedler.mult and again.antipode == sweedler.antipode

    def test_bundled_corpus_all_valid(self):
        for name in ("kz2", "kz4", "ks3", "sweedler", "taft3"):
            h = io.hopf_from_obj(io.load_json(io.bundled_path(name)))
            assert check_hopf(h).ok, name

    @pytest.mark.parametrize("key", list(HopfAlgebraData.LEGS))
    def test_wrong_shape_names_the_map(self, sweedler, key):
        f = getattr(sweedler, key)
        for rows, cols in ((f.rows + 1, f.cols), (f.rows, f.cols - 1)):
            wrong = Matrix.zero(rows, cols)
            maps = [wrong if k == key else getattr(sweedler, k) for k in HopfAlgebraData.LEGS]
            message = f"{key} must be {f.rows}x{f.cols}, got {rows}x{cols}"
            with pytest.raises(ShapeError, match=f"^{message}$"):
                HopfAlgebraData(sweedler.dim, *maps)
            with pytest.raises(ParseError, match=message):
                io.hopf_from_obj(sweedler.to_obj() | {key: wrong.to_obj()})


def monoid_bialgebra():
    """The bialgebra k{1, e} of the monoid with e^2 = e: Delta diagonal,
    eps = (1, 1).  e is group-like without an inverse, so it has no
    antipode."""
    n = 2
    mult = Matrix.zero(n, n * n)
    mult[0, 0] = ONE              # 1*1 = 1
    mult[1, 1] = ONE              # 1*e = e
    mult[1, n] = ONE              # e*1 = e
    mult[1, n + 1] = ONE          # e*e = e
    unit = Matrix.zero(n, 1)
    unit[0, 0] = ONE
    comult = Matrix.zero(n * n, n)
    comult[0, 0] = ONE            # Delta(1) = 1(x)1
    comult[3, 1] = ONE            # Delta(e) = e(x)e
    counit = Matrix(1, n, [ONE, ONE])
    return n, mult, unit, comult, counit


class TestValidation:
    def test_no_antipode_rejected(self):
        with pytest.raises(InvalidBaseHopf):
            make_hopf(*monoid_bialgebra(), "monoid")

    def test_broken_associativity_rejected(self):
        h = cyclic_group_algebra(2)
        bad_mult = h.mult + Matrix.zero(2, 4)
        bad_mult[0, 3] = bad_mult[0, 3] + ONE
        with pytest.raises(InvalidBaseHopf):
            make_hopf(2, bad_mult, h.unit, h.comult, h.counit, "broken")


# --- check_hopf against a reference that builds every Kronecker product


def reference_check_hopf(h):
    eye = h.eye()
    m, u, cm, cu, s = h.mult, h.unit, h.comult, h.counit, h.antipode
    d = h.dim
    return Checks({
        "associativity": m.compose(kron(m, eye)) == m.compose(kron(eye, m)),
        "unit": m.compose(kron(u, eye)) == eye and m.compose(kron(eye, u)) == eye,
        "coassociativity": kron(cm, eye).compose(cm) == kron(eye, cm).compose(cm),
        "counit": kron(cu, eye).compose(cm) == eye and kron(eye, cu).compose(cm) == eye,
        "bialgebra": cm.compose(m)
        == kron(m, m).compose(kron_all(eye, swap_matrix(d, d), eye)).compose(kron(cm, cm)),
        "unit_counit": cu.compose(m) == kron(cu, cu)
        and cm.compose(u) == kron(u, u)
        and cu.compose(u) == Matrix.identity(1),
        "antipode_left": m.compose(kron(s, eye)).compose(cm) == u.compose(cu),
        "antipode_right": m.compose(kron(eye, s)).compose(cm) == u.compose(cu),
        "antipode_invertible": s.rank() == d,
    })


def _with_comult_entry_changed(h, r, c):
    comult = h.comult + Matrix.zero(h.comult.rows, h.comult.cols)
    comult[r, c] = comult[r, c] + ONE
    return HopfAlgebraData(h.dim, h.mult, h.unit, comult, h.counit, h.antipode, name=h.name)


class TestChecksAgainstReference:
    @pytest.mark.parametrize("name", ["kz3", "ks3", "sweedler", "taft3"])
    def test_corpus(self, name):
        h = io.hopf_from_obj(io.load_json(io.bundled_path(name)))
        assert check_hopf(h).to_obj() == reference_check_hopf(h).to_obj()

    @pytest.mark.parametrize("which", ["first", "last", "zero"])
    def test_one_corrupted_comult_entry_on_taft3(self, taft3, which):
        nonzero = [rc for rc, _ in taft3.comult.nonzeros()]
        if which == "zero":
            occupied = set(nonzero)
            r, c = next((r, c) for r in range(taft3.comult.rows) for c in range(taft3.dim)
                        if (r, c) not in occupied)
        else:
            r, c = nonzero[0 if which == "first" else -1]
        h = _with_comult_entry_changed(taft3, r, c)
        report = check_hopf(h)
        reference = reference_check_hopf(h)
        assert report.first == reference.first and report.failed == reference.failed
        assert "bialgebra" in report.failed


def test_check_hopf_builds_no_matrix_beyond_three_legs(taft3, built_sizes):
    # the materialized bialgebra right side builds 6561-row matrices on taft3
    d = taft3.dim
    assert check_hopf(taft3).ok
    assert built_sizes and max(built_sizes) <= d**3


def reference_taft_comult(h, n):
    """taft_algebra's comultiplication as the product of generator
    coproducts in H (x) H, whose product is kron(m, m) o (id (x) swap (x) id).
    Each column u of H (x) H is carried as the row u^T, so a step is
    kron(u^T, v^T) o mult2^T and never builds a d^4-row column."""
    d = h.dim
    eye = Matrix.identity(d)
    mult2 = kron(h.mult, h.mult).compose(kron_all(eye, swap_matrix(d, d), eye)).transpose()
    dg = Matrix.zero(1, d * d)
    dg[0, n * d + n] = ONE  # g (x) g, with g^a x^b at index a * n + b
    dx = Matrix.zero(1, d * d)
    dx[0, 1 * d + 0] = ONE  # x (x) 1
    dx[0, n * d + 1] = ONE  # g (x) x
    rows = []
    for a in range(n):
        for b in range(n):
            val = kron(h.unit, h.unit).transpose()
            for _ in range(a):
                val = kron(val, dg).compose(mult2)
            for _ in range(b):
                val = kron(val, dx).compose(mult2)
            rows.append(val)
    return vstack(rows).transpose()


def test_taft_comult_against_kronecker_chain():
    # the closed form of the braided binomial theorem against the product of
    # generator coproducts in H (x) H
    for n in (2, 3, 4, 5):
        h = taft_algebra(n)
        assert h.comult == reference_taft_comult(h, n), n


def reference_solve_antipode(dim, mult, unit, comult, counit):
    """The antipode solved from m o (S (x) id) o Delta = eta o eps as a
    dim^2 x dim^2 linear system in the entries of S."""
    n = dim
    # unknown s[i*n + a] = S_{i,a}; equation rows indexed by (r, c)
    system = Matrix.zero(n * n, n * n)
    target = unit.compose(counit)
    rhs = Matrix.column([target[r, c] for r in range(n) for c in range(n)])
    for c in range(n):
        for r in range(n):
            for a in range(n):
                for i in range(n):
                    coeff = ZERO
                    for b in range(n):
                        delta = comult[a * n + b, c]
                        if delta.is_zero:
                            continue
                        mval = mult[r, i * n + b]
                        if not mval.is_zero:
                            coeff = coeff + delta * mval
                    if not coeff.is_zero:
                        system[r * n + c, i * n + a] = coeff
    try:
        s_flat = solve_mono(system, rhs)
    except FactorizationError as exc:
        raise InvalidBaseHopf("no antipode exists for the given bialgebra") from exc
    return Matrix(n, n, [s_flat[i * n + a, 0] for i in range(n) for a in range(n)])


class TestAntipodeAgainstConvolutionSystem:
    @pytest.mark.parametrize("name", ["kz2", "kz3", "kz4", "kz5", "kz6", "ks3", "sweedler",
                                      "taft3", "taft4"])
    def test_same_antipode(self, name):
        h = taft_algebra(4) if name == "taft4" else io.hopf_from_obj(
            io.load_json(io.bundled_path(name)))
        data = (h.dim, h.mult, h.unit, h.comult, h.counit)
        assert solve_antipode(*data).to_obj() == reference_solve_antipode(*data).to_obj()

    @pytest.mark.parametrize("solve", [solve_antipode, reference_solve_antipode])
    def test_monoid_has_no_antipode(self, solve):
        with pytest.raises(InvalidBaseHopf):
            solve(*monoid_bialgebra())
