import pytest

from braidedforms import graded, io
from braidedforms.braiding import (
    BraidedSpace,
    block_swap,
    braided_line,
    swap_space,
)
from braidedforms.calculus import exterior_calculus, exterior_calculus_via_comma, universal_fodc
from braidedforms.checks import Checks
from braidedforms.cyclotomic import MINUS_ONE, ONE, ZERO, Scalar
from braidedforms.errors import IncompatibleBraiding, NotABiIdeal, ShapeError
from braidedforms.graded import (
    GradedBialgebra,
    antipode_recursive,
    check_graded_structure,
    generator_certificate,
    ideal_quotient,
    sub_bialgebra,
)
from braidedforms.matrix import (
    Matrix,
    braided_product,
    compose_kron,
    hstack,
    kron,
    kron_apply,
    restrict,
    swap_matrix,
)
from braidedforms.tensor_hopf import build_tensor_hopf


class TestSpacesAndMaps:
    def test_signed_swap_square_is_identity(self):
        dims = (1, 2, 1)
        b = GradedBialgebra(dims, {}, Matrix.identity(1), {}, Matrix.identity(1),
                            lambda k, l: swap_matrix(dims[k], dims[l]), MINUS_ONE)
        for k in range(3):
            for l in range(3 - k):
                forward = b.braid(k, l)
                back = b.braid(l, k)
                assert back.compose(forward) == Matrix.identity(dims[k] * dims[l])


class TestGradedBialgebra:
    def test_tensor_hopf_passes_all_levels(self):
        # algebra, coalgebra, bialgebra and antipode, and no differential check
        t = build_tensor_hopf(swap_space(2), "shuffle_coproduct", 3)
        report = check_graded_structure(t)
        assert report.ok
        assert set(report.first) == {"associativity", "unit", "coassociativity", "counit",
                                     "bialgebra", "unit_counit_compat", "antipode"}

    def test_differential_requires_lambda_minus_one(self):
        dims = (1, 1)
        eye = Matrix.identity(1)
        mult = {(0, 0): eye, (0, 1): eye, (1, 0): eye}
        comult = {(0, 0): eye, (0, 1): eye, (1, 0): eye}
        with pytest.raises(IncompatibleBraiding):
            GradedBialgebra(dims, mult, eye, comult, eye,
                            lambda k, l: swap_matrix(dims[k], dims[l]), ONE,
                            differential=[eye])

    def test_assigned_differential_requires_lambda_minus_one(self):
        # the exterior calculi attach their differential by assignment; the
        # check holds it to lambda = -1 as the constructor does, since the
        # differential laws read the lambda = -1 signs (with lambda = 1 the
        # zero differential would pass every one of them)
        b = build_tensor_hopf(swap_space(2, 1), "shuffle_product", 2)
        b.differential = [Matrix.zero(b.dims[n + 1], b.dims[n]) for n in range(b.N)]
        with pytest.raises(IncompatibleBraiding):
            check_graded_structure(b)

    def test_negative_dimension_rejected(self):
        eye = Matrix.identity(1)
        with pytest.raises(ShapeError, match="negative dimension"):
            GradedBialgebra((1, -1), {}, eye, {}, eye, lambda k, l: eye, MINUS_ONE)

    def test_broken_multiplication_detected(self):
        t = build_tensor_hopf(swap_space(2), "shuffle_coproduct", 2)
        t.mult[(0, 1)] = Matrix.zero(2, 2)  # breaks unitality
        report = check_graded_structure(t)
        assert (report.first["associativity"], report.first["unit"]) == ((0, 1, 1), (1,))

    def test_antipode_recursive_is_convolution_inverse(self):
        t = build_tensor_hopf(braided_line(Scalar.zeta(4)), "shuffle_coproduct", 3)
        s = antipode_recursive(t, t.antipode[0])
        t.antipode = s
        assert check_graded_structure(t).ok

    def test_ideal_quotient_exterior_line(self):
        # q = -1: (x^2) is a biideal, quotient has dims 1,1,0,0
        t = build_tensor_hopf(braided_line(MINUS_ONE, ONE), "shuffle_coproduct", 3)
        projs = ideal_quotient(t, Matrix.identity(1), 2)
        assert [(p.rows, p.cols) for p in projs] == [(1, 1), (1, 1), (0, 1), (0, 1)]
        assert projs[:2] == [Matrix.identity(1)] * 2

    def test_ideal_quotient_rejects_non_coideal(self):
        # q = 1: Delta(x^2) has the cross term 2 x(x)x, so (x^2) is not a
        # coideal and the quotient must be rejected
        t = build_tensor_hopf(braided_line(ONE, ONE), "shuffle_coproduct", 3)
        with pytest.raises(NotABiIdeal):
            ideal_quotient(t, Matrix.identity(1), 2)

    def _sub_with_dropped_antipode(self):
        # T(V) for the plain swap on V = k^2 with S_1 replaced by the swap of
        # the two coordinates: mult and comult restrict to k (+) k e_0, but S_1
        # moves e_0 out of it
        t = build_tensor_hopf(swap_space(2), "shuffle_coproduct", 1)
        t.antipode[1] = Matrix(2, 2, [0, 1, 1, 0])
        return sub_bialgebra(t, [Matrix.identity(1), Matrix(2, 1, [1, 0])])

    def test_transport_drops_an_antipode_that_leaves_the_image(self):
        sub = self._sub_with_dropped_antipode()
        assert sub.antipode is None
        assert sub.dims == (1, 1)

    def test_missing_antipode_has_witness(self):
        # every other law holds on the sub-bialgebra
        report = check_graded_structure(self._sub_with_dropped_antipode())
        assert report.failed == ["antipode"] and report.first["antipode"] == ("missing",)

    def test_ideal_of_no_generator_is_zero(self):
        # a generator with no columns spans the zero ideal in every degree
        t = build_tensor_hopf(swap_space(2), "shuffle_coproduct", 2)
        projs = ideal_quotient(t, Matrix.zero(4, 0), 2)
        assert projs == [Matrix.identity(1), Matrix.identity(2), Matrix.identity(4)]

    def test_ideal_above_the_truncation_is_zero(self):
        # an ideal generated in degree 2 is zero up to N = 1: nothing is
        # factored, and the projections are the identities
        t = build_tensor_hopf(swap_space(2), "shuffle_coproduct", 1)
        assert ideal_quotient(t, Matrix.identity(4), 2) == [Matrix.identity(1), Matrix.identity(2)]


# --- the axiom checks against the full check, every law on every block


def reference_check(b):
    """The full check, which reads each law on every degree block and every
    column, each failure witnessed by its first block, in the order
    check_graded_structure records them.  Whiskers are applied by
    kron_apply/compose_kron and each bialgebra term by braided_product, each
    checked against the materialized Kronecker product in test_matrix."""
    checks = Checks()
    record = checks.record
    N, eye = b.N, b.eye
    for k in range(N + 1):
        for l in range(N + 1 - k):
            for m in range(N + 1 - k - l):
                lhs = compose_kron(b.m(k + l, m), b.m(k, l), eye(m))
                rhs = compose_kron(b.m(k, l + m), eye(k), b.m(l, m))
                record("associativity", None if lhs == rhs else (k, l, m))
    for n in range(N + 1):
        ok = (compose_kron(b.m(0, n), b.unit, eye(n)) == eye(n)
              and compose_kron(b.m(n, 0), eye(n), b.unit) == eye(n))
        record("unit", None if ok else (n,))
    for k in range(N + 1):
        for l in range(N + 1 - k):
            for m in range(N + 1 - k - l):
                lhs = kron_apply(b.cm(k, l), eye(m), b.cm(k + l, m))
                rhs = kron_apply(eye(k), b.cm(l, m), b.cm(k, l + m))
                record("coassociativity", None if lhs == rhs else (k, l, m))
    for n in range(N + 1):
        ok = (kron_apply(b.counit, eye(n), b.cm(0, n)) == eye(n)
              and kron_apply(eye(n), b.counit, b.cm(n, 0)) == eye(n))
        record("counit", None if ok else (n,))
    for n in range(N + 1):
        for k in range(n + 1):
            l = n - k
            for p in range(n + 1):
                q = n - p
                lhs = b.cm(k, l).compose(b.m(p, q))
                rhs = Matrix.zero(lhs.rows, lhs.cols)
                for a in range(max(0, k - q), min(p, k) + 1):
                    bb, c, d = p - a, k - a, q - (k - a)
                    rhs = rhs + braided_product(
                        b.m(a, c), b.m(bb, d), b.braid(bb, c), b.cm(a, bb), b.cm(c, d),
                        (b.dims[a], b.dims[bb], b.dims[c], b.dims[d]))
                record("bialgebra", None if lhs == rhs else (k, l, p, q))
    ok = (b.counit.compose(b.m(0, 0)) == kron(b.counit, b.counit)
          and b.cm(0, 0).compose(b.unit) == kron(b.unit, b.unit)
          and b.counit.compose(b.unit) == Matrix.identity(1))
    record("unit_counit_compat", None if ok else (0,))
    if b.antipode is None:
        record("antipode", ("missing",))
    else:
        eta_eps = b.unit.compose(b.counit)
        for n in range(N + 1):
            left = right = Matrix.zero(b.dims[n], b.dims[n])
            for k in range(n + 1):
                l = n - k
                left = left + b.m(k, l).compose(kron_apply(b.antipode[k], eye(l), b.cm(k, l)))
                right = right + b.m(k, l).compose(kron_apply(eye(k), b.antipode[l], b.cm(k, l)))
            expect = eta_eps if n == 0 else Matrix.zero(b.dims[n], b.dims[n])
            record("antipode", None if left == expect and right == expect else (n,))
    d = b.differential
    if d is None:
        return checks
    for n in range(N - 1):
        record("d_squared", None if d[n + 1].compose(d[n]).is_zero else (n,))
    for k in range(N):
        for l in range(N - k):
            lhs = d[k + l].compose(b.m(k, l))
            sign = ONE if k % 2 == 0 else MINUS_ONE
            rhs = (compose_kron(b.m(k + 1, l), d[k], eye(l))
                   + compose_kron(b.m(k, l + 1), eye(k), d[l]).scale(sign))
            record("leibniz", None if lhs == rhs else (k, l))
    for n in range(N):
        for k in range(n + 2):
            l = n + 1 - k
            lhs = b.cm(k, l).compose(d[n])
            rhs = Matrix.zero(lhs.rows, lhs.cols)
            if k >= 1:
                rhs = rhs + kron_apply(d[k - 1], eye(l), b.cm(k - 1, l))
            if l >= 1:
                sign = ONE if k % 2 == 0 else MINUS_ONE
                rhs = rhs + kron_apply(eye(k), d[l - 1], b.cm(k, l - 1)).scale(sign)
            record("comult_diff", None if lhs == rhs else (k, l))
    if b.antipode is not None:
        for n in range(N):
            ok = b.antipode[n + 1].compose(d[n]) == d[n].compose(b.antipode[n])
            record("antipode_diff", None if ok else (n,))
    return checks


def assert_is_reference(report, b, label=None):
    """The reference's names in its order, its verdicts and its witnesses."""
    assert list(report.first.items()) == list(reference_check(b).first.items()), label


def _bump(m):
    """m with ONE added to its last entry."""
    out = m + Matrix.zero(m.rows, m.cols)
    out[m.rows - 1, m.cols - 1] = out[m.rows - 1, m.cols - 1] + ONE
    return out


def _replaced(b, part, key, block):
    """A copy of b with block `key` of `part` (mult, comult, antipode or
    differential) replaced."""
    legs = {"mult": dict(b.mult), "comult": dict(b.comult),
            "antipode": b.antipode and list(b.antipode),
            "differential": b.differential and list(b.differential)}
    legs[part][key] = block
    return GradedBialgebra(b.dims, legs["mult"], b.unit, legs["comult"], b.counit, b.swap,
                           b.lam, antipode=legs["antipode"], differential=legs["differential"])


def _corrupt(b, part):
    """A copy of b with one degree-1 block of `part` changed; part None
    changes nothing."""
    if part == "braid":
        def swap(k, l, inner=b.swap):
            # swap None is the plain flip
            plain = swap_matrix(b.dims[k], b.dims[l]) if inner is None else inner(k, l)
            return _bump(plain) if (k, l) == (1, 1) else plain

        return GradedBialgebra(b.dims, b.mult, b.unit, b.comult, b.counit, swap, b.lam,
                               antipode=b.antipode, differential=b.differential)
    if part is None:
        return _replaced(b, "mult", (0, 0), b.m(0, 0))
    key = {"mult": (1, 1), "comult": (1, 1), "antipode": 1, "differential": 0}[part]
    legs = {"mult": b.mult, "comult": b.comult, "antipode": b.antipode,
            "differential": b.differential}
    return _replaced(b, part, key, _bump(legs[part][key]))


@pytest.fixture(scope="module", params=["kz3", "sweedler"])
def exterior(request):
    h = io.hopf_from_obj(io.load_json(io.bundled_path(request.param)))
    return exterior_calculus(universal_fodc(h), 2)


class TestChecksAgainstReference:
    @pytest.mark.parametrize("part", [None, "mult", "comult", "braid", "antipode", "differential"])
    def test_same_verdicts_and_witnesses(self, exterior, part):
        b = exterior if part is None else _corrupt(exterior, part)
        report = check_graded_structure(b)
        assert_is_reference(report, b)
        assert report.ok == (part is None)

    @pytest.mark.parametrize("block", [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0)])
    def test_one_corrupted_comult_entry(self, exterior, block):
        # one entry changed in one comult block: every check that sees it
        # must fail, at the reference's first failing block
        comult = dict(exterior.comult)
        comult[block] = _bump(comult[block])
        b = GradedBialgebra(exterior.dims, exterior.mult, exterior.unit, comult,
                            exterior.counit, exterior.swap, exterior.lam,
                            antipode=exterior.antipode, differential=exterior.differential)
        report = check_graded_structure(b)
        assert_is_reference(report, b)
        assert not report.ok


# the four bundled calculi, each at the largest degree N <= 3 that keeps the
# sweep within seconds; both routes build equal blocks on each, so the
# biproduct covers both
SWEEP = {"kz2_universal_calculus": 3, "kz3_universal_calculus": 3,
         "sweedler_universal_calculus": 2, "taft3_quotient_calculus": 2}


@pytest.fixture(scope="module", params=sorted(SWEEP))
def swept(request):
    path = io.bundled_path(request.param)
    calc = io.calculus_from_obj(io.load_json(path), path.parent)
    b = exterior_calculus(calc, SWEEP[request.param])
    assert exterior_calculus_via_comma(calc, b.N).blocks() == b.blocks()
    return b


def _mutants(b, part):
    """(block, how, mutant) for each nonempty block of `part`: its first
    nonzero entry, (0, 0) in a zero block, raised by 1 and, separately,
    zeroed, when that changes it."""
    legs = {"mult": b.mult, "comult": b.comult, "antipode": dict(enumerate(b.antipode)),
            "differential": dict(enumerate(b.differential))}
    for key, m in legs[part].items():
        if not (m.rows and m.cols):
            continue
        (r, c), v = next(m.nonzeros(), ((0, 0), ZERO))
        for how, new in (("raised", v + ONE), ("zeroed", ZERO)):
            if new != v:
                changed = m + Matrix.zero(m.rows, m.cols)
                changed[r, c] = new
                yield key, how, _replaced(b, part, key, changed)


@pytest.mark.parametrize("part", ["mult", "comult", "antipode", "differential"])
def test_corruption_sweep(swept, part):
    # every mutant gets the full check's report, witnesses included
    mutants = list(_mutants(swept, part))
    assert mutants
    for key, how, b in mutants:
        assert_is_reference(check_graded_structure(b), b, (part, key, how))


@pytest.fixture(scope="module", params=sorted(SWEEP))
def routes(request):
    """A bundled calculus's algebras at N = 1 and 2, on both routes."""
    path = io.bundled_path(request.param)
    calc = io.calculus_from_obj(io.load_json(path), path.parent)
    return [build(calc, N) for N in (1, 2)
            for build in (exterior_calculus, exterior_calculus_via_comma)]


def _uncertified(monkeypatch, algebras):
    """The reports of check_graded_structure on algebras, and then the same
    with generator_certificate returning None, so every law reads every block."""
    reports = [check_graded_structure(b).to_obj() for b in algebras]
    monkeypatch.setattr(graded, "generator_certificate", lambda b: None)
    return reports, [check_graded_structure(b).to_obj() for b in algebras]


def test_path_independence(routes, monkeypatch):
    certified, uncertified = _uncertified(monkeypatch, routes)
    assert certified == uncertified


@pytest.mark.parametrize("part", ["mult", "comult", "antipode", "differential"])
def test_path_independence_on_mutants(swept, monkeypatch, part):
    certified, uncertified = _uncertified(monkeypatch, [b for *_, b in _mutants(swept, part)])
    assert certified == uncertified


def _theta(b, c):
    """b with S replaced by S o theta_c, theta_c = c^n on B_n: still braided
    anti-multiplicative, but no antipode once c != 1."""
    return GradedBialgebra(b.dims, b.mult, b.unit, b.comult, b.counit, b.swap, b.lam,
                           antipode=[s.scale(c ** n) for n, s in enumerate(b.antipode)],
                           differential=b.differential)


def _on_unit_column(b, part, delta):
    """b with block 0 of `part` (antipode or differential) changed by delta
    on the unit column only, so that S(1) or d(1) moves by delta."""
    legs = {"antipode": b.antipode, "differential": b.differential}
    return _replaced(b, part, 0, legs[part][0] + delta.compose(b.unit.transpose()))


# the passes of check_graded_structure: the generators alone on a clean
# algebra, the generators and then every block when a law fails behind a
# holding gate, and every block alone when the gate fails
GENERATORS, BOTH, FULL = ("generators",), ("generators", "full"), ("full",)

RESTRICTED_FAILURES = {
    # case: (mutant, its passes, name -> its witness)
    "S theta_-1": (lambda b: _theta(b, MINUS_ONE), BOTH, {"antipode": (1,)}),
    "S theta_2": (lambda b: _theta(b, Scalar.rational(2)), BOTH, {"antipode": (1,)}),
    # S(1) != 1 fails the empty word's condition S_0 o eta = eta, so the gate fails
    "S_0 on the unit": (lambda b: _on_unit_column(b, "antipode", b.unit), FULL,
                        {"antipode": (0,)}),
    # d(1) != 0 fails the empty word's condition d_0 o eta = 0, so the gate fails
    "d_0 on the unit": (lambda b: _on_unit_column(b, "differential", b.eye(1).col(0)),
                        FULL, {"leibniz": (0, 0)}),
}


@pytest.mark.parametrize("case", sorted(RESTRICTED_FAILURES))
def test_restricted_failures(swept, kron_applies, case):
    # faults that the generator reads must catch: S o theta_c passes the
    # anti-multiplicativity guard and fails the antipode law on G_1;
    # S(1) != 1 and d(1) != 0 fail the gate on the empty word
    mutate, passes, witnesses = RESTRICTED_FAILURES[case]
    b = mutate(swept)
    report = check_graded_structure(b)
    assert len(kron_applies) == _kron_apply_calls(b, passes)
    assert_is_reference(report, b, case)
    for name, witness in witnesses.items():
        assert report.first[name] == witness, (case, name)


def _line(s0=ONE, d0=ZERO, N=1):
    """k[x]/(x^2) up to degree N <= 1, x primitive and odd, S(x) = -x, with
    S(1) = s0 and d(1) = d0 x: B_0 = k, so G_0 is empty."""
    one = Matrix.identity(1)
    blocks = {(0, 0): one, (0, 1): one, (1, 0): one} if N else {(0, 0): one}
    return GradedBialgebra((1,) * (N + 1), blocks, one, dict(blocks), one, None, MINUS_ONE,
                           antipode=[Matrix(1, 1, [s0]), -one][:N + 1],
                           differential=[Matrix(1, 1, [d0])] if N else None)


@pytest.mark.parametrize("b, name", [(_line(s0=Scalar.rational(2), N=0), "antipode"),
                                     (_line(d0=ONE), "leibniz")], ids=["S(1) = 2", "d(1) = x"])
def test_unit_column(b, name):
    # G_0 is empty and no law on G_1 sees S(1) or d(1): the gate's
    # conditions on the empty word send them to the full check
    assert generator_certificate(b)[0][0].cols == 0
    assert check_graded_structure(_line(N=b.N)).ok
    report = check_graded_structure(b)
    assert name in report.failed
    assert_is_reference(report, b)


def _tops(b, passes):
    """For each pass, the degree below which it reads G_p: 2 on generators
    (1 when N = 0), N + 1 on every block."""
    return [min(2, b.N + 1) if pass_ == "generators" else b.N + 1 for pass_ in passes]


def _bialgebra_terms(b, passes):
    """The braided_product calls of check_graded_structure on b."""
    N = b.N
    return sum(min(p, k) + 1 - max(0, p - (n - k)) for top in _tops(b, passes)
               for n in range(N + 1) for k in range(n + 1) for p in range(min(n + 1, top)))


@pytest.fixture
def terms(monkeypatch):
    """The braided_product calls of check_graded_structure from now on."""
    calls = []
    real = graded.braided_product

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(graded, "braided_product", counting)
    return calls


@pytest.fixture
def kron_applies(monkeypatch):
    """The number of kron_apply calls of check_graded_structure from now on."""
    calls = []
    real = graded.kron_apply

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(graded, "kron_apply", counting)
    return calls


def _kron_apply_calls(b, passes):
    """The kron_apply calls of check_graded_structure on b: coassociativity
    and the counit, the antipode and comult_diff, in each pass."""
    calls = 0
    for top in _tops(b, passes):
        calls += sum((n + 1) * (n + 2) + 2 for n in range(top))
        if b.antipode is not None:
            calls += sum(2 * (n + 1) for n in range(top))
        if b.differential is not None:
            calls += sum(2 * (n + 1) for n in range(min(top, b.N)))
    return calls


class TestGeneratorCertificate:
    """Every law is read on G_0 and G_1 when the one gate holds, and that
    verdict stands when every law passes; otherwise every law is read on
    every block."""

    def test_certified_laws_read_generators_only(self, exterior, terms, kron_applies):
        gens, _ = generator_certificate(exterior)
        assert sorted(gens) == [0, 1] and gens[1].cols < exterior.dims[1]
        assert check_graded_structure(exterior).ok
        assert len(terms) == _bialgebra_terms(exterior, GENERATORS)
        assert 0 < len(terms) < _bialgebra_terms(exterior, FULL)
        assert len(kron_applies) == _kron_apply_calls(exterior, GENERATORS)

    def test_not_generated_in_degree_1(self, exterior, terms):
        # B_1 B_1 = 0, so G_1 does not generate B_2: every law reads every block
        b = _replaced(exterior, "mult", (1, 1), Matrix.zero(exterior.dims[2],
                                                             exterior.dims[1] ** 2))
        assert generator_certificate(b) is None
        report = check_graded_structure(b)
        assert len(terms) == _bialgebra_terms(b, FULL) and not report.ok
        assert_is_reference(report, b)

    def test_tensor_hopf_braid_is_not_a_flip(self, terms):
        # T(X) is generated in degree 1, but its braiding is no flip, so
        # B (x) B is not known to be an algebra: every law reads every block
        x = io.braiding_from_obj(io.load_json(io.bundled_path("diagonal_zeta5")))
        t = build_tensor_hopf(x, "shuffle_coproduct", 3)
        b = _replaced(t, "comult", (1, 1), _bump(t.cm(1, 1)))
        assert generator_certificate(b) is not None
        report = check_graded_structure(b)
        assert len(terms) == _bialgebra_terms(b, FULL) and report.first["bialgebra"] is not None
        assert_is_reference(report, b)

    def test_broken_associativity(self, exterior, terms):
        # the gate holds, and associativity fails on generators: every law
        # is then read again on every block
        b = _corrupt(exterior, "mult")
        assert generator_certificate(b) is not None
        report = check_graded_structure(b)
        assert report.first["associativity"] is not None
        assert len(terms) == _bialgebra_terms(b, BOTH)
        assert_is_reference(report, b)

    @pytest.mark.parametrize("part, full", [
        # the gate holds, and a law that reads Delta fails on generators
        ("comult", BOTH),
        # S is not braided anti-multiplicative: the gate fails
        ("antipode", FULL),
        # the gate holds, and a law that reads d fails on generators
        ("differential", BOTH)])
    def test_fallback(self, exterior, kron_applies, part, full):
        # `full`: the passes, each case ending in the one that reads every block
        b = _corrupt(exterior, part)
        report = check_graded_structure(b)
        assert len(kron_applies) == _kron_apply_calls(b, full)
        assert_is_reference(report, b)

    def test_tensor_hopf_fallback(self, kron_applies):
        # T(X) at lambda = -1 with d = 0: its braid is no flip, so the gate
        # fails and every law reads every block
        x = io.braiding_from_obj(io.load_json(io.bundled_path("diagonal_zeta5")))
        t = build_tensor_hopf(BraidedSpace(x.dim, x.psi, MINUS_ONE), "shuffle_coproduct", 3)
        zero = [Matrix.zero(t.dims[n + 1], t.dims[n]) for n in range(t.N)]
        b = GradedBialgebra(t.dims, t.mult, t.unit, t.comult, t.counit, t.swap, t.lam,
                            antipode=t.antipode, differential=zero)
        assert check_graded_structure(b).ok
        b = _replaced(b, "antipode", 1, _bump(t.antipode[1]))
        kron_applies.clear()
        report = check_graded_structure(b)
        assert len(kron_applies) == _kron_apply_calls(b, FULL)
        assert report.first["antipode"] is not None
        assert_is_reference(report, b)

    def test_flip_is_read_from_the_blocks(self, exterior, kron_applies):
        # a swap callable that gives the plain flip makes the same blocks as
        # swap None, and so the same report; the gate reads the flip from
        # swap None alone, so only None reads generators
        for b, passes in ((exterior, GENERATORS), (_corrupt(exterior, "comult"), BOTH)):
            flip = GradedBialgebra(b.dims, b.mult, b.unit, b.comult, b.counit,
                                   lambda k, l: swap_matrix(b.dims[k], b.dims[l]), b.lam,
                                   antipode=b.antipode, differential=b.differential)
            assert flip.blocks() == b.blocks()
            kron_applies.clear()
            report = check_graded_structure(b)
            assert len(kron_applies) == _kron_apply_calls(b, passes)
            kron_applies.clear()
            assert check_graded_structure(flip).first == report.first
            assert len(kron_applies) == _kron_apply_calls(flip, FULL)

    def test_span_closure_runs_once_per_g0_member(self, monkeypatch):
        # under the unit law e_i joins G_0 exactly when it lies outside the
        # span so far, so the span is closed once per member, not once per e_i
        calls = []
        real = graded.span_closure
        monkeypatch.setattr(graded, "span_closure", lambda *a: calls.append(1) or real(*a))
        path = io.bundled_path("sweedler_universal_calculus")
        b = exterior_calculus(io.calculus_from_obj(io.load_json(path), path.parent), 2)
        gens, _ = generator_certificate(b)
        assert len(calls) == gens[0].cols == 2 < b.dims[0]

    def test_same_g0_as_the_greedy_fixed_point(self, routes):
        # G_0 from span_closure equals G_0 from the naive fixed-point loop
        for b in routes:
            g0 = generator_certificate(b)[0][0]
            assert [r for (r, _), _ in g0.nonzeros()] == _greedy_g0(b)


def _unit_law(b):
    return all(compose_kron(b.m(0, n), b.unit, b.eye(n)) == b.eye(n)
               and compose_kron(b.m(n, 0), b.eye(n), b.unit) == b.eye(n)
               for n in range(b.N + 1))


def _words(b, g0):
    """The span of the words in the basis vectors g0 of B_0, spun from the
    unit by left multiplication until it stops growing."""
    lefts = [compose_kron(b.m(0, 0), b.eye(0).col(i), b.eye(0)) for i in g0]
    span = b.unit.column_echelon_basis()[0]
    while True:
        grown = hstack([span] + [op.compose(span) for op in lefts]).column_echelon_basis()[0]
        if grown.cols == span.cols:
            return span
        span = grown


@pytest.mark.parametrize("part", [None, "mult", "comult", "antipode", "differential"])
def test_unit_law_gives_b0_and_b1(swept, part):
    # what generator_certificate takes from the unit law, which the gate
    # holds before it: the words in G_0 span B_0, and m(0,1) is onto B_1
    algebras = [swept] if part is None else [b for *_, b in _mutants(swept, part)]
    held = [b for b in algebras if _unit_law(b)]
    assert held or part == "mult"  # a mult mutant may break the unit law
    for b in held:
        assert b.m(0, 1).rank() == b.dims[1]
        cert = generator_certificate(b)
        if cert is not None:
            g0 = [r for (r, _), _ in cert[0][0].nonzeros()]
            assert _words(b, g0).cols == b.dims[0]


def _greedy_g0(b):
    """G_0 by the naive loop: e_i, in index order, joins G_0 when it grows
    the span of the unit closed under left multiplication by G_0 and e_i,
    every operator applied to the whole span until it stops growing."""
    g0, span = [], _words(b, [])
    for i in range(b.dims[0]):
        grown = _words(b, g0 + [i])
        if grown.cols > span.cols:
            g0.append(i)
            span = grown
    return g0


class TestBlocks:
    """blocks() is what decides whether an algebra's checks may be reused."""

    def test_a_copy_compares_equal(self, exterior):
        assert _corrupt(exterior, None).blocks() == exterior.blocks()

    @pytest.mark.parametrize("part", ["mult", "comult", "braid", "antipode", "differential"])
    def test_one_changed_block_compares_unequal(self, exterior, part):
        assert _corrupt(exterior, part).blocks() != exterior.blocks()

    def test_lambda_alone_compares_unequal(self):
        t = build_tensor_hopf(braided_line(Scalar.zeta(3)), "shuffle_coproduct", 2)

        def with_lam(lam):
            return GradedBialgebra(t.dims, t.mult, t.unit, t.comult, t.counit, t.swap, lam,
                                   antipode=t.antipode)

        assert with_lam(t.lam).blocks() == t.blocks()
        assert with_lam(Scalar.zeta(3)).blocks() != t.blocks()


# bundled spaces at a lambda outside {1, -1}, with a degree N at which some
# braided factorial [n]!, n <= N, has a kernel: lam psi = -zeta_3^2 has order 6
# on the line, and the diagonal's lam q_ii = zeta_5^2 has order 5
GENERIC = {"braided_line_zeta3": (Scalar.zeta(3), 6), "diagonal_zeta5": (Scalar.zeta(5), 5)}


@pytest.fixture(scope="module", params=sorted(GENERIC))
def generic(request):
    lam, N = GENERIC[request.param]
    x = io.braiding_from_obj(io.load_json(io.bundled_path(request.param)))
    return BraidedSpace(x.dim, x.psi, lam), N


def _pairs(N):
    return [(k, l) for k in range(N + 1) for l in range(N + 1 - k)]


class TestBraidBlocks:
    """GradedBialgebra weights the unweighted swap by lam^(kl) in braid(k, l);
    a transported algebra's blocks are the transported weighted blocks."""

    @pytest.mark.parametrize("variant", ["shuffle_coproduct", "shuffle_product"])
    def test_tensor_hopf(self, generic, variant):
        x, N = generic
        t = build_tensor_hopf(x, variant, N)
        for k, l in _pairs(N):
            assert t.braid(k, l) == x.rep(block_swap(k, l)).scale(x.lam ** (k * l)), (k, l)

    def test_sub_bialgebra(self, generic):
        # the powers of the first basis vector span a sub-bialgebra of T(X),
        # since the braiding is diagonal
        x, N = generic
        t = build_tensor_hopf(x, "shuffle_coproduct", N)
        incl = [Matrix.identity(x.dim**n).col(0) for n in range(N + 1)]
        sub = sub_bialgebra(t, incl)
        assert sub.lam == x.lam and sub.dims == (1,) * (N + 1)
        for k, l in _pairs(N):
            expected = restrict(t.braid(k, l), [incl[k], incl[l]], [incl[l], incl[k]])
            assert sub.braid(k, l) == expected, (k, l)


def _triple_block(b):
    """The largest dimension of a triple tensor block B_k (x) B_l (x) B_m."""
    N = b.N
    return max(b.dims[k] * b.dims[l] * b.dims[m]
               for k in range(N + 1) for l in range(N + 1 - k) for m in range(N + 1 - k - l))


def test_checks_build_no_matrix_beyond_a_triple_block(exterior, built_sizes):
    # the braid blocks are construction; the check itself must not build a
    # whisker or a Kronecker product of two comult blocks (2304 rows on sweedler)
    for k in range(exterior.N + 1):
        for l in range(exterior.N + 1 - k):
            exterior.braid(k, l)
    built_sizes.clear()
    assert check_graded_structure(exterior).ok
    assert built_sizes and max(built_sizes) <= _triple_block(exterior)
