"""Degree-truncated graded bialgebras, their axiom checks, the transport of
structure to graded sub-bialgebras, and the projections onto the quotient by
a generated bi-ideal.

All graded objects are truncated at an explicit max degree N; every axiom is
checked blockwise for total degree <= N.  A GradedBialgebra carries its own
unweighted swap blocks s(k,l): B_k @ B_l -> B_l @ B_k and its lambda, and
weights them once, in braid(k, l) = lambda^(kl) s(k,l): the graded braiding
of the ambient category, which is what the bialgebra axiom is checked
against.  swap=None means s(k,l) is the plain flip of the base category,
as for a biproduct; a sub-bialgebra of such an algebra has the flip as its
swap too, since the flip is natural, so its swap is never solved for.  It
may also carry an antipode S_0 ... S_N and a differential
d_0 ... d_(N-1), d_n: B_n -> B_(n+1); the checks and the transport read both
from the algebra itself.  The laws are read on certified algebra
generators in degrees 0 and 1 when one gate holds and they all pass there,
and on every block otherwise.
"""

from __future__ import annotations

from .checks import Checks
from .cyclotomic import MINUS_ONE, ONE, ZERO, Scalar
from .errors import (
    FactorizationError,
    IncompatibleBraiding,
    InvalidBaseHopf,
    NotABiIdeal,
    ShapeError,
)
from .matrix import (
    Matrix,
    braided_product,
    compose_kron,
    hstack,
    kron,
    kron_apply,
    restrict,
    span_closure,
    swap_matrix,
)


class GradedBialgebra:
    """Blockwise graded bialgebra data, optionally Hopf and differential;
    swap maps (k, l) to the unweighted block s(k,l), or is None for the flip."""

    def __init__(self, dims, mult, unit, comult, counit, swap, lam,
                 antipode=None, differential=None):
        self.dims = tuple(int(d) for d in dims)
        self.N = len(self.dims) - 1
        if any(d < 0 for d in self.dims):
            raise ShapeError("negative dimension")
        self.mult = dict(mult)
        self.unit = unit
        self.comult = dict(comult)
        self.counit = counit
        self.swap = swap
        self._braid_memo = {}
        self.antipode = list(antipode) if antipode is not None else None
        self.differential = list(differential) if differential is not None else None
        self.lam = Scalar._coerce(lam)
        for (k, l), m in self.mult.items():
            if m.rows != self.dims[k + l] or m.cols != self.dims[k] * self.dims[l]:
                raise ShapeError(f"mult block ({k},{l}) shape")
        for (k, l), c in self.comult.items():
            if c.cols != self.dims[k + l] or c.rows != self.dims[k] * self.dims[l]:
                raise ShapeError(f"comult block ({k},{l}) shape")
        self.require_lambda()

    def require_lambda(self):
        """IncompatibleBraiding when a differential is carried with lambda !=
        -1: the differential laws read the lambda = -1 signs."""
        if self.differential is not None and self.lam != MINUS_ONE:
            raise IncompatibleBraiding("differentials force lambda = -1")

    def m(self, k, l):
        return self.mult[(k, l)]

    def cm(self, k, l):
        return self.comult[(k, l)]

    def braid(self, k, l):
        """lam^(kl) * swap(k, l), the swap itself when the weight is 1."""
        if (k, l) not in self._braid_memo:
            m = swap_matrix(self.dims[k], self.dims[l]) if self.swap is None else self.swap(k, l)
            w = self.lam ** (k * l)
            self._braid_memo[(k, l)] = m if w == 1 else m.scale(w)
        return self._braid_memo[(k, l)]

    def eye(self, n):
        return Matrix.identity(self.dims[n])

    def blocks(self) -> dict:
        """Every block check_graded_structure reads, the braid blocks (k, l)
        with k + l <= N among them.  Two algebras whose blocks compare equal
        get the same verdicts and witnesses.  The result holds matrices only,
        not the algebra or its swap callable (the weighted flips for None)."""
        N = self.N
        return {
            "dims": self.dims,
            "lam": self.lam,
            "unit": self.unit,
            "counit": self.counit,
            "mult": dict(self.mult),
            "comult": dict(self.comult),
            "antipode": None if self.antipode is None else tuple(self.antipode),
            "differential": None if self.differential is None else tuple(self.differential),
            "braid": {(k, l): self.braid(k, l) for k in range(N + 1) for l in range(N + 1 - k)},
        }


def generator_certificate(b: GradedBialgebra) -> tuple | None:
    """(gens, whiskers) when basis vectors G_0, G_1, picked greedily in index
    order, provably generate b, for b with the unit law.  e_i joins G_0 when
    it lies outside the span_closure of the unit under left multiplication by
    the G_0 before it; e_i = e_i 1 then joins the span, so the words in G_0
    span B_0.  G_1 is every e_j that adds rank to m(0,1) on B_0 (x) e_j' for
    the e_j' before it; m(0,1) o (eta (x) id) = id, so B_0 G_1 = B_1.  The
    one failure left is m(1,n-1)(G_1 (x) B_(n-1)) != B_n for some 2 <= n <= N,
    read as a rank, and then the result is None.  gens is {0: G_0, 1: G_1}
    as column selections, and whiskers maps each (p, q) with p in gens and
    p + q <= N to W(p,q) = m(p,q) o (G_p (x) id), which the checks read."""
    dims, eye = b.dims, b.eye
    g0, span = [], b.unit.column_echelon_basis()[0]
    for i in range(dims[0]):
        grown = hstack([span, eye(0).col(i)])
        if grown.rank() > span.cols:
            g0.append(i)
            left = _columns(dims[0], g0)
            span = span_closure(lambda v: compose_kron(b.m(0, 0), left, v), grown)
    gens = {0: _columns(dims[0], g0)}
    if b.N >= 1:
        # the leftmost pivots of m(0,1) with its columns ordered (B_1, B_0)
        pivots = b.m(0, 1).compose(swap_matrix(dims[1], dims[0])).rref()[1]
        gens[1] = _columns(dims[1], sorted({c // dims[0] for c in pivots}))
    whiskers = {(p, q): compose_kron(b.m(p, q), g, eye(q))
                for p, g in gens.items() for q in range(b.N + 1 - p)}
    if any(whiskers[1, n - 1].rank() < dims[n] for n in range(2, b.N + 1)):
        return None
    return gens, whiskers


def _columns(d, idx):
    """The basis vectors idx of a d-dimensional space as columns."""
    return Matrix(d, len(idx), [ONE if r == i else ZERO for r in range(d) for i in idx])


def check_graded_structure(b: GradedBialgebra) -> Checks:
    """Blockwise axiom checks: the algebra, coalgebra, bialgebra and antipode
    laws always (the antipode fails with the witness ("missing",) when b has
    none), and the differential laws exactly when b carries a differential.

    A law whose two sides are algebra maps, derivations or anti-algebra maps
    holds everywhere once it holds on algebra generators (Kassel, Quantum
    Groups, ch. III; Majid, Foundations of Quantum Group Theory, ch. 9-10),
    given the laws recorded before it.  So one gate is decided before any
    law is read: the unit law, unit_counit_compat, b.swap is None (every
    braid block the lambda^(kl)-weighted flip), the empty word (S_0 o eta =
    eta, and d_0 o eta = 0 with a differential), generator_certificate(b),
    and S braided anti-multiplicative on G_p (x) B_q.  When it holds, every
    law reads p in {0,1} only, on the columns G_p, and that verdict is
    returned when every law passes.  Otherwise the same
    laws read every block (G_p = B_p), so every report is the full check's.

    Whiskers such as m o (f (x) id) are applied with kron_apply and
    compose_kron, and each bialgebra term with braided_product, never built;
    each W(p,q) = m(p,q) o (G_p (x) id) is built once.  A differential
    assigned after construction, as the exterior calculi attach theirs, is
    held to lambda = -1 as in the constructor."""
    b.require_lambda()
    N, eye = b.N, b.eye
    unit = [compose_kron(b.m(0, n), b.unit, eye(n)) == eye(n)
            and compose_kron(b.m(n, 0), eye(n), b.unit) == eye(n) for n in range(N + 1)]
    compat = (b.counit.compose(b.m(0, 0)) == kron(b.counit, b.counit)
              and b.cm(0, 0).compose(b.unit) == kron(b.unit, b.unit)
              and b.counit.compose(b.unit) == Matrix.identity(1))
    s, d = b.antipode, b.differential
    cert = (all(unit) and compat and b.swap is None and s is not None
            and s[0].compose(b.unit) == b.unit  # the empty word: S(1) = 1, d(1) = 0
            and (not d or d[0].compose(b.unit).is_zero) and generator_certificate(b))
    if cert:
        gens, whiskers = cert
        # the antipode guard: S o m(p,q) = m(q,p) o braid(p,q) o (S (x) S) on G_p (x) B_q
        if all(s[p + q].compose(whiskers[p, q])
               == compose_kron(b.m(q, p).compose(b.braid(p, q)), s[p].compose(g), s[q])
               for p, g in gens.items() for q in range(N + 1 - p)):
            images = {(a, p - a): b.cm(a, p - a).compose(g) for p, g in gens.items()
                      for a in range(p + 1)}
            checks = _laws(b, unit, compat, gens, whiskers, images)
            if checks.ok:
                return checks
    return _laws(b, unit, compat, {k: eye(k) for k in range(N + 1)}, b.mult, b.comult)


def _laws(b, unit, compat, cols, w, im) -> Checks:
    """Every law of check_graded_structure, recorded in the full check's
    order, given the unit law per degree and unit_counit_compat, on one set:
    the columns G_p, the whiskers W(p,q) and the images cm(a,c) o G_(a+c)."""
    checks = Checks()
    N, dims, eye = b.N, b.dims, b.eye
    top = len(cols)  # the degrees read are those below top

    # algebra
    for k, g in cols.items():
        for l in range(N + 1 - k):
            for m in range(N + 1 - k - l):
                lhs = compose_kron(b.m(k + l, m), w[k, l], eye(m))
                rhs = compose_kron(b.m(k, l + m), g, b.m(l, m))
                checks.record("associativity", None if lhs == rhs else (k, l, m))
    for n, ok in enumerate(unit):
        checks.record("unit", None if ok else (n,))

    # coalgebra
    for k in range(top):
        for l in range(top - k):
            for m in range(top - k - l):
                lhs = kron_apply(b.cm(k, l), eye(m), im[k + l, m])
                rhs = kron_apply(eye(k), b.cm(l, m), im[k, l + m])
                checks.record("coassociativity", None if lhs == rhs else (k, l, m))
    for n, g in cols.items():
        ok = (kron_apply(b.counit, eye(n), im[0, n]) == g
              and kron_apply(eye(n), b.counit, im[n, 0]) == g)
        checks.record("counit", None if ok else (n,))

    # bialgebra
    for n in range(N + 1):
        for k in range(n + 1):
            l = n - k
            for p in range(min(n + 1, top)):
                q = n - p
                lhs = b.cm(k, l).compose(w[p, q])
                rhs = Matrix.zero(lhs.rows, lhs.cols)
                for a in range(max(0, k - q), min(p, k) + 1):
                    bb, c, d = p - a, k - a, q - (k - a)
                    rhs = rhs + braided_product(
                        b.m(a, c), b.m(bb, d), b.braid(bb, c), im[a, bb], b.cm(c, d),
                        (dims[a], dims[bb], dims[c], dims[d]))
                checks.record("bialgebra", None if lhs == rhs else (k, l, p, q))
    checks.record("unit_counit_compat", None if compat else (0,))

    # antipode
    s = b.antipode
    if s is None:
        checks.record("antipode", ("missing",))
    else:
        eta_eps = b.unit.compose(b.counit)
        for n, g in cols.items():
            left = right = Matrix.zero(dims[n], g.cols)
            for k in range(n + 1):
                l = n - k
                left = left + b.m(k, l).compose(kron_apply(s[k], eye(l), im[k, l]))
                right = right + b.m(k, l).compose(kron_apply(eye(k), s[l], im[k, l]))
            expect = eta_eps.compose(g) if n == 0 else Matrix.zero(dims[n], g.cols)
            checks.record("antipode", None if left == expect and right == expect else (n,))

    # differential
    d = b.differential
    if d is None:
        return checks
    for n in range(N - 1):
        checks.record("d_squared", None if d[n + 1].compose(d[n]).is_zero else (n,))
    for k, g in cols.items():
        sign = ONE if k % 2 == 0 else MINUS_ONE
        for l in range(N - k):
            lhs = d[k + l].compose(w[k, l])
            rhs = (compose_kron(b.m(k + 1, l), d[k].compose(g), eye(l))
                   + compose_kron(b.m(k, l + 1), g, d[l]).scale(sign))
            checks.record("leibniz", None if lhs == rhs else (k, l))
    # lambda = -1 (require_lambda), so d (x) id + (-1)^k id (x) d
    # is a derivation of the braided B (x) B
    for n in range(min(N, top)):
        dg = d[n].compose(cols[n])
        for k in range(n + 2):
            l = n + 1 - k
            lhs = b.cm(k, l).compose(dg)
            rhs = Matrix.zero(lhs.rows, lhs.cols)
            if k >= 1:
                rhs = rhs + kron_apply(d[k - 1], eye(l), im[k - 1, l])
            if l >= 1:
                sign = ONE if k % 2 == 0 else MINUS_ONE
                rhs = rhs + kron_apply(eye(k), d[l - 1], im[k, l - 1]).scale(sign)
            checks.record("comult_diff", None if lhs == rhs else (k, l))
    if s is not None:
        for n in range(N):
            ok = s[n + 1].compose(d[n]) == d[n].compose(s[n])
            checks.record("antipode_diff", None if ok else (n,))
    return checks


def antipode_recursive(b: GradedBialgebra, s0: Matrix) -> list[Matrix]:
    """Per-degree antipode from the degree-0 antipode:
    S_n = -sum_{k=1..n} m(2)_{0,k,n-k} o (S_0 @ id @ S_{n-k}) o cm(2)_{0,k,n-k}."""
    id_d0 = Matrix.identity(b.dims[0])
    eta_eps = b.unit.compose(b.counit)
    conv_l = b.m(0, 0).compose(kron_apply(s0, id_d0, b.cm(0, 0)))
    conv_r = b.m(0, 0).compose(kron_apply(id_d0, s0, b.cm(0, 0)))
    if conv_l != eta_eps or conv_r != eta_eps:
        raise InvalidBaseHopf("S_0 is not an antipode for the degree-0 component")
    s = [s0]
    for n in range(1, b.N + 1):
        total = Matrix.zero(b.dims[n], b.dims[n])
        for k in range(1, n + 1):
            inner = compose_kron(b.m(k, n - k), b.eye(k), s[n - k])
            term = compose_kron(b.m(0, n), s0, inner).compose(
                kron_apply(id_d0, b.cm(k, n - k), b.cm(0, n))
            )
            total = total + term
        s.append(-total)
    return s


def sub_bialgebra(b: GradedBialgebra, incl) -> GradedBialgebra:
    """The graded sub-bialgebra with degree-n inclusion incl[n] (a mono): each
    block f of b from the degrees src to the degrees tgt, b's differential
    among them, becomes the unique g with incl o g = f o incl.
    FactorizationError when a block leaves the image; the antipode is kept
    only when every block of it restricts."""
    def block(f, src, tgt):
        return restrict(f, [incl[n] for n in src], [incl[n] for n in tgt])

    mult = {(k, l): block(m, (k, l), (k + l,)) for (k, l), m in b.mult.items()}
    comult = {(k, l): block(c, (k + l,), (k, l)) for (k, l), c in b.comult.items()}
    antipode = None
    if b.antipode is not None:
        try:
            antipode = [block(s, (n,), (n,)) for n, s in enumerate(b.antipode)]
        except FactorizationError:
            pass
    d = b.differential
    if d is not None:
        d = [block(f, (n,), (n + 1,)) for n, f in enumerate(d)]
    swap = None if b.swap is None else lambda k, l: block(b.swap(k, l), (k, l), (l, k))
    return GradedBialgebra(
        [i.cols for i in incl], mult, block(b.unit, (), (0,)), comult,
        block(b.counit, (0,), ()), swap, b.lam, antipode=antipode, differential=d,
    )


def ideal_quotient(b: GradedBialgebra, f: Matrix, degree: int) -> list[Matrix]:
    """The projections p_n: B_n -> (B/I)_n, n = 0..N, onto the quotient by the
    two-sided graded ideal I generated by f, so (B/I)_n has dimension
    p_n.rows.  Only the projections are built, not the quotient's structure.

    f maps an auxiliary space into component `degree`; above N the ideal is
    zero in every degree, and the projections are the identities.  Raises
    NotABiIdeal when I is not a coideal or the counit does not vanish on it.
    """
    N = b.N
    if degree > N:
        return [b.eye(n) for n in range(N + 1)]
    if f.rows != b.dims[degree]:
        raise ShapeError("generator matrix does not land in the stated degree")
    bases = []
    projs = []
    for n in range(N + 1):
        if n < degree:
            gen = Matrix.zero(b.dims[n], 0)
        else:
            pieces = []
            for a in range(n - degree + 1):
                c = n - degree - a
                left = compose_kron(b.m(a, degree), b.eye(a), f)
                pieces.append(compose_kron(b.m(a + degree, c), left, b.eye(c)))
            gen = hstack(pieces)
        basis, _ = gen.column_echelon_basis()
        bases.append(basis)
        projs.append(basis.cokernel())

    # coideal and counit conditions
    for n in range(N + 1):
        for k in range(n + 1):
            l = n - k
            if not kron_apply(projs[k], projs[l], b.cm(k, l).compose(bases[n])).is_zero:
                raise NotABiIdeal(f"coideal condition fails at degrees ({k},{l})")
    if not b.counit.compose(bases[0]).is_zero:
        raise NotABiIdeal("counit does not vanish on the degree-0 ideal")
    return projs
