"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A Scalar is a vector of rationals over the power basis 1, z, ..., z^(phi(n)-1)
of Q(zeta_n), reduced modulo the n-th cyclotomic polynomial.  Values whose
higher coordinates vanish are stored at conductor 1, so plain rationals stay
cheap, and a conductor-n Scalar with n > 1 is never rational.

A computation inside one field never promotes.  A rational times an element
of Q(zeta_n) scales its coordinates and a rational plus one adds to
coordinate 0.  Only operands at two different conductors above 1 are
promoted, both to the least common conductor m via zeta_n -> zeta_m^(m/n).
Two elements of one field multiply in one kernel: the schoolbook product
into 2 phi(n) - 1 slots, each slot e >= phi(n) then folded onto the basis by
the coordinates of zeta^(e mod n).  A difference is x + (-y).  All
per-conductor state is in _CYCLO_CACHE (Phi_n, built by the pseudo-division
that inversion uses) and _TABLE_CACHE (reduction rows and folds).

Every arithmetic result and every parsed rational passes through one
internal factory, which stores the values 0, 1 and -1 as the shared ZERO,
ONE and MINUS_ONE objects, so that kernels can skip a unit factor with an
identity test.  The Scalar(n, coeffs) constructor reduces arbitrary input
and always builds a new object.

A coordinate is an int when it is integral and a Fraction otherwise, never a
float: every input is canonicalised on entry, and arithmetic results are
canonicalised where a Fraction operand can leave an integral value.  int and
Fraction agree on ==, hash and numerator/denominator, so the representation
never shows in a comparison or a serialized report; it only keeps integral
arithmetic off Fraction.

Division is integral too.  The inverse of a = p / d, with p of integral
coordinates, comes from an integral adjugate: the extended Euclid of
(Phi_n, p) over Z[x] by pseudo-division, each remainder and cofactor divided
by their joint content, ends in s * p = N modulo Phi_n with s integral and N
a nonzero int, so 1/a = d * s / N, and the only rational quotients are the
last phi(n) calls to _div.  A quotient x / a is x times the cleared inverse
s' of integral coordinates, then one exact division of each coordinate by
the int that cleared it (cleared and over); this keeps the product on the
integral path.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .errors import DivisionByZero, TooLarge

_ZERO = 0
_ONE = 1


def _canon(x):
    """The rational x as an int when integral, else as a Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _div(a, b):
    """The exact quotient a / b of rationals (b nonzero), canonicalised."""
    return _canon(Fraction(a, b))


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def euler_phi(n: int) -> int:
    for p in _prime_factors(n):
        n -= n // p
    return n


_CYCLO_CACHE: dict[int, list[int]] = {}

# Largest conductor (including the lcm of mixed conductors) that arithmetic
# accepts; building the reduction table costs O(n * phi(n)).
MAX_CONDUCTOR = 1024


def cyclotomic_polynomial(n: int) -> list[int]:
    """Coefficient list (low to high, monic) of the n-th cyclotomic polynomial.

    Built from Phi_1 = x - 1, Phi_(mp)(x) = Phi_m(x^p) / Phi_m(x) for a prime
    p not dividing m, and Phi_n(x) = Phi_rad(n)(x^(n/rad(n))).  Raises
    TooLarge above MAX_CONDUCTOR."""
    if n in _CYCLO_CACHE:
        return _CYCLO_CACHE[n]
    if n > MAX_CONDUCTOR:
        raise TooLarge(f"conductor {n} exceeds the bound {MAX_CONDUCTOR}")
    primes = _prime_factors(n)
    rad = prod(primes)
    if n == 1:
        poly = [-_ONE, _ONE]
    elif rad < n:
        poly = _substitute_power(cyclotomic_polynomial(rad), n // rad)
    else:
        m = n // primes[-1]
        base = cyclotomic_polynomial(m)
        # Phi_m is monic, so the pseudo-division scales nothing (k = 1)
        k, poly, rem = _pseudo_divmod(_substitute_power(base, primes[-1]), base)
        if k != 1 or any(rem):
            raise ArithmeticError(f"Phi_{m}(x^{primes[-1]}) / Phi_{m} is not exact")
    _CYCLO_CACHE[n] = poly
    return poly


def _substitute_power(poly, k: int) -> list:
    """The coefficients of poly(x^k)."""
    out = [_ZERO] * ((len(poly) - 1) * k + 1)
    out[::k] = poly
    return out


def _mobius(n: int) -> int:
    primes = _prime_factors(n)
    squarefree = all(n % (p * p) for p in primes)
    return (-1) ** len(primes) if squarefree else 0


def _normalized_trace(n: int, i: int) -> Fraction:
    """Tr(zeta_n^i)/phi(n): the Ramanujan sum c_n(i) over phi(n), which is
    mu(m)/phi(m) with m = n/gcd(n, i)."""
    m = n // gcd(n, i)
    return Fraction(_mobius(m), euler_phi(m))


_TABLE_CACHE: dict[int, tuple[int, dict[int, tuple[int, ...]], list]] = {}


def _tables(n: int):
    """(phi(n), rows, folds): rows[e] = coords of zeta^e for phi(n) <= e < n;
    folds[e - phi(n)] = nonzero (index, coord) pairs of zeta^(e mod n), e < 2 phi(n) - 1."""
    if n in _TABLE_CACHE:
        return _TABLE_CACHE[n]
    poly = cyclotomic_polynomial(n)
    phi = len(poly) - 1
    rows: dict[int, tuple[int, ...]] = {}
    # zeta^phi = -(c_0 + c_1 z + ... + c_{phi-1} z^{phi-1})
    cur = [-poly[i] for i in range(phi)]
    rows[phi] = tuple(cur)
    for e in range(phi + 1, n):
        top = cur[-1]
        cur = [_ZERO] + cur[:-1]
        if top:
            base = rows[phi]
            cur = [cur[i] + top * base[i] for i in range(phi)]
        rows[e] = tuple(cur)
    folds = []
    for e in range(phi, 2 * phi - 1):
        e %= n
        folds.append(((e, _ONE),) if e < phi else tuple((k, r) for k, r in enumerate(rows[e]) if r))
    _TABLE_CACHE[n] = (phi, rows, folds)
    return _TABLE_CACHE[n]


def _reduce(n: int, coeffs) -> tuple:
    """Reduce a coefficient list in zeta_n (any length) to the power basis,
    with canonical coordinates."""
    phi, rows, _ = _tables(n)
    out = [_ZERO] * phi
    for e, c in enumerate(coeffs):
        if not c:
            continue
        e %= n
        if e < phi:
            out[e] += c
        else:
            row = rows[e]
            for i in range(phi):
                out[i] += c * row[i]
    return _canonical(out)


def _canonical(coords) -> tuple:
    """The coordinates as a tuple, each integral Fraction as an int."""
    return tuple([c if type(c) is int or c.denominator != 1 else c.numerator for c in coords])


def _product(n: int, a: tuple, b: tuple) -> tuple:
    """Canonical coordinates of the product of two elements of Q(zeta_n),
    given by their phi(n) coordinates: the schoolbook product into
    2 phi(n) - 1 slots, then each slot from phi(n) on folded onto the basis."""
    phi, _, folds = _TABLE_CACHE.get(n) or _tables(n)
    slots = [_ZERO] * (2 * phi - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                if y:
                    slots[k] += x * y
    for e, fold in enumerate(folds, phi):
        c = slots[e]
        if c:
            for k, r in fold:
                slots[k] += c * r
    return _canonical(slots[:phi])


# The factory: every Scalar that arithmetic returns comes from _scalar or
# _rational, without Scalar.__init__'s reduction.
_new = object.__new__


def _stored(n: int, coeffs: tuple) -> "Scalar":
    """A new Scalar of coordinates already in stored form: canonical, and at
    conductor 1 only when rational."""
    s = _new(Scalar)
    s.n, s.c, s.is_zero = n, coeffs, False
    return s


def _rational(v) -> "Scalar":
    """The Scalar of a canonical rational v: ZERO, ONE or MINUS_ONE for 0, 1
    or -1, else a new conductor-1 Scalar."""
    if type(v) is int and -1 <= v <= 1:
        return _UNITS[v]
    return _stored(1, (v,))


def _scalar(n: int, coeffs: tuple) -> "Scalar":
    """The Scalar of canonical coordinates at conductor n, stored at
    conductor 1 when its higher coordinates vanish."""
    if n == 1 or not any(coeffs[1:]):
        return _rational(coeffs[0])
    return _stored(n, coeffs)


class Scalar:
    """An element of Q(zeta_n), immutable."""

    __slots__ = ("n", "c", "is_zero")

    def __init__(self, n: int, coeffs):
        # a new object for any coefficient list; arithmetic uses the factory
        coeffs = _reduce(n, [_canon(x) for x in coeffs])
        if n > 1 and not any(coeffs[1:]):
            n, coeffs = 1, coeffs[:1]
        self.n = n
        self.c = coeffs
        # precomputed: zero tests dominate sparse matrix arithmetic
        self.is_zero = n == 1 and not coeffs[0]

    # --- constructors -----------------------------------------------------

    @staticmethod
    def rational(p, q=1) -> "Scalar":
        return _rational(p if q == 1 and type(p) is int else _div(p, q))

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Scalar":
        if n == 1:
            return ONE
        k %= n
        phi, rows, _ = _tables(n)
        if k < phi:
            coeffs = [_ZERO] * phi
            coeffs[k] = _ONE
            return _scalar(n, tuple(coeffs))
        return _scalar(n, rows[k])

    # --- promotion --------------------------------------------------------

    def _coeffs_at(self, m: int) -> tuple:
        """Reduced coordinates at conductor m (a multiple of self.n), unnormalized."""
        if m == self.n:
            return self.c
        step = m // self.n
        coeffs = [_ZERO] * (len(self.c) * step - step + 1)
        for i, ci in enumerate(self.c):
            coeffs[i * step] = ci
        return _reduce(m, coeffs)

    def _pair(self, other: "Scalar"):
        m = lcm(self.n, other.n)
        return m, self._coeffs_at(m), other._coeffs_at(m)

    # --- predicates -------------------------------------------------------

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Scalar):
            other = Scalar._coerce(other)
            if other is None:
                return NotImplemented
        if self.n == other.n:
            return self.c == other.c
        _, ca, cb = self._pair(other)
        return ca == cb

    def __hash__(self):
        # equal values may sit at different conductors, so hash the
        # normalized trace Tr/[K:Q], which does not depend on the conductor;
        # on rationals it is the value itself, so hash(Scalar(q)) == hash(q)
        if self.n == 1:
            return hash(self.c[0])
        return hash(sum(c * _normalized_trace(self.n, i) for i, c in enumerate(self.c) if c))

    # --- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return _rational(_canon(x))
        return None

    def __add__(self, other):
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is None:
                return NotImplemented
        # zero operands are ubiquitous in sparse matrix sums; skip the arithmetic
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        n, m = self.n, other.n
        if n == 1:
            if m == 1:
                v = self.c[0] + other.c[0]
                return _rational(v if type(v) is int else _canon(v))
            return _stored(m, _canonical((other.c[0] + self.c[0],)) + other.c[1:])
        if m == 1:
            return _stored(n, _canonical((self.c[0] + other.c[0],)) + self.c[1:])
        if n == m:
            return _scalar(n, _canonical([x + y for x, y in zip(self.c, other.c)]))
        m, ca, cb = self._pair(other)
        return _scalar(m, _canonical([x + y for x, y in zip(ca, cb)]))

    __radd__ = __add__

    def __neg__(self):
        if self.n == 1:
            return _rational(-self.c[0])
        return _stored(self.n, tuple([-x for x in self.c]))

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is None:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is None:
                return NotImplemented
        # a factor 1 is most products of kron(id, f); skip the arithmetic
        if self is ONE:
            return other
        if other is ONE:
            return self
        n, m = self.n, other.n
        if n == 1:
            x = self.c[0]
            if m == 1:
                v = x * other.c[0]
                return _rational(v if type(v) is int else _canon(v))
            return _stored(m, _canonical([x * y for y in other.c])) if x else ZERO
        if m == 1:
            x = other.c[0]
            return _stored(n, _canonical([y * x for y in self.c])) if x else ZERO
        if n == m:
            return _scalar(n, _product(n, self.c, other.c))
        m, ca, cb = self._pair(other)
        return _scalar(m, _product(m, ca, cb))

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        if self.is_zero:
            raise DivisionByZero("inversion of zero")
        if self.n == 1:
            return _rational(_div(1, self.c[0]))
        # self = a / d with a integral; s * a = N modulo Phi_n gives
        # 1 / self = d * s / N
        a, d = self.cleared()
        s, norm = _integral_inverse(cyclotomic_polynomial(self.n), a.c)
        return _stored(self.n, tuple([_div(d * x, norm) for x in _reduce(self.n, s)]))

    def cleared(self) -> tuple["Scalar", int]:
        """(a, d) with self = a / d, a of integral coordinates and d the
        least positive int that clears them."""
        d = lcm(*[x.denominator for x in self.c])
        if d == 1:
            return self, 1
        return _scalar(self.n, tuple([x.numerator * (d // x.denominator) for x in self.c])), d

    def over(self, d: int) -> "Scalar":
        """self / d for a positive int d: one exact division per coordinate."""
        if d == 1:
            return self
        if self.n == 1:
            return _rational(_div(self.c[0], d))
        return _stored(self.n, tuple([x // d if type(x) is int and not x % d else _div(x, d)
                                      for x in self.c]))

    def __truediv__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        inv = other.inv()
        if inv.n == 1:
            return self * inv
        s, d = inv.cleared()
        return (self * s).over(d)

    def __rtruediv__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # --- misc -------------------------------------------------------------

    def to_obj(self):
        return {
            "conductor": self.n,
            "coeffs": [[ci.numerator, ci.denominator] for ci in self.c],
        }

    def __repr__(self):
        if self.n == 1:
            return f"Scalar({self.c[0]})"
        terms = " + ".join(f"{c}*z{self.n}^{i}" for i, c in enumerate(self.c) if c)
        return f"Scalar({terms or 0})"


def _integral_inverse(mod, a):
    """(s, N) with s * a = N modulo mod: s an integer coefficient list and N
    a nonzero int, for integer polynomials mod and a that are coprime in
    Q[x] with deg a < deg mod.

    The extended Euclid of (mod, a) over Z[x]: pseudo-division keeps every
    remainder integral, and each remainder and its cofactor of a are divided
    by their joint content, so the coefficients stay small (the primitive
    remainder sequence of Collins and Brown)."""
    r0, t0 = list(mod), [_ZERO]
    r1, t1 = list(a), [_ONE]
    while True:
        while not r1[-1]:
            r1.pop()
        if len(r1) == 1:
            return t1, r1[0]
        k, quot, rem = _pseudo_divmod(r0, r1)
        # rem = k * r0 - quot * r1, so its cofactor is k * t0 - quot * t1
        t = [k * x for x in t0] + [_ZERO] * (len(quot) + len(t1) - 1 - len(t0))
        for i, x in enumerate(quot):
            if x:
                for j, y in enumerate(t1):
                    t[i + j] -= x * y
        g = gcd(*rem)
        if g != 1:
            g = gcd(g, *t)
        if g != 1:
            rem, t = [x // g for x in rem], [x // g for x in t]
        r0, t0, r1, t1 = r1, t1, rem, t


def _pseudo_divmod(num, den):
    """(k, quotient, remainder) with k * num = quotient * den + remainder and
    deg remainder < deg den, for integer polynomials num and den (nonzero
    leading coefficient) with deg num >= deg den; k is a positive int that
    scales num only as far as each step's exact division needs."""
    num = list(num)
    deg_d = len(den) - 1
    lead = den[-1]
    quot = [_ZERO] * (len(num) - deg_d)
    k = 1
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num[i]
        if not c:
            continue
        g = abs(lead) // gcd(c, lead)
        if g != 1:
            k *= g
            num = [x * g for x in num]
            quot = [x * g for x in quot]
            c *= g
        f = c // lead
        quot[i - deg_d] = f
        for j, dc in enumerate(den):
            num[i - deg_d + j] -= f * dc
    return k, quot, num[:deg_d]


ZERO = Scalar(1, (_ZERO,))
ONE = Scalar(1, (_ONE,))
MINUS_ONE = Scalar(1, (-_ONE,))
_UNITS = {0: ZERO, 1: ONE, -1: MINUS_ONE}
