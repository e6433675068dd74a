"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A Scalar is a vector of rationals over the power basis 1, z, ..., z^(phi(n)-1)
of Q(zeta_n), reduced modulo the n-th cyclotomic polynomial.  Values whose
higher coordinates vanish are stored at conductor 1, so plain rationals stay
cheap, and a conductor-n Scalar with n > 1 is never rational.

A computation inside one field never promotes.  A rational times an element
of Q(zeta_n) scales its coordinates and a rational plus one adds to
coordinate 0; a product of two elements of Q(zeta_n) reads the coordinates
of zeta^((i+j) mod n) from a per-conductor table.  Only operands at two
different conductors above 1 are promoted, both to the least common
conductor m via zeta_n -> zeta_m^(m/n).

Every arithmetic result and every parsed rational passes through one
internal factory, which stores the values 0, 1 and -1 as the shared ZERO,
ONE and MINUS_ONE objects, so that kernels can skip a unit factor with an
identity test.  The Scalar(n, coeffs) constructor reduces arbitrary input
and always builds a new object.

A coordinate is an int when it is integral and a Fraction otherwise, never a
float: every input is canonicalised on entry, every quotient goes through the
one exact _div, and arithmetic results are canonicalised where a Fraction
operand can leave an integral value.  int and Fraction agree on ==, hash and
numerator/denominator, so the representation never shows in a comparison or
a serialized report; it only keeps integral arithmetic off Fraction.
"""

from __future__ import annotations

import cmath
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
        poly = _poly_divide(_substitute_power(base, primes[-1]), base)
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


_TABLE_CACHE: dict[int, tuple[int, dict[int, tuple[int, ...]]]] = {}


def _tables(n: int):
    """(phi(n), reduction rows): row[e] = coords of zeta^e for phi(n) <= e < n."""
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
    _TABLE_CACHE[n] = (phi, rows)
    return _TABLE_CACHE[n]


def _reduce(n: int, coeffs) -> tuple:
    """Reduce a coefficient list in zeta_n (any length) to the power basis,
    with canonical coordinates."""
    phi, rows = _tables(n)
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


_PRODUCT_CACHE: dict[int, list] = {}


def _product_table(n: int) -> list:
    """table[i + j] for power-basis indices i, j < phi(n): the nonzero
    (index, coordinate) pairs of zeta^((i+j) mod n) = z^i z^j."""
    if n in _PRODUCT_CACHE:
        return _PRODUCT_CACHE[n]
    phi, rows = _tables(n)
    table = []
    for e in range(2 * phi - 1):
        e %= n
        table.append(((e, _ONE),) if e < phi else tuple((k, r) for k, r in enumerate(rows[e]) if r))
    _PRODUCT_CACHE[n] = table
    return table


def _product(n: int, a: tuple, b: tuple) -> tuple:
    """Canonical coordinates of the product of two elements of Q(zeta_n)."""
    table = _product_table(n)
    out = [_ZERO] * len(a)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    p = x * y
                    for k, r in table[i + j]:
                        out[k] += p * r
    return _canonical(out)


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
        phi, rows = _tables(n)
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
        # the cases of __add__, without building -other
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is None:
                return NotImplemented
        if self.is_zero:
            return -other
        if other.is_zero:
            return self
        n, m = self.n, other.n
        if n == 1:
            if m == 1:
                v = self.c[0] - other.c[0]
                return _rational(v if type(v) is int else _canon(v))
            rest = tuple([-x for x in other.c[1:]])
            return _stored(m, _canonical((self.c[0] - other.c[0],)) + rest)
        if m == 1:
            return _stored(n, _canonical((self.c[0] - other.c[0],)) + self.c[1:])
        if n == m:
            return _scalar(n, _canonical([x - y for x, y in zip(self.c, other.c)]))
        m, ca, cb = self._pair(other)
        return _scalar(m, _canonical([x - y for x, y in zip(ca, cb)]))

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
        return _scalar(m, _reduce(m, _poly_mul(ca, cb)))

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        if self.is_zero:
            raise DivisionByZero("inversion of zero")
        if self.n == 1:
            return _rational(_div(1, self.c[0]))
        # extended Euclid in Q[x]: maintain r_i = s_i * self (mod Phi_n)
        r0, s0 = list(cyclotomic_polynomial(self.n)), [_ZERO]
        r1, s1 = list(self.c), [_ONE]
        while True:
            while len(r1) > 1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                c = r1[0]  # nonzero: Phi_n is irreducible and self is not 0
                return _scalar(self.n, _reduce(self.n, [_div(x, c) for x in s1]))
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))

    def __truediv__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return Scalar._coerce(other) * self.inv()

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

    def approx(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.n)
        return sum(complex(ci) * z**i for i, ci in enumerate(self.c))

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


def _poly_divmod(num, den):
    """(quotient, remainder) of polynomial division in Q[x]."""
    num = list(num)
    while den and not den[-1]:
        den = den[:-1]
    deg_d = len(den) - 1
    lead = den[-1]
    if len(num) - 1 < deg_d:
        return [_ZERO], num
    quot = [_ZERO] * (len(num) - deg_d)
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = _div(num[i], lead)
        if c:
            quot[i - deg_d] = c
            for j, dc in enumerate(den):
                num[i - deg_d + j] -= c * dc
    rem = num[:deg_d] or [_ZERO]
    return quot, rem


def _poly_divide(num, den):
    """The quotient of an exact polynomial division."""
    quot, rem = _poly_divmod(num, den)
    if any(rem):
        raise ArithmeticError("non-exact polynomial division")
    return quot


def _poly_mul(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [_ZERO] * (n - len(a))
    b = list(b) + [_ZERO] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


ZERO = Scalar(1, (_ZERO,))
ONE = Scalar(1, (_ONE,))
MINUS_ONE = Scalar(1, (-_ONE,))
_UNITS = {0: ZERO, 1: ONE, -1: MINUS_ONE}
