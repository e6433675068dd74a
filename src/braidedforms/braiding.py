"""Braided spaces, braid-group representations, and braided multinomials.

A BraidedSpace is a d-dimensional space X with an invertible Yang-Baxter
operator psi on X@X and an invertible scalar lam (the unit automorphism).
BraidedSpace.rep sends a permutation to the product of elementary braidings
over a reduced word; the braid equation makes this well defined.  Braided
multinomials are the sums sum_sigma lam^l(sigma) * rep(sigma) over the lower
or upper shuffle set; on a 1-dimensional space that sum is the polynomial
sum_i c_i (lam psi)^i in the Gaussian multinomial coefficients c_i, and no
shuffle is enumerated.  The braided factorial [j]! is not summed over S_j but
built by the braided binomial theorem (Majid, J. Math. Phys. 34, 1993) from
the previous degree as [j]! = (id (x) [j-1]!) o [1, j-1].
"""

from __future__ import annotations

import math

from .checks import Checks
from .cyclotomic import ONE, ZERO, Scalar
from .errors import ShapeError, TooLarge
from .matrix import Matrix, kron, kron_all, kron_apply, swap_matrix
from .permutations import gaussian_multinomial, length, reduced_word, shuffle_set

RESOURCE_BOUND = 4096


def check_yang_baxter(psi: Matrix) -> Checks:
    """The braid equation as the one check "yang_baxter", whose witness is
    the first failing basis column index on X@X@X."""
    if psi.rows != psi.cols:
        raise ShapeError("braiding must be square")
    d = math.isqrt(psi.rows)
    if d * d != psi.rows:
        raise ShapeError("braiding side length must be a perfect square")
    eye = Matrix.identity(d)
    # (psi (x) I)(I (x) psi)(psi (x) I) and (I (x) psi)(psi (x) I)(I (x) psi):
    # the innermost factor is built, the outer two are applied to it
    lhs = kron_apply(psi, eye, kron_apply(eye, psi, kron(psi, eye)))
    rhs = kron_apply(eye, psi, kron_apply(psi, eye, kron(eye, psi)))
    checks = Checks()
    checks.record("yang_baxter", next((col for (_, col), _ in (lhs - rhs).nonzeros()), None))
    return checks


class BraidedSpace:
    """Finite-dimensional space with Yang-Baxter operator and parameter lam.
    The constructor checks shapes and invertibility only; the braid equation
    is check_yang_baxter's, which build_wedge runs before it uses psi."""

    __slots__ = ("dim", "psi", "lam", "_rep_cache")

    def __init__(self, dim: int, psi: Matrix, lam=None):
        lam = Scalar._coerce(-1 if lam is None else lam)
        if psi.rows != dim * dim or psi.cols != dim * dim:
            raise ShapeError(f"psi must be {dim*dim}x{dim*dim}")
        if lam.is_zero:
            raise ShapeError("lambda must be invertible")
        if psi.rank() != psi.rows:
            raise ShapeError("psi must be invertible")
        self.dim = dim
        self.psi = psi
        self.lam = lam
        self._rep_cache = {}

    def guard(self, j: int):
        # for dim >= 2, any j past the bound's bit length fails; this skips
        # forming dim^j for huge j
        if self.dim > 1 and (j >= RESOURCE_BOUND.bit_length() or self.dim**j > RESOURCE_BOUND):
            raise TooLarge(f"dim^j = {self.dim}^{j} exceeds the bound {RESOURCE_BOUND}")

    def elementary(self, j: int, a: int) -> Matrix:
        """psi acting in slots (a, a+1) of X^(tensor j)."""
        self.guard(j)
        d = self.dim
        key = ("elem", j, a)
        if key not in self._rep_cache:
            self._rep_cache[key] = kron_all(
                Matrix.identity(d ** (a - 1)), self.psi, Matrix.identity(d ** (j - a - 1))
            )
        return self._rep_cache[key]

    def rep(self, p: tuple[int, ...]) -> Matrix:
        """The braid-group representation sigma_C on X^(tensor j) of the
        permutation p, given by its one-line images.  On a 1-dimensional
        space every elementary braiding is the scalar psi, so the product
        over a reduced word is psi to the length of p."""
        j = len(p)
        self.guard(j)
        key = ("rep", p)
        if key not in self._rep_cache:
            if sorted(p) != list(range(1, j + 1)):
                raise ShapeError(f"not a permutation of 1..{j}: {p}")
            if self.dim == 1:
                result = Matrix(1, 1, [self.psi[0, 0] ** length(p)])
            else:
                result = Matrix.identity(self.dim**j)
                for a in reduced_word(p):
                    result = result.compose(self.elementary(j, a))
            self._rep_cache[key] = result
        return self._rep_cache[key]


def swap_space(dim: int, lam=None) -> BraidedSpace:
    return BraidedSpace(dim, swap_matrix(dim, dim), lam)


def diagonal_space(q_table, lam=None) -> BraidedSpace:
    """Diagonal braiding psi(e_i @ e_j) = q[i][j] e_j @ e_i (always YB)."""
    d = len(q_table)
    m = Matrix.zero(d * d, d * d)
    for i in range(d):
        for j in range(d):
            m[j * d + i, i * d + j] = q_table[i][j]
    return BraidedSpace(d, m, lam)


def braided_line(mu, lam=None) -> BraidedSpace:
    """One-dimensional space with effective multinomial parameter mu = lam*q."""
    lam = Scalar._coerce(-1 if lam is None else lam)
    q = Scalar._coerce(mu) * lam.inv()
    return BraidedSpace(1, Matrix(1, 1, [q]), lam)


def multinomial(parts, x: BraidedSpace, side: str) -> Matrix:
    """[parts over j] (side="lower") or [j over parts] (side="upper") on
    X^(tensor j), for a composition `parts` of j = sum(parts)."""
    j = sum(parts)
    x.guard(j)
    if x.dim == 1:
        # c_i shuffles of length i each contribute (lam psi)^i
        q = x.lam * x.psi[0, 0]
        total, power = ZERO, ONE
        for c in gaussian_multinomial(parts):
            total = total + c * power
            power = power * q
        return Matrix(1, 1, [total])
    size = x.dim**j
    acc = Matrix.zero(size, size)
    for sigma in shuffle_set(parts, side):
        weight = x.lam ** length(sigma)
        scale = weight != 1
        # representation matrices are sparse; only touch their nonzero entries
        for rc, e in x.rep(sigma).nonzeros():
            acc[rc] = acc[rc] + (weight * e if scale else e)
    return acc


def braided_factorial(j: int, x: BraidedSpace, below: Matrix | None = None) -> Matrix:
    """[j | X; lam]! = [j over (1,...,1)], built as Majid's
    [j]! = (id (x) [j-1]!) o [1, j-1]: one shuffle factor of j terms on top of
    [j-1]! instead of the j! terms of the S_j sum.  `below` is [j-1]! when
    the caller already has it; otherwise the lower degrees are built first.
    [j]! vanishes with [j-1]!, so a zero `below` gives the zero block at once."""
    x.guard(j)
    if j < 2:
        return Matrix.identity(x.dim**j)
    if below is None:
        below = braided_factorials(j - 1, x)[-1]
    if below.is_zero:
        return Matrix.zero(x.dim**j, x.dim**j)
    return kron_apply(Matrix.identity(x.dim), below, multinomial((1, j - 1), x, "upper"))


def braided_factorials(N: int, x: BraidedSpace) -> list[Matrix]:
    """[0]!, [1]!, ..., [N]!, each built on the one before."""
    x.guard(N)
    facts = [braided_factorial(0, x)]
    for j in range(1, N + 1):
        facts.append(braided_factorial(j, x, facts[-1]))
    return facts


def block_swap(k: int, l: int) -> tuple[int, ...]:
    """The permutation in S_{k+l} moving the first k slots past the last l."""
    return (*range(l + 1, k + l + 1), *range(1, l + 1))

