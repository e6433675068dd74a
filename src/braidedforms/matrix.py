"""Exact dense matrices over cyclotomic scalars.

Matrices carry the morphisms of the base category (finite-dimensional vector
spaces).  Composition is matrix product with the right factor applied first;
kron realizes the tensor product with the lexicographic basis order
(i, j) -> i*dim(Y) + j.  All eliminations pick pivots leftmost-first so every
derived basis is reproducible bit for bit.

This is the only module that knows the storage layout (a flat row-major
list).  Everywhere else entries are read with m[r, c], written with
m[r, c] = v, and scanned with m.nonzeros(), which yields ((r, c), value) for
the nonzero entries in row-major order; whole blocks are assembled with
hstack/vstack.  The row-major list of the Matrix constructor and of to_obj
is the documented constructor and JSON schema, not an access path.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import ONE, ZERO, Scalar
from .errors import FactorizationError, ShapeError


def _coerce_scalar(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(1, (Fraction(x),), _reduced=True)
    raise TypeError(f"cannot use {type(x).__name__} as a matrix entry")


class Matrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = [_coerce_scalar(x) for x in entries]
        if len(entries) != rows * cols:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows*cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # --- constructors -----------------------------------------------------

    @classmethod
    def _raw(cls, rows: int, cols: int, entries: list) -> "Matrix":
        """Internal: entries already a list of Scalars of the right length."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = entries
        return m

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, [ZERO] * (rows * cols))

    @staticmethod
    def identity(n: int) -> "Matrix":
        m = Matrix.zero(n, n)
        for i in range(n):
            m.entries[i * n + i] = ONE
        return m

    @staticmethod
    def from_rows(rows_data) -> "Matrix":
        rows = len(rows_data)
        cols = len(rows_data[0]) if rows else 0
        flat = [x for row in rows_data for x in row]
        return Matrix(rows, cols, flat)

    @staticmethod
    def column(values) -> "Matrix":
        return Matrix(len(values), 1, list(values))

    @staticmethod
    def row(values) -> "Matrix":
        return Matrix(1, len(values), list(values))

    # --- access -----------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        if 0 <= i < self.rows and 0 <= j < self.cols:
            return self.entries[i * self.cols + j]
        raise IndexError(f"index {key} out of range for a {self.rows}x{self.cols} matrix")

    def __setitem__(self, key, value):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index {key} out of range for a {self.rows}x{self.cols} matrix")
        self.entries[i * self.cols + j] = _coerce_scalar(value)

    def nonzeros(self):
        """((r, c), value) for every nonzero entry, in row-major order."""
        cols = self.cols
        for k, e in enumerate(self.entries):
            if not e.is_zero:
                yield divmod(k, cols), e

    def col(self, j: int) -> "Matrix":
        return Matrix(self.rows, 1, [self.entries[i * self.cols + j] for i in range(self.rows)])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(a == b for a, b in zip(self.entries, other.entries))
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.entries)))

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

    # --- arithmetic -------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("addition shape mismatch")
        return Matrix._raw(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("subtraction shape mismatch")
        return Matrix._raw(self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Matrix":
        return Matrix._raw(self.rows, self.cols, [-a for a in self.entries])

    def scale(self, c) -> "Matrix":
        c = _coerce_scalar(c)
        # zeros stay the shared ZERO, so a kept (memoized) sparse block holds
        # no Scalar object per zero entry
        return Matrix._raw(self.rows, self.cols, [a if a.is_zero else c * a for a in self.entries])

    def compose(self, other: "Matrix") -> "Matrix":
        """self o other: apply other first."""
        if self.cols != other.rows:
            raise ShapeError(f"compose: {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        out = [ZERO] * (self.rows * other.cols)
        oc = other.cols
        # precompute the nonzero entries of each row of other: both operands
        # are typically sparse and this avoids rescanning rows per product
        oe = other.entries
        rows_nz = [
            [(j, b) for j, b in enumerate(oe[k * oc : (k + 1) * oc]) if not b.is_zero]
            for k in range(other.rows)
        ]
        for i in range(self.rows):
            arow = i * self.cols
            crow = i * oc
            for k in range(self.cols):
                a = self.entries[arow + k]
                if a.is_zero:
                    continue
                for j, b in rows_nz[k]:
                    out[crow + j] = out[crow + j] + a * b
        return Matrix._raw(self.rows, oc, out)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self.compose(other)
        return NotImplemented

    def transpose(self) -> "Matrix":
        out = [ZERO] * (self.rows * self.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                out[j * self.rows + i] = self.entries[i * self.cols + j]
        return Matrix(self.cols, self.rows, out)

    # --- elimination ------------------------------------------------------

    def rref(self):
        """(reduced row echelon form, pivot column list)."""
        m = [list(self.entries[i * self.cols : (i + 1) * self.cols]) for i in range(self.rows)]
        pivots = []
        pr = 0
        for pc in range(self.cols):
            pivot_row = None
            for r in range(pr, self.rows):
                if not m[r][pc].is_zero:
                    pivot_row = r
                    break
            if pivot_row is None:
                continue
            m[pr], m[pivot_row] = m[pivot_row], m[pr]
            inv = m[pr][pc].inv()
            m[pr] = [inv * x for x in m[pr]]
            for r in range(self.rows):
                if r != pr and not m[r][pc].is_zero:
                    c = m[r][pc]
                    m[r] = [x - c * y for x, y in zip(m[r], m[pr])]
            pivots.append(pc)
            pr += 1
            if pr == self.rows:
                break
        return Matrix.from_rows(m) if self.rows else self, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "Matrix":
        """Columns span Ker(self); reduced echelon (free coordinate = 1)."""
        red, pivots = self.rref()
        pivset = set(pivots)
        free = [c for c in range(self.cols) if c not in pivset]
        out = Matrix.zero(self.cols, len(free))
        for idx, fc in enumerate(free):
            out.entries[fc * len(free) + idx] = ONE
            for pr, pc in enumerate(pivots):
                out.entries[pc * len(free) + idx] = -red[pr, fc]
        return out

    def column_echelon_basis(self):
        """(basis matrix whose columns span the column space, pivot row list)."""
        red, pivots = self.transpose().rref()
        rank = len(pivots)
        basis = Matrix.zero(self.rows, rank)
        for k in range(rank):
            for i in range(self.rows):
                basis.entries[i * rank + k] = red[k, i]
        return basis, pivots

    def rank_factorization(self):
        """(image, coimage) with self == image o coimage: image is the column
        echelon basis, coimage the rows of self at its pivot rows."""
        image, pivot_rows = self.column_echelon_basis()
        c = self.cols
        rows = [e for pr in pivot_rows for e in self.entries[pr * c : (pr + 1) * c]]
        return image, Matrix._raw(len(pivot_rows), c, rows)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ShapeError("inverse of a non-square matrix")
        return solve_mono(self, Matrix.identity(self.rows))

    def permute_rows(self, p) -> "Matrix":
        """P o self for the permutation matrix P with P(e_i) = e_{p[i]}."""
        if len(p) != self.rows:
            raise ShapeError("row permutation length mismatch")
        out = [ZERO] * (self.rows * self.cols)
        for r in range(self.rows):
            out[p[r] * self.cols : (p[r] + 1) * self.cols] = self.entries[
                r * self.cols : (r + 1) * self.cols
            ]
        return Matrix(self.rows, self.cols, out)

    def permute_cols(self, p) -> "Matrix":
        """self o P for the permutation matrix P with P(e_i) = e_{p[i]}."""
        if len(p) != self.cols:
            raise ShapeError("column permutation length mismatch")
        out = [ZERO] * (self.rows * self.cols)
        for r in range(self.rows):
            base = r * self.cols
            for c in range(self.cols):
                out[base + c] = self.entries[base + p[c]]
        return Matrix(self.rows, self.cols, out)

    # --- serialization ----------------------------------------------------

    def to_obj(self):
        return {"rows": self.rows, "cols": self.cols, "entries": [e.to_obj() for e in self.entries]}

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def kron(f: Matrix, g: Matrix) -> Matrix:
    """Kronecker product; basis (i, j) of X tensor Y at index i*dim(Y)+j."""
    rows = f.rows * g.rows
    cols = f.cols * g.cols
    out = [ZERO] * (rows * cols)
    for i in range(f.rows):
        for k in range(f.cols):
            a = f.entries[i * f.cols + k]
            if a.is_zero:
                continue
            for j in range(g.rows):
                base = (i * g.rows + j) * cols + k * g.cols
                grow = j * g.cols
                for l in range(g.cols):
                    b = g.entries[grow + l]
                    if not b.is_zero:
                        out[base + l] = a * b
    return Matrix._raw(rows, cols, out)


def kron_all(*mats: Matrix) -> Matrix:
    result = mats[0]
    for m in mats[1:]:
        result = kron(result, m)
    return result


def compose_all(*mats: Matrix) -> Matrix:
    result = mats[0]
    for m in mats[1:]:
        result = result.compose(m)
    return result


def hstack(mats) -> Matrix:
    mats = list(mats)
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ShapeError("hstack row mismatch")
    cols = sum(m.cols for m in mats)
    out = []
    for i in range(rows):
        for m in mats:
            out.extend(m.entries[i * m.cols : (i + 1) * m.cols])
    return Matrix._raw(rows, cols, out)


def vstack(mats) -> Matrix:
    mats = list(mats)
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ShapeError("vstack column mismatch")
    entries = []
    for m in mats:
        entries.extend(m.entries)
    return Matrix(sum(m.rows for m in mats), cols, entries)


def solve_mono(a: Matrix, b: Matrix) -> Matrix:
    """The unique x with a o x = b, for a of full column rank.

    Raises FactorizationError when b is not in the column space of a.
    """
    if a.rows != b.rows:
        raise ShapeError("solve_mono row mismatch")
    aug = hstack([a, b])
    red, pivots = aug.rref()
    if len(pivots) != a.cols or any(p >= a.cols for p in pivots):
        raise FactorizationError("image not contained in the mono's image, or mono not injective")
    x = Matrix.zero(a.cols, b.cols)  # zeros stay the shared ZERO, as in scale
    for r in range(a.cols):
        for j in range(b.cols):
            v = red[r, a.cols + j]
            if not v.is_zero:
                x.entries[r * b.cols + j] = v
    # consistency: remaining rows of the reduced augmented system must vanish
    for r in range(a.cols, red.rows):
        for j in range(b.cols):
            if not red[r, a.cols + j].is_zero:
                raise FactorizationError("image not contained in the mono's image")
    return x


def solve_epi(b: Matrix, e: Matrix) -> Matrix:
    """The unique x with x o e = b, for e of full row rank.

    Raises FactorizationError when b does not vanish on Ker(e).
    """
    return solve_mono(e.transpose(), b.transpose()).transpose()


def mid_swap_indices(pre: int, a: int, b: int, post: int):
    """Basis index map of id_pre (x) swap_{a,b} (x) id_post.

    Use with permute_rows (left composition) or permute_cols (right
    composition) to apply the middle tensor swap without materializing it.
    """
    out = [0] * (pre * a * b * post)
    for i in range(pre):
        for j in range(a):
            for k in range(b):
                base_src = ((i * a + j) * b + k) * post
                base_dst = ((i * b + k) * a + j) * post
                for l in range(post):
                    out[base_src + l] = base_dst + l
    return out


def particular_solution(a: Matrix, b: Matrix) -> Matrix:
    """Some x with a o x = b (free coordinates set to zero).

    Unlike solve_mono, a need not be injective; FactorizationError when the
    system is inconsistent.
    """
    if a.rows != b.rows:
        raise ShapeError("particular_solution row mismatch")
    aug = hstack([a, b])
    red, pivots = aug.rref()
    if any(p >= a.cols for p in pivots):
        raise FactorizationError("right-hand side not in the column space")
    x = Matrix.zero(a.cols, b.cols)
    for r, pc in enumerate(pivots):
        for j in range(b.cols):
            x.entries[pc * b.cols + j] = red[r, a.cols + j]
    return x


def solve_factor(mono: Matrix, epi: Matrix, h: Matrix) -> Matrix:
    """The unique g with mono o g o epi = h.

    mono must have full column rank and epi full row rank; FactorizationError
    when h does not vanish on Ker(epi) or Im(h) is not inside Im(mono).
    """
    y = solve_mono(mono, h)
    return solve_epi(y, epi)
