"""Exact sparse matrices over cyclotomic scalars.

Matrices carry the morphisms of the base category (finite-dimensional vector
spaces).  Composition is matrix product with the right factor applied first;
kron realizes the tensor product with the lexicographic basis order
(i, j) -> i*dim(Y) + j.  kron_apply(f, g, x) = kron(f, g) o x and its mirror
compose_kron(x, f, g) = x o kron(f, g) apply a tensor product without
building it; outside this module every product with a tensor product of
maps goes through them or braided_product, and kron builds only a stored
structure map or the mono/epi of a solve.  split_leg lays the components of
a map into A (x) B along B side by side.  braided_product evaluates the
braided composite (m1 (x) m2) o (id (x) beta (x) id) o (c1 (x) c2) the same
way, stated by its four leg dimensions; it is the one kernel for tensor products of structures:
the braided bialgebra law, the diagonal action and codiagonal coaction on a
tensor product of modules, the smash and biproduct blocks and the braidings
built from them.  restrict and descend carry a map between tensor products
onto sub-objects (over monos) or quotients (over epis) given leg by leg; every
graded, bimodule and crossed-module transport goes through them.
swap_matrix(a, b) is the plain tensor swap A (x) B -> B (x) A;
no caller pads it with identity legs, so only this module knows how tensor
legs are laid out.  All eliminations pick pivots leftmost-first so every
derived basis is reproducible bit for bit.

rref normalizes each pivot row by the pivot's inverse: a pivot alone in its
row becomes ONE with no inverse taken, a ONE pivot leaves the row as it is,
a rational inverse scales it, and an inverse in Q(zeta_n)
is split once into integral coordinates and a positive int denominator, so
each entry costs one integral product and one exact division by that int
(Scalar.cleared and Scalar.over).  The coordinates themselves stay inside
cyclotomic.py.  Each other row with an entry c in the pivot column then adds
the pivot row times -c, negated once per row, in one fused loop that drops
the entries it cancels; elimination makes no Scalar subtraction.

A kernel basis has the row {j: ONE} at the free coordinate of its column j,
and so does a column echelon basis at its pivot row of column j; kron with an
identity keeps such unit rows.  solve_mono, and with it solve_epi and
solve_factor, reads its solution off these rows when every column has one
and checks it by one product: the unit rows make the matrix injective, so
the solution is unique and equals the one elimination would give.  Only a
matrix without such a cover is eliminated.

This is the only module that knows the storage layout: sparse rows of
nonzero entries, one {col: Scalar} map per row, so products, Kronecker
products, comparisons and eliminations cost time in the number of nonzero
entries.  No zero Scalar is ever stored; m[r, c] = 0 deletes the entry.
Everywhere else entries are read with m[r, c], written with m[r, c] = v, and
scanned with m.nonzeros(), which yields ((r, c), value) for the nonzero
entries in row-major order; whole blocks are assembled with hstack/vstack.
The row-major list of the Matrix constructor and of to_obj is the documented
constructor and JSON schema, not an access path; m.entries is a read-only
row-major list derived from the rows.
"""

from __future__ import annotations

from .cyclotomic import ONE, ZERO, Scalar
from .errors import FactorizationError, ShapeError


def _coerce_scalar(x) -> Scalar:
    s = Scalar._coerce(x)
    if s is None:
        raise TypeError(f"cannot use {type(x).__name__} as a matrix entry")
    return s


def _sparse(rows: int, cols: int, maps: list) -> "Matrix":
    """Internal: a matrix over row maps that hold only nonzero entries."""
    m = object.__new__(Matrix)
    m.rows = rows
    m.cols = cols
    m._nz = maps
    return m


# A product with a factor that is the ONE object skips the multiply and keeps
# the other factor object, which is what ONE * b returns; most such factors
# come from the identity legs of whiskers.

def _add_scaled(acc: dict, a: Scalar, row: dict):
    """acc[j] += a * row[j] for each entry of row; a new key takes the product
    as it is.  Zero sums stay in acc for the caller to drop."""
    for j, b in row.items():
        p = b if a is ONE else a if b is ONE else a * b
        acc[j] = acc[j] + p if j in acc else p


class Matrix:
    __slots__ = ("rows", "cols", "_nz")

    def __init__(self, rows: int, cols: int, entries):
        entries = [_coerce_scalar(x) for x in entries]
        if len(entries) != rows * cols:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows*cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self._nz = [
            {c: e for c, e in enumerate(entries[r * cols : (r + 1) * cols]) if not e.is_zero}
            for r in range(rows)
        ]

    # --- constructors -----------------------------------------------------

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return _sparse(rows, cols, [{} for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return _sparse(n, n, [{i: ONE} for i in range(n)])

    @staticmethod
    def column(values) -> "Matrix":
        return Matrix(len(values), 1, list(values))

    # --- access -----------------------------------------------------------

    def _check_index(self, key):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index {key} out of range for a {self.rows}x{self.cols} matrix")
        return i, j

    def __getitem__(self, key):
        i, j = self._check_index(key)
        return self._nz[i].get(j, ZERO)

    def __setitem__(self, key, value):
        i, j = self._check_index(key)
        value = _coerce_scalar(value)
        if value.is_zero:
            self._nz[i].pop(j, None)
        else:
            self._nz[i][j] = value

    @property
    def entries(self) -> list:
        """The dense row-major list of all entries (a fresh list on each read)."""
        out = [ZERO] * (self.rows * self.cols)
        for (r, c), e in self.nonzeros():
            out[r * self.cols + c] = e
        return out

    def nonzeros(self):
        """((r, c), value) for every nonzero entry, in row-major order."""
        for r, row in enumerate(self._nz):
            for c in sorted(row):
                yield (r, c), row[c]

    def col(self, j: int) -> "Matrix":
        return _sparse(self.rows, 1, [{0: row[j]} if j in row else {} for row in self._nz])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._nz == other._nz

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.nonzeros())))

    @property
    def is_zero(self) -> bool:
        return not any(self._nz)

    # --- arithmetic -------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("addition shape mismatch")
        out = []
        for arow, brow in zip(self._nz, other._nz):
            row = dict(arow)
            _add_scaled(row, ONE, brow)
            for c in brow:
                if row[c].is_zero:
                    del row[c]
            out.append(row)
        return _sparse(self.rows, self.cols, out)

    def __sub__(self, other: "Matrix") -> "Matrix":
        # a - b is a + (-b) entry by entry, as for Scalar
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("subtraction shape mismatch")
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return _sparse(self.rows, self.cols, [{c: -a for c, a in row.items()} for row in self._nz])

    def scale(self, c) -> "Matrix":
        c = _coerce_scalar(c)
        if c.is_zero:
            return Matrix.zero(self.rows, self.cols)
        return _sparse(self.rows, self.cols, [{j: c * a for j, a in row.items()} for row in self._nz])

    def compose(self, other: "Matrix") -> "Matrix":
        """self o other: apply other first.

        Each entry sums its products over k in ascending order, the first
        product stored as it is, so mixed-conductor sums end at the same
        conductor as a dense sum started from ZERO would."""
        if self.cols != other.rows:
            raise ShapeError(f"compose: {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        brows = other._nz
        out = []
        for arow in self._nz:
            if len(arow) == 1:
                (k, a), = arow.items()
                if a is ONE:
                    # a row of an identity, selection or swap factor: the
                    # products ONE * b are the entries b themselves
                    out.append(dict(brows[k]))
                    continue
            acc = {}
            for k in sorted(arow):
                _add_scaled(acc, arow[k], brows[k])
            out.append({j: v for j, v in acc.items() if not v.is_zero})
        return _sparse(self.rows, other.cols, out)

    def transpose(self) -> "Matrix":
        out = [{} for _ in range(self.cols)]
        for r, row in enumerate(self._nz):
            for c, e in row.items():
                out[c][r] = e
        return _sparse(self.cols, self.rows, out)

    # --- elimination ------------------------------------------------------

    def rref(self):
        """(reduced row echelon form, pivot column list)."""
        m = [dict(row) for row in self._nz]
        if not any(m):
            return _sparse(self.rows, self.cols, m), []
        pivots = []
        pr = 0
        for pc in range(self.cols):
            pivot_row = None
            for r in range(pr, self.rows):
                if pc in m[r]:
                    pivot_row = r
                    break
            if pivot_row is None:
                continue
            m[pr], m[pivot_row] = m[pivot_row], m[pr]
            if len(m[pr]) == 1:  # a lone pivot becomes ONE without an inverse
                prow = m[pr] = {pc: ONE}
            elif (inv := m[pr][pc].inv()) is ONE:
                prow = m[pr]
            elif inv.n == 1:
                prow = m[pr] = {c: inv * x for c, x in m[pr].items()}
            else:
                s, d = inv.cleared()
                prow = m[pr] = {c: (s * x).over(d) for c, x in m[pr].items()}
            for r in range(self.rows):
                if r != pr and pc in m[r]:
                    row = m[r]
                    c = -row[pc]
                    for j, y in prow.items():
                        v = row.get(j, ZERO) + c * y
                        if v.is_zero:
                            del row[j]
                        else:
                            row[j] = v
            pivots.append(pc)
            pr += 1
            if pr == self.rows:
                break
        return _sparse(self.rows, self.cols, m), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "Matrix":
        """Columns span Ker(self); reduced echelon (free coordinate = 1)."""
        red, pivots = self.rref()
        pivset = set(pivots)
        free = [c for c in range(self.cols) if c not in pivset]
        slot = {fc: idx for idx, fc in enumerate(free)}
        out = [{} for _ in range(self.cols)]
        for fc, idx in slot.items():
            out[fc][idx] = ONE
        for pr, pc in enumerate(pivots):
            out[pc] = {slot[fc]: -v for fc, v in red._nz[pr].items() if fc in slot}
        return _sparse(self.cols, len(free), out)

    def column_echelon_basis(self):
        """(basis matrix whose columns span the column space, pivot row list)."""
        red, pivots = self.transpose().rref()
        rank = len(pivots)
        basis = _sparse(rank, self.rows, red._nz[:rank]).transpose()
        return basis, pivots

    def cokernel(self) -> "Matrix":
        """An epi whose kernel is the column space (rows in reduced echelon form)."""
        return self.transpose().kernel_basis().transpose()

    def rank_factorization(self):
        """(image, coimage) with self == image o coimage: image is the column
        echelon basis, coimage the rows of self at its pivot rows."""
        image, pivot_rows = self.column_echelon_basis()
        rows = [dict(self._nz[pr]) for pr in pivot_rows]
        return image, _sparse(len(pivot_rows), self.cols, rows)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ShapeError("inverse of a non-square matrix")
        return solve_mono(self, Matrix.identity(self.rows))

    # --- serialization ----------------------------------------------------

    def to_obj(self):
        return {"rows": self.rows, "cols": self.cols, "entries": [e.to_obj() for e in self.entries]}

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def swap_matrix(a: int, b: int) -> Matrix:
    """The plain tensor swap A (x) B -> B (x) A, e_i (x) f_j -> f_j (x) e_i,
    one entry ONE per row."""
    return _sparse(a * b, a * b, [{j * b + k: ONE} for k in range(b) for j in range(a)])


def kron(f: Matrix, g: Matrix) -> Matrix:
    """Kronecker product; basis (i, j) of X tensor Y at index i*dim(Y)+j."""
    gc = g.cols
    out = [
        {k * gc + l: b if a is ONE else a if b is ONE else a * b
         for k, a in frow.items() for l, b in grow.items()}
        for frow in f._nz
        for grow in g._nz
    ]
    return _sparse(f.rows * g.rows, f.cols * gc, out)


def _finish(rows: int, cols: int, acc: dict) -> Matrix:
    """The matrix of the touched rows acc (row -> {col: value}), zeros dropped."""
    out = [{} for _ in range(rows)]
    for r, row in acc.items():
        out[r] = {c: v for c, v in row.items() if not v.is_zero}
    return _sparse(rows, cols, out)


def kron_apply(f: Matrix, g: Matrix, x: Matrix) -> Matrix:
    """kron(f, g).compose(x) without building kron(f, g).

    Row (j, l) of x meets column j of f and column l of g, so each nonzero
    row of x is added, scaled by f[i, j] * g[k, l], into row (i, k) of the
    result, as in (f (x) g) vec(X) = vec(g X f^T) (Van Loan, J. Comput. Appl.
    Math. 123, 2000).  The result equals the materialized product; its sums
    may run in another order."""
    if f.cols * g.cols != x.rows:
        raise ShapeError(f"kron_apply: {f.rows * g.rows}x{f.cols * g.cols} with {x.rows}x{x.cols}")
    fcols, gcols = f.transpose()._nz, g.transpose()._nz
    gr, gc = g.rows, g.cols
    acc = {}
    for r, xrow in enumerate(x._nz):
        if not xrow:
            continue
        j, l = divmod(r, gc)
        gcol = gcols[l]
        for i, a in fcols[j].items():
            base = i * gr
            for k, b in gcol.items():
                row = acc.get(base + k)
                if row is None:
                    row = acc[base + k] = {}
                _add_scaled(row, b if a is ONE else a if b is ONE else a * b, xrow)
    return _finish(f.rows * gr, x.cols, acc)


def compose_kron(x: Matrix, f: Matrix, g: Matrix) -> Matrix:
    """x.compose(kron(f, g)) without building kron(f, g): entry (i, k) of a
    row of x adds itself, scaled by f[i, j] * g[k, l], into column (j, l)."""
    if x.cols != f.rows * g.rows:
        raise ShapeError(f"compose_kron: {x.rows}x{x.cols} with {f.rows * g.rows}x{f.cols * g.cols}")
    frows, grows = f._nz, g._nz
    gr, gc = g.rows, g.cols
    out = []
    for xrow in x._nz:
        acc = {}
        for c, v in xrow.items():
            i, k = divmod(c, gr)
            grow = grows[k]
            for j, a in frows[i].items():
                va = v if a is ONE else a if v is ONE else v * a
                base = j * gc
                for l, b in grow.items():
                    p = b if va is ONE else va if b is ONE else va * b
                    col = base + l
                    acc[col] = acc[col] + p if col in acc else p
        out.append({c: v for c, v in acc.items() if not v.is_zero})
    return _sparse(x.rows, f.cols * gc, out)


def braided_product(m1: Matrix, m2: Matrix, beta: Matrix, c1: Matrix, c2: Matrix,
                    dims) -> Matrix:
    """(m1 (x) m2) o (id_A (x) beta (x) id_D) o (c1 (x) c2) without building a
    Kronecker product: the right-hand side of the braided bialgebra law.

    dims = (a, b, c, d) are the dimensions of A, B, C, D, with c1: X -> A (x) B,
    c2: Y -> C (x) D, beta: B (x) C -> C (x) B, m1: A (x) C -> P and
    m2: B (x) D -> Q.  Each column (x, y) of the result is one depth-first
    pass: the entries of column x of c1 and column y of c2 meet column (j, k)
    of beta, whose entries land on column (i, k') of m1 and (j', l) of m2.
    The result equals the materialized product; its sums may run in another
    order."""
    a, b, c, d = dims
    if (c1.rows != a * b or c2.rows != c * d or beta.rows != c * b or beta.cols != b * c
            or m1.cols != a * c or m2.cols != b * d):
        raise ShapeError(
            f"braided_product: legs {tuple(dims)} with c1 {c1.rows}x{c1.cols}, "
            f"c2 {c2.rows}x{c2.cols}, beta {beta.rows}x{beta.cols}, "
            f"m1 {m1.rows}x{m1.cols}, m2 {m2.rows}x{m2.cols}")
    # columns as lists of (leg indices, value); beta's columns land on the
    # flat offsets of m1's and m2's columns
    cols1 = [[(divmod(i, b), v) for i, v in col.items()] for col in c1.transpose()._nz]
    cols2 = [[(divmod(i, d), v) for i, v in col.items()] for col in c2.transpose()._nz]
    bcols = [[(divmod(i, b), v) for i, v in col.items()] for col in beta.transpose()._nz]
    m1cols, m2cols = m1.transpose()._nz, m2.transpose()._nz
    q = m2.rows
    width = c2.cols
    acc = {}
    for x, col1 in enumerate(cols1):
        if not col1:
            continue
        for y, col2 in enumerate(cols2):
            if not col2:
                continue
            # z[p][s]: coefficient of e_p (x) e_s in (A (x) C) (x) (B (x) D)
            z = {}
            for (i, j), u in col1:
                for (k, l), v in col2:
                    uv = v if u is ONE else u if v is ONE else u * v
                    for (k2, j2), w in bcols[j * c + k]:
                        t = w if uv is ONE else uv if w is ONE else uv * w
                        zp = z.get(i * c + k2)
                        if zp is None:
                            zp = z[i * c + k2] = {}
                        s = j2 * d + l
                        zp[s] = zp[s] + t if s in zp else t
            # (m1 (x) m2) z, one m1 column at a time: m1[:, p] (x) (m2 z[p])
            col = x * width + y
            for p, zp in z.items():
                part = {}
                for s, t in zp.items():
                    _add_scaled(part, t, m2cols[s])
                for r, e in m1cols[p].items():
                    base = r * q
                    for r2, f in part.items():
                        t = f if e is ONE else e if f is ONE else e * f
                        row = acc.get(base + r2)
                        if row is None:
                            row = acc[base + r2] = {}
                        row[col] = row[col] + t if col in row else t
    return _finish(m1.rows * q, c1.cols * width, acc)


def split_leg(x: Matrix, b: int) -> Matrix:
    """The components of x: K -> A (x) B along B, side by side: the A x (B K)
    matrix [(id_A (x) e_0*) o x | ... | (id_A (x) e_(b-1)*) o x], one pass
    over the entries of x."""
    if x.rows % b:
        raise ShapeError(f"split_leg: {x.rows} rows are not a multiple of {b}")
    k = x.cols
    out = [{} for _ in range(x.rows // b)]
    for r, row in enumerate(x._nz):
        i, j = divmod(r, b)
        for c, v in row.items():
            out[i][j * k + c] = v
    return _sparse(x.rows // b, b * k, out)


def span_closure(step, gens: Matrix) -> Matrix:
    """The echelon basis of the smallest subspace that contains Im(gens) and
    step(v) for each of its vectors v, for a step linear in each column.
    Semi-naive: a round applies step only to the columns that the last
    round's echelon basis gained, at pivot rows it did not have before; with
    the old basis they span the new one, and the old basis's images are in
    it already.  The whole space returns as the identity."""
    basis, pivots = gens.column_echelon_basis()
    fresh = basis
    while fresh.cols and basis.cols < basis.rows:
        old = set(pivots)
        basis, pivots = hstack([basis, step(fresh)]).column_echelon_basis()
        fresh = hstack([Matrix.zero(basis.rows, 0),
                        *(basis.col(j) for j, p in enumerate(pivots) if p not in old)])
    return basis


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
    out = [{} for _ in range(rows)]
    offset = 0
    for m in mats:
        for row, mrow in zip(out, m._nz):
            for c, e in mrow.items():
                row[offset + c] = e
        offset += m.cols
    return _sparse(rows, offset, out)


def vstack(mats) -> Matrix:
    mats = list(mats)
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ShapeError("vstack column mismatch")
    return _sparse(sum(m.rows for m in mats), cols, [dict(row) for m in mats for row in m._nz])


def _solution_rows(red: Matrix, first: int, rows) -> list:
    """The right-hand-side part (columns from first on) of the given rows of a
    reduced augmented system, renumbered from column 0."""
    return [{c - first: v for c, v in red._nz[r].items() if c >= first} for r in rows]


def _unit_rows(a: Matrix):
    """For each column j of a, the first row of a that is exactly {j: ONE};
    None when some column has no such row."""
    where = {}
    for r, row in enumerate(a._nz):
        if len(row) == 1:
            (j, v), = row.items()
            if v is ONE and j not in where:
                where[j] = r
    if len(where) != a.cols:
        return None
    return [where[j] for j in range(a.cols)]


def solve_mono(a: Matrix, b: Matrix) -> Matrix:
    """The unique x with a o x = b, for a of full column rank.

    When every column j of a has a row that is exactly {j: ONE} (a kernel or
    column echelon basis, and their Kronecker products with identities),
    those rows make a injective and read x off b: row j of x is b's row at
    the unit row of column j.  One product a o x == b then decides whether b
    lies in the image.  Any other a is reduced together with b.  Both ways
    give the unique solution, so the same x.

    Raises FactorizationError when b is not in the column space of a or a
    is not injective.
    """
    if a.rows != b.rows:
        raise ShapeError("solve_mono row mismatch")
    rows = _unit_rows(a)
    if rows is not None:
        x = _sparse(a.cols, b.cols, [dict(b._nz[r]) for r in rows])
        if a.compose(x) == b:
            return x
    else:
        # a row past the last pivot of the reduced system is zero, so the
        # pivots alone decide consistency
        red, pivots = hstack([a, b]).rref()
        if pivots == list(range(a.cols)):
            return _sparse(a.cols, b.cols, _solution_rows(red, a.cols, range(a.cols)))
    raise FactorizationError("image not contained in the mono's image, or mono not injective")


def solve_epi(b: Matrix, e: Matrix) -> Matrix:
    """The unique x with x o e = b, for e of full row rank.

    Raises FactorizationError when b does not vanish on Ker(e).
    """
    return solve_mono(e.transpose(), b.transpose()).transpose()


def _legs(legs):
    """At most two maps as the two legs of a tensor product, padded with the
    identity of the ground field."""
    return (*legs, *[Matrix.identity(1)] * (2 - len(legs)))


def _tensor(legs) -> Matrix:
    """The tensor product of at most two maps; a lone map as it is, uncopied."""
    return legs[0] if len(legs) == 1 else kron(*_legs(legs))


def restrict(f: Matrix, src, tgt) -> Matrix:
    """f on sub-objects: the unique g with (t1 (x) t2) o g = f o (s1 (x) s2),
    where src = [s1, s2] and tgt = [t1, t2] list at most two monos each (an
    empty list is the ground field).  FactorizationError when f does not map
    the source sub-object into the target one."""
    return solve_mono(_tensor(tgt), compose_kron(f, *_legs(src)))


def descend(f: Matrix, src, tgt) -> Matrix:
    """f on quotients: the unique g with g o (s1 (x) s2) = (t1 (x) t2) o f,
    where src and tgt list at most two epis each.  FactorizationError when f
    does not descend."""
    image = tgt[0].compose(f) if len(tgt) == 1 else kron_apply(*_legs(tgt), f)
    return solve_epi(image, _tensor(src))


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
    for pc, row in zip(pivots, _solution_rows(red, a.cols, range(len(pivots)))):
        x._nz[pc] = row
    return x


def solve_factor(mono: Matrix, epi: Matrix, h: Matrix) -> Matrix:
    """The unique g with mono o g o epi = h.

    mono must have full column rank and epi full row rank; FactorizationError
    when h does not vanish on Ker(epi) or Im(h) is not inside Im(mono).
    """
    y = solve_mono(mono, h)
    return solve_epi(y, epi)
