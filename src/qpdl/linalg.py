"""Exact matrices over the Gaussian rationals.

A scalar is a complex number whose real and imaginary parts are
``fractions.Fraction`` values.  A ``Matrix`` stores its nonzero entries
only, as Gaussian-integer parts over one positive common denominator
``den``: each row is a tuple of (col, re, im) triples in ascending column
order, none of them zero, standing for the entries (re + im i) / den, and
gcd(den, every part) = 1.  That form is unique, so equal matrices hold
equal tuples, and equality and hashing compare them; the hash is
computed once per matrix.  The integer rows are this module's own: no
other module reads or writes them.  A vector is a one-row matrix, which
is what ``row`` returns.  Scalars appear only at the boundary: the
constructor reads ``GaussianRational`` values and ``entries`` builds
them, for printing, state files and parsed amplitudes.  No scalar is
ever divided.

Composite systems are built and read by two primitives on one
convention, a table of lines of column indices: ``tensor`` puts
x_j * y_l of x (x) y at column at[j][l], and ``gather`` reads
[x[c] for c in t] out of a row x for each line t.

Every operation visits nonzero entries only: products and tensors sum
over nonzero factor pairs, and a monomial row of a left factor copies a
row of the right factor.  ``apply`` maps each row x of a matrix X to
M x, (M X^T)^T, with no transpose: x is read once into a dense list, and
each entry of M x is one dot product over a row of M.  Rows that share
one denominator, as every product, tensor and image gives them, are
taken by ``from_parts`` as they are, with no lcm; the identity of each
size is built once.
Reduced row echelon form, kernels and the solution of a square system
come from one fraction-free Gauss-Jordan elimination on rows held as
dicts from column to (re, im), each with its leading column kept beside
it.  Each row operation leaves its row primitive over the integers; a
row whose parts outgrow 64 bits is also divided by the Gaussian gcd of
its entries, so that no common factor such as 1+2i lets the entries grow
with every pivot.  A reduced row is kept as its primitive multiple with
a positive integer pivot, so it maps one-to-one onto the RREF row with
pivot 1; the RREF basis is the canonical representative used for
subspace identity throughout the package.

One routine, ``kernel_basis``, gives every null space, from one
elimination of the rows with their column order reversed: each pivot is
then its row's last entry, so the null vector of each free column leads
there and holds no other free column, and the vectors are the RREF of
the null space as read off.

Rows on pairwise disjoint columns need no elimination, a single row
among them: the RREF is each nonzero row times the conjugate of its
leading entry, divided by the integer gcd of its parts (the
normalisation ``_rref`` gives each pivot row), in the order of their
leading columns.  A column shared by two rows sends ``row_basis`` to
``_rref``.  Nor does ``split``, the tensor factors of a row space with
one side a single row: it reads each row as a matrix through the
inverse of a table and tests it for rank one, the row and the column
through its first nonzero entry p being its factors when every entry
times p is their product.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cache
from itertools import chain
from math import gcd, lcm
from re import fullmatch

from .errors import InputError

Rational = int | Fraction


class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rational = 0, im: Rational = 0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @staticmethod
    def of(value: "ScalarLike") -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(value)

    def __add__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return GaussianRational.of(other) - self

    def __mul__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im) if self.im else self

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            o = GaussianRational.of(other)
            return self.re == o.re and self.im == o.im
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        im = f"{self.im}i" if abs(self.im) != 1 else ("i" if self.im > 0 else "-i")
        if self.re == 0:
            return im
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{im}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


ScalarLike = int | Fraction | GaussianRational

ZERO = GaussianRational(0)
ONE = GaussianRational(1)


class Matrix:
    """Immutable matrix of Gaussian rationals: the nonzero integer parts of
    each row over one denominator."""

    __slots__ = ("triples", "den", "rows", "cols", "_hash")

    def __init__(self, entries: Iterable[Iterable[ScalarLike]], cols: int | None = None):
        rows = [[GaussianRational.of(x) for x in row] for row in entries]
        if cols is None and not rows:
            raise ValueError("empty matrix needs an explicit column count")
        cols = len(rows[0]) if cols is None else cols
        if any(len(r) != cols for r in rows):
            raise ValueError(f"every row needs {cols} entries")
        scaled = []
        for row in rows:
            nonzero = [(j, x) for j, x in enumerate(row) if x]
            s = lcm(*(q.denominator for _, x in nonzero for q in (x.re, x.im)))
            scaled.append(([(j, x.re.numerator * (s // x.re.denominator),
                             x.im.numerator * (s // x.im.denominator))
                            for j, x in nonzero], s))
        m = Matrix.from_parts(scaled, cols)
        self.triples, self.den, self.rows, self.cols = m.triples, m.den, m.rows, cols
        self._hash = None

    @staticmethod
    def _of(triples: tuple, den: int, cols: int) -> "Matrix":
        """The matrix on the row tuples ``triples`` over ``den``, as they are."""
        m = object.__new__(Matrix)
        m.triples, m.den, m.rows, m.cols = triples, den, len(triples), cols
        m._hash = None  # computed on the first hash
        return m

    @staticmethod
    def from_parts(rows: Sequence[tuple], cols: int) -> "Matrix":
        """The matrix whose row k is x_k / s_k, for ``rows`` given as
        (x_k, s_k) with s_k > 0 and x_k the nonzero Gaussian-integer
        entries of the row as (col, re, im) triples in ascending column
        order.

        Rows on one shared denominator, as products, ``apply``,
        ``tensor``, ``split`` and ``gather`` give them, are taken as they
        are; otherwise every row is brought to the lcm of the s_k.  That
        denominator is then divided by its gcd with every part, a scan
        that stops once the gcd is 1.
        """
        den = rows[0][1] if rows else 1
        for _, s in rows:
            if s != den:
                den = lcm(*(s for _, s in rows))
                rows = [(row if s == den else
                         [(c, a * (den // s), b * (den // s)) for c, a, b in row], den)
                        for row, s in rows]
                break
        g = den
        for row, _ in rows:
            if g == 1:
                break
            if row:
                g = gcd(g, *[a for _, a, _ in row], *[b for _, _, b in row])
        if g > 1:
            return Matrix._of(tuple([tuple([(c, a // g, b // g) for c, a, b in row])
                                     for row, _ in rows]), den // g, cols)
        return Matrix._of(tuple([tuple(row) for row, _ in rows]), den, cols)

    @staticmethod
    def of_integers(rows: Sequence[Sequence[tuple[int, int]]]) -> "Matrix":
        """The matrix of one or more equally long rows of Gaussian integers,
        each entry given as its (re, im) parts, built without scalars."""
        return Matrix.from_parts([([(j, a, b) for j, (a, b) in enumerate(row) if a or b], 1)
                                  for row in rows], len(rows[0]))

    @staticmethod
    @cache
    def identity(n: int) -> "Matrix":
        """The n x n identity, built once per n and shared, as a matrix is
        immutable."""
        return Matrix._of(tuple(((i, 1, 0),) for i in range(n)), 1, n)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix._of(((),) * rows, 1, cols)

    @staticmethod
    def vstack(mats: Sequence["Matrix"]) -> "Matrix":
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("column counts differ")
        return Matrix.from_parts([(row, m.den) for m in mats for row in m.triples], cols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        """The product, summed over nonzero factor pairs only; a monomial
        row times b is a row of b, scaled."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        b, den = other.triples, self.den * other.den
        out = []
        for x in self.triples:
            if len(x) == 1:
                (k, xr, xi), = x
                if xr == 1 and not xi:
                    row = b[k]
                else:
                    # Z[i] has no zero divisors, so no product vanishes
                    row = [(j, xr * yr - xi * yi, xr * yi + xi * yr)
                           for j, yr, yi in b[k]]
            else:
                re, im = {}, {}
                for k, xr, xi in x:
                    for j, yr, yi in b[k]:
                        if j in re:
                            re[j] += xr * yr - xi * yi
                            im[j] += xr * yi + xi * yr
                        else:
                            re[j] = xr * yr - xi * yi
                            im[j] = xr * yi + xi * yr
                row = [(j, re[j], im[j]) for j in sorted(re) if re[j] or im[j]]
            out.append((row, den))
        return Matrix.from_parts(out, other.cols)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def transpose(self) -> "Matrix":
        out = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.triples):
            for c, a, b in row:
                out[c].append((i, a, b))
        return Matrix._of(tuple(map(tuple, out)), self.den, self.rows)

    def conj(self) -> "Matrix":
        return Matrix._of(tuple(tuple([(c, a, -b) for c, a, b in row])
                                if any(b for _, _, b in row) else row
                                for row in self.triples), self.den, self.cols)

    def row(self, i: int) -> "Matrix":
        """Row i as a one-row matrix."""
        return Matrix.from_parts([(self.triples[i], self.den)], self.cols)

    def tensor(self, other: "Matrix", at: Sequence[Sequence[int]],
               rows_at: Sequence[Sequence[int]] | None = None) -> "Matrix":
        """The placed tensor product: for each row x of self and then each
        row y of other, the row x (x) y that puts x_j * y_l at column
        at[j][l].  ``at`` has a line per column of self and an entry per
        column of other, and its entries number the columns once each.
        A table ``rows_at`` of the same convention for the rows puts row
        x_i (x) y_k at row rows_at[i][k] instead.  Built in one pass over
        nonzero factor pairs only."""
        den = self.den * other.den
        out = []
        for x in self.triples:
            placed = [(at[j], xr, xi) for j, xr, xi in x]
            for y in other.triples:
                # Z[i] has no zero divisors, so no product vanishes
                row = [(line[l], xr * yr - xi * yi, xr * yi + xi * yr)
                       for line, xr, xi in placed for l, yr, yi in y]
                row.sort()  # columns are distinct, so only they are compared
                out.append((row, den))
        if rows_at is not None:
            placed = [None] * len(out)
            for row, r in zip(out, (r for line in rows_at for r in line)):
                placed[r] = row
            out = placed
        return Matrix.from_parts(out, self.cols * other.cols)

    def in_lead_order(self) -> "Matrix":
        """The rows, all nonzero and leading at distinct columns, sorted by
        their leading columns.  A placed tensor of RREFs (a table growing
        along each line and down each position) is reduced as built: row
        x_i (x) y_k leads with 1 at at[lead x_i][lead y_k], where every
        other row is 0.  Laid out in lead order, it is the RREF."""
        return Matrix._of(tuple(sorted(self.triples)), self.den, self.cols)

    def gather(self, rows: Iterable[int], table: Sequence[Sequence[int]]) -> "Matrix":
        """For each listed row x, in order, one row [x[c] for c in t] per
        line t of ``table``, all lines being equally long."""
        where = {}  # column -> the (line, position) pairs that read it
        for i, t in enumerate(table):
            for l, c in enumerate(t):
                where.setdefault(c, []).append((i, l))
        out = []
        for r in rows:
            lines = [[] for _ in table]
            for c, a, b in self.triples[r]:
                for i, l in where.get(c, ()):
                    lines[i].append((l, a, b))
            for line in lines:
                line.sort()
                out.append((line, self.den))
        return Matrix.from_parts(out, len(table[0]))

    @property
    def entries(self) -> tuple:
        """The rows as tuples of GaussianRational, built on each read."""
        out = []
        for row in self.triples:
            dense = [ZERO] * self.cols
            for c, a, b in row:
                dense[c] = GaussianRational(Fraction(a, self.den), Fraction(b, self.den))
            out.append(tuple(dense))
        return tuple(out)

    def sort_key(self) -> tuple:
        """A key that orders matrices totally and agrees with ``==``: the
        integer rows themselves, so that sorting builds no Fraction."""
        return (self.cols, self.den, self.triples)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.cols == other.cols and self.den == other.den
                and self.triples == other.triples)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.cols, self.den, self.triples))
        return h

    def __str__(self):
        return "\n".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.entries)

    def __repr__(self):
        return f"Matrix({self.shape[0]}x{self.shape[1]})"

    def apply(self, vectors: "Matrix") -> "Matrix":
        """The rows M x, one for each row x of ``vectors``: (M X^T)^T,
        without transposing either.  Each x is read once into a dense list
        of its (re, im) parts, and entry i of M x is then one dot product
        over the nonzero entries of row i of M."""
        if self.cols != vectors.cols:
            raise ValueError(f"cannot apply {self.shape} to rows of width {vectors.cols}")
        den = self.den * vectors.den
        zero = [(0, 0)] * self.cols
        out = []
        for x in vectors.triples:
            dense = zero.copy()
            for c, a, b in x:
                dense[c] = (a, b)
            y = []
            for i, row in enumerate(self.triples):
                re = im = 0
                for j, mr, mi in row:
                    xr, xi = dense[j]
                    re += mr * xr - mi * xi
                    im += mr * xi + mi * xr
                if re or im:
                    y.append((i, re, im))
            out.append((y, den))
        return Matrix.from_parts(out, self.rows)

    def split(self, where: Sequence[tuple[int, int]], shape: tuple[int, int]
              ) -> tuple["Matrix", "Matrix"] | None:
        """The tensor factors of the row space when one side is a single
        row.  Each row x, read as the matrix P with P[a][b] = x[c] for
        (a, b) = where[c], is split by rank one (``_split_row``) into the
        column u and the row v of P through the first nonzero entry of x.
        Returns (U, V) of the given shape: the u of every row and the one
        v that all rows share, or the one u that all share and the v of
        every row; None when a row has rank 2 or more or the rows share
        neither side.

        ``where`` inverts a table whose entries grow along each line and
        down each position, as a layout of sorted qubits does.  On an RREF
        the answer is then exact and canonical: the RREF of x (x) V is the
        rows x (x) v_k over the RREF rows v_k of V, each leading with 1
        where x and v_k lead, so each row splits into the same u = x and
        its own v_k, and those stack to the RREF of V; likewise for
        V (x) y.  On one row, U and V span its factors and lead with 1
        when the row does.  Nothing is eliminated."""
        rows = self.triples
        us, vs = [], []
        for x in rows:
            factors = _split_row(x, where)
            if factors is None:
                return None
            us.append(factors[0])
            vs.append(factors[1])
        if us.count(us[0]) == len(rows):
            us = us[:1]
        elif vs.count(vs[0]) == len(rows):
            vs = vs[:1]
        else:
            return None
        den = self.den
        return (Matrix.from_parts([(u, den) for u in us], shape[0]),
                Matrix.from_parts([(v, den) for v in vs], shape[1]))

    def flatten(self) -> "Matrix":
        """The rows one after another, as one row."""
        row = [(i * self.cols + c, a, b)
               for i, x in enumerate(self.triples) for c, a, b in x]
        return Matrix.from_parts([(row, self.den)], self.rows * self.cols)

    def _work(self) -> list:
        """The nonzero rows as elimination rows: dicts col -> (re, im)."""
        return [{c: (a, b) for c, a, b in row} for row in self.triples if row]

    def row_basis(self) -> "Matrix":
        """The nonzero rows of the RREF: a canonical basis of the row space.
        Rows on pairwise disjoint columns need no elimination: each scaled
        to lead with 1 as ``_lead_one`` scales a pivot row, and sorted by
        leading column, they are the RREF."""
        rows = [row for row in self.triples if row]
        if len(rows) > 1 and (len({c for row in rows for c, _, _ in row})
                              < sum(map(len, rows))):
            return Matrix.from_parts(_rref(self._work(), self.cols)[0], self.cols)
        # distinct leads, so the sort compares leading columns only
        rows = [_lead_one(row) for row in sorted(rows)]
        # Each x / s is in lowest terms, as x is primitive and s one of its
        # parts; so is the stack over d = lcm(s): a prime power dividing d
        # exactly divides some s, whose row x (d / s) keeps a part it does
        # not divide.
        d = lcm(*[s for _, s in rows])
        return Matrix._of(tuple([tuple(x) if s == d else
                                 tuple([(c, a * (d // s), b * (d // s)) for c, a, b in x])
                                 for x, s in rows]), d, self.cols)

    def kernel_basis(self) -> "Matrix":
        """Rows spanning the right null space {x : M x = 0}, in RREF; there
        are cols - rank of them.  One ``_rref``, of the rows fed bottom-up
        with column c relabelled cols-1-c, so that each pivot is its row's
        last entry: the null vector of a free column f then leads at f and
        holds no other free column, so the vectors are the RREF as they
        stand, with no second elimination."""
        last = self.cols - 1
        # bottom-up, as a row lower in an RREF tends to end further right:
        # the relabelled leads then come about in the ascending order in
        # which _eliminate looks for them
        rows, pivots = _rref([{last - c: (a, b) for c, a, b in row}
                              for row in reversed(self.triples) if row], self.cols)
        # Free column f gives e_f - sum_r (x_r[f] / s_r) e_{c_r}, where x_r /
        # s_r is RREF row r with pivot column c_r > f; scaled by d, the lcm
        # of those s_r.  The rows lead relabelled in ascending order, so
        # taken in reverse their pivots c_r ascend.
        hits = {}  # free column -> the (c_r, re, im, s_r) with x_r[f] != 0
        for (row, s), p in zip(reversed(rows), reversed(pivots)):
            for j, a, b in row[1:]:
                hits.setdefault(last - j, []).append((last - p, a, b, s))
        vectors = []
        for f in sorted(set(range(self.cols)).difference(last - p for p in pivots)):
            h = hits.get(f, ())
            d = lcm(*(s for *_, s in h))
            vectors.append(([(f, d, 0)] + [(c, -a * (d // s), -b * (d // s))
                                           for c, a, b, s in h], d))
        return Matrix.from_parts(vectors, self.cols)

    def solve(self, rhs: "Matrix") -> "Matrix":
        """The X with self * X = rhs, for an invertible square self: the
        RREF of [self | rhs] is [I | X], one elimination."""
        n = self.rows
        if self.cols != n or rhs.rows != n:
            raise ValueError(f"cannot solve {self.shape} * X = {rhs.shape}")
        # [self | rhs] with every row times den * rhs.den, a positive integer
        work = []
        for row, right in zip(self.triples, rhs.triples):
            joined = {c: (a * rhs.den, b * rhs.den) for c, a, b in row}
            for c, a, b in right:
                joined[n + c] = (a * self.den, b * self.den)
            if joined:
                work.append(joined)
        rows, pivots = _rref(work, n + rhs.cols)
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix.from_parts([([(c - n, a, b) for c, a, b in row if c >= n], s)
                                  for row, s in rows], rhs.cols)


def _split_row(x: tuple, where: Sequence[tuple[int, int]]
               ) -> tuple[list, list] | None:
    """The rank-one split of a nonzero row x read as P[a][b] = x[c] for
    (a, b) = where[c], the table of ``where`` growing along each line and
    down each position: the column u and the row v of P through its first
    nonzero entry p = P[a0][b0], as (index, re, im) triples in order, when
    P = u v^T / p; None when P has rank 2 or more.

    P has rank one exactly when P[a][b] p = u[a] v[b] for every a, b.
    Both sides vanish off the support of u times that of v, so it is
    enough that x has as many nonzero entries as that product and that
    each one lies in it and satisfies the equation.  One pass in column
    order does: an entry (a, b) of a rank-one P comes after (a, b0) and
    (a0, b), as a >= a0 and b >= b0, or P[a0][b] or P[a][b0] would
    precede p."""
    _, pr, pi = x[0]
    a0, b0 = where[x[0][0]]
    u, v = {}, {}
    for c, yr, yi in x:
        a, b = where[c]
        if b == b0:
            u[a] = (yr, yi)
            if a == a0:
                v[b] = (yr, yi)
            continue
        if a == a0:
            v[b] = (yr, yi)
            continue
        ua, vb = u.get(a), v.get(b)
        if ua is None or vb is None:
            return None
        (ur, ui), (vr, vi) = ua, vb
        if (yr * pr - yi * pi != ur * vr - ui * vi
                or yr * pi + yi * pr != ur * vi + ui * vr):
            return None
    if len(x) != len(u) * len(v):
        return None
    return ([(a, *y) for a, y in u.items()], [(b, *y) for b, y in v.items()])


# A row whose largest part reaches this is divided by its Gaussian content.
_GAUSSIAN_GCD_FROM = 1 << 64


def _gaussian_gcd(x: tuple, y: tuple) -> tuple:
    """A gcd in Z[i] of x and y, (re, im) pairs, by Euclid.

    A step replaces (x, y) by (y, x - q y), q being x / y = x conj(y) /
    N(y) rounded part by part, which leaves N(x - q y) <= N(y) / 2.  Every
    step keeps the ideal (x, y), and N(y) falls each round."""
    xr, xi = x
    yr, yi = y
    while yr or yi:
        n = yr * yr + yi * yi
        tr, ti = xr * yr + xi * yi, xi * yr - xr * yi
        qr, qi = (2 * tr + n) // (2 * n), (2 * ti + n) // (2 * n)
        xr, xi, yr, yi = yr, yi, xr - qr * yr + qi * yi, xi - qr * yi - qi * yr
    return xr, xi


def _primitive(row: dict) -> dict:
    """The elimination row ``row`` divided by its integer content, and, when
    a part is still 64 bits or longer, by the Gaussian gcd of its entries."""
    parts = list(chain.from_iterable(row.values()))
    g = gcd(*parts)
    if g > 1:
        row = {j: (a // g, b // g) for j, (a, b) in row.items()}
    if max(parts) < g * _GAUSSIAN_GCD_FROM > -min(parts):
        return row
    # The Gaussian content c divides every x_1 conj(x_j), x_1 being the first
    # entry, so its norm N(c) divides their parts' gcd m, and so does c: most
    # often m is 1, and else Euclid starts from m.
    pairs = row.values()
    ar, ai = next(iter(pairs))
    m = gcd(*[ar * a + ai * b for a, b in pairs], *[ai * a - ar * b for a, b in pairs])
    if m == 1:
        return row
    content = (m, 0)
    for pair in pairs:
        cr, ci = content = _gaussian_gcd(pair, content)
        n = cr * cr + ci * ci
        if n == 1:  # a unit
            return row
    # x / c = x conj(c) / N(c), exactly
    return {j: ((a * cr + b * ci) // n, (b * cr - a * ci) // n)
            for j, (a, b) in row.items()}


def _clear(row: dict, c: int, pivot: dict) -> dict:
    """``row`` with column c cleared by the pivot row ``pivot``: row -
    (row[c]/p)*pivot when p = pivot[c] divides row[c] in the Gaussian
    integers, else p*row - row[c]*pivot made primitive again (see
    ``_primitive``).  ``row`` may be updated in place."""
    pr, pi = pivot[c]
    fr, fi = row[c]
    n = pr * pr + pi * pi
    qr, qi = fr * pr + fi * pi, fi * pr - fr * pi  # row[c] conj(p) = (row[c]/p) n
    scaled = qr % n or qi % n
    if scaled:
        row = {j: (pr * a - pi * b, pr * b + pi * a) for j, (a, b) in row.items()}
    else:
        fr, fi = qr // n, qi // n
    for j, (x, y) in pivot.items():
        dr, di = fr * x - fi * y, fr * y + fi * x
        old = row.get(j)
        if old is None:
            row[j] = (-dr, -di)
        elif old[0] != dr or old[1] != di:
            row[j] = (old[0] - dr, old[1] - di)
        else:
            del row[j]
    return _primitive(row) if scaled and row else row


def _eliminate(work: list, cols: int) -> list:
    """Fraction-free Gauss-Jordan elimination over the Gaussian integers.

    Each row of ``work`` is a nonempty dict from column to its nonzero
    (re, im) parts, and may be updated in place.  Forward, the next pivot
    column c is the least leading column of the rows not yet pivots; of
    the rows leading there, one leading with the least norm becomes the
    pivot row (any would do: ``_rref`` makes the result unique, but a
    small pivot keeps entries small), and ``_clear`` clears c from the
    others.  A row's leading column is kept beside it and found again only
    when an operation clears it.  Backward, each pivot row is cleared at
    the pivot columns it holds by the pivot rows below it, which are
    reduced already, so only its own entries are visited.  Returns the
    pivot columns; ``work`` is left holding the pivot rows, row k with
    zeros in every pivot column but pivots[k].
    """
    # a row cleared to zero leads at ``cols``, past every column
    leads = [min(row) for row in work]
    pivots = []
    r = 0
    while r < len(work):
        rest = leads[r:]
        c = min(rest)
        if c == cols:
            break
        others = range(rest.count(c) - 1)  # the rows leading at c but one
        k = i = leads.index(c, r)
        a, b = work[k][c]
        least = a * a + b * b
        for _ in others:
            if least == 1:
                break
            i = leads.index(c, i + 1)
            a, b = work[i][c]
            if a * a + b * b < least:
                least, k = a * a + b * b, i
        work[r], work[k], leads[k] = work[k], work[r], leads[r]
        i = r
        for _ in others:
            i = leads.index(c, i + 1)
            work[i] = row = _clear(work[i], c, work[r])
            leads[i] = min(row) if row else cols
        pivots.append(c)
        r += 1
    del work[r:]
    if r < 2:
        return pivots
    where = {c: k for k, c in enumerate(pivots)}
    for k in range(r - 2, -1, -1):
        row = work[k]
        for j in [j for j in row if j in where and j != pivots[k]]:
            row = _clear(row, j, work[where[j]])
        work[k] = row
    return pivots


def _rref(work: list, cols: int) -> tuple[list, list]:
    """The nonzero RREF rows of the elimination rows ``work`` and their
    pivot columns.  Each row is (x, s), x its (col, re, im) triples in
    column order, standing for x / s with pivot 1, as ``_lead_one``
    scales it, since a pivot row's pivot is its first entry.  Fewer than
    two rows need no elimination: one row is ``_lead_one`` of itself."""
    pivots = _eliminate(work, cols) if len(work) > 1 else [min(row) for row in work]
    rows = [_lead_one([(j, a, b) for j, (a, b) in sorted(row.items())])
            for row in work]
    return rows, pivots


def _lead_one(row: Sequence[tuple]) -> tuple[Sequence[tuple], int]:
    """The nonzero row ``row`` of (col, re, im) triples in column order as
    (x, s), x / s being the row scaled to lead with 1: row x with first
    entry p, times conj(p), made primitive over the integers, has the
    positive integer s as its first entry.  A row that leads with a
    positive integer and is primitive already is its own x."""
    _, pr, pi = row[0]
    if pi or pr < 0:  # a positive integer p leaves primitive(x) as it is
        row = [(j, a * pr + b * pi, b * pr - a * pi) for j, a, b in row]
    g = gcd(*[a for _, a, _ in row], *[b for _, _, b in row])
    if g == 1:
        return row, row[0][1]
    return [(j, a // g, b // g) for j, a, b in row], row[0][1] // g


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' with optional sign into an exact Fraction."""
    text = text.strip()
    if not fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
        raise InputError(f"bad rational {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r}") from exc
