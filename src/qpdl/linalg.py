"""Exact matrices over the Gaussian rationals.

A scalar is a complex number whose real and imaginary parts are
``fractions.Fraction`` values.  A ``Matrix`` stores integer real and
imaginary parts over one positive common denominator ``den``: entry
(i, j) is (re[i][j] + im[i][j] i) / den, and gcd(den, every part) = 1.
That form is unique, so equal matrices hold equal integers, and equality
and hashing compare them.  The integer rows are this module's own: no
other module reads or writes them.  A vector is a one-row matrix, which
is what ``row`` returns.  Scalars appear only at the boundary: the
constructor reads ``GaussianRational`` values and ``entries`` builds
them, for printing, state files and parsed amplitudes.  No scalar is
ever divided.

Composite systems are built and read by two primitives on one
convention, a table of lines of column indices: ``tensor`` puts
x_j * y_l of x (x) y at column at[j][l], and ``gather`` reads
[x[c] for c in t] out of a row x for each line t.

Products and tensors sum over nonzero factor pairs only.  Rank, reduced
row echelon form, kernels and the solution of a square system come from
one fraction-free Gauss-Jordan elimination on the integer rows.  A
reduced row is kept as its primitive multiple with a positive integer
pivot, so it maps one-to-one onto the RREF row with pivot 1; the RREF
basis is the canonical representative used for subspace identity
throughout the package.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import itemgetter, or_
from re import fullmatch
from typing import Iterable, Optional, Sequence, Union

from .errors import InputError

Rational = Union[int, Fraction]


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


ScalarLike = Union[int, Fraction, GaussianRational]

ZERO = GaussianRational(0)
ONE = GaussianRational(1)


class Matrix:
    """Immutable matrix of Gaussian rationals: integer parts over one denominator."""

    __slots__ = ("re", "im", "den", "rows", "cols")

    def __init__(self, entries: Iterable[Iterable[ScalarLike]], cols: Optional[int] = None):
        rows = [[GaussianRational.of(x) for x in row] for row in entries]
        if cols is None and not rows:
            raise ValueError("empty matrix needs an explicit column count")
        cols = len(rows[0]) if cols is None else cols
        if any(len(r) != cols for r in rows):
            raise ValueError(f"every row needs {cols} entries")
        scaled = []
        for row in rows:
            s = lcm(*(q.denominator for x in row for q in (x.re, x.im)))
            scaled.append(([x.re.numerator * (s // x.re.denominator) for x in row],
                           [x.im.numerator * (s // x.im.denominator) for x in row], s))
        m = Matrix.from_parts(scaled, cols)
        self.re, self.im, self.den, self.rows, self.cols = m.re, m.im, m.den, m.rows, cols

    @staticmethod
    def _of(re: tuple, im: tuple, den: int, cols: int) -> "Matrix":
        """The matrix on the row tuples ``re``, ``im`` over ``den``, as they are."""
        m = object.__new__(Matrix)
        m.re, m.im, m.den, m.rows, m.cols = re, im, den, len(re), cols
        return m

    @staticmethod
    def from_parts(rows: Sequence[tuple], cols: int) -> "Matrix":
        """The matrix whose row k is (re_k + im_k i) / s_k, for ``rows`` of
        Gaussian-integer parts given as (re_k, im_k, s_k) with s_k > 0.

        Every row is brought to the lcm of the s_k, and that denominator is
        divided by its gcd with every part.  All-zero rows share one tuple.
        """
        den = lcm(*(s for _, _, s in rows))
        g = den
        scaled = []
        for re, im, s in rows:
            if s != den:
                re = [a * (den // s) for a in re]
                im = [b * (den // s) for b in im]
            if g > 1:
                g = gcd(g, *re, *im)
            scaled.append((re, im))
        zero = (0,) * cols

        def part(xs):
            if not any(xs):
                return zero
            return tuple([x // g for x in xs]) if g > 1 else tuple(xs)

        return Matrix._of(tuple(part(re) for re, _ in scaled),
                          tuple(part(im) for _, im in scaled), den // g, cols)

    @staticmethod
    def of_integers(rows: Sequence[Sequence[int]]) -> "Matrix":
        """The matrix of one or more equally long rows of Python integers,
        built without scalars."""
        zero = (0,) * len(rows[0])
        return Matrix.from_parts([(row, zero, 1) for row in rows], len(zero))

    @staticmethod
    def identity(n: int) -> "Matrix":
        zero = (0,) * n
        return Matrix._of(tuple(zero[:i] + (1,) + zero[i + 1:] for i in range(n)),
                          (zero,) * n, 1, n)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        zero = ((0,) * cols,) * rows
        return Matrix._of(zero, zero, 1, cols)

    @staticmethod
    def vstack(mats: Sequence["Matrix"]) -> "Matrix":
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("column counts differ")
        return Matrix.from_parts([(re, im, m.den) for m in mats
                                  for re, im in zip(m.re, m.im)], cols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        """The product, summed over nonzero factor pairs only."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        cols, den = other.cols, self.den * other.den
        b = other._sparse_rows()
        out = []
        for xre, xim in zip(self.re, self.im):
            re, im = [0] * cols, [0] * cols
            for xr, xi, b_row in zip(xre, xim, b):
                if xr or xi:
                    for j, yr, yi in b_row:
                        re[j] += xr * yr - xi * yi
                        im[j] += xr * yi + xi * yr
            out.append((re, im, den))
        return Matrix.from_parts(out, cols)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def transpose(self) -> "Matrix":
        if not self.rows:
            return Matrix.zeros(self.cols, 0)
        return Matrix._of(tuple(zip(*self.re)), tuple(zip(*self.im)), self.den, self.rows)

    def conj(self) -> "Matrix":
        im = tuple(tuple([-b for b in row]) if any(row) else row for row in self.im)
        return Matrix._of(self.re, im, self.den, self.cols)

    def row(self, i: int) -> "Matrix":
        """Row i as a one-row matrix."""
        return Matrix.from_parts([(self.re[i], self.im[i], self.den)], self.cols)

    def tensor(self, other: "Matrix", at: Sequence[Sequence[int]],
               rows_at: Optional[Sequence[Sequence[int]]] = None) -> "Matrix":
        """The placed tensor product: for each row x of self and then each
        row y of other, the row x (x) y that puts x_j * y_l at column
        at[j][l].  ``at`` has a line per column of self and an entry per
        column of other, and its entries number the columns once each.
        A table ``rows_at`` of the same convention for the rows puts row
        x_i (x) y_k at row rows_at[i][k] instead.  Built in one pass over
        nonzero factor pairs only."""
        cols, den = self.cols * other.cols, self.den * other.den
        b = other._sparse_rows()
        out = []
        for xre, xim in zip(self.re, self.im):
            a = [(line, xr, xi) for line, xr, xi in zip(at, xre, xim) if xr or xi]
            for b_row in b:
                re, im = [0] * cols, [0] * cols
                for line, xr, xi in a:
                    for l, yr, yi in b_row:
                        c = line[l]
                        re[c] = xr * yr - xi * yi
                        im[c] = xr * yi + xi * yr
                out.append((re, im, den))
        if rows_at is not None:
            placed = [None] * len(out)
            for row, r in zip(out, (r for line in rows_at for r in line)):
                placed[r] = row
            out = placed
        return Matrix.from_parts(out, cols)

    def gather(self, rows: Iterable[int], table: Sequence[Sequence[int]]) -> "Matrix":
        """For each listed row x, in order, one row [x[c] for c in t] per
        line t of ``table``, all lines being equally long."""
        # itemgetter of one index returns the entry, and a slice a tuple
        lines = [itemgetter(*t) if len(t) != 1 else itemgetter(slice(t[0], t[0] + 1))
                 for t in table]
        picked = [(self.re[r], self.im[r]) for r in rows]
        return Matrix.from_parts([(get(re), get(im), self.den)
                                  for re, im in picked for get in lines], len(table[0]))

    @property
    def entries(self) -> tuple:
        """The rows as tuples of GaussianRational, built on each read."""
        return tuple(tuple(_scalar(a, b, self.den) for a, b in zip(re, im))
                     for re, im in zip(self.re, self.im))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.cols == other.cols and self.den == other.den
                and self.re == other.re and self.im == other.im)

    def __hash__(self):
        return hash((self.cols, self.den, self.re, self.im))

    def __str__(self):
        return "\n".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.entries)

    def __repr__(self):
        return f"Matrix({self.shape[0]}x{self.shape[1]})"

    def _sparse_rows(self) -> list:
        """Each row as its nonzero entries, (column, re, im) triples."""
        # y | z is 0 exactly when both parts are: the scan runs in C
        return [[(j, re[j], im[j]) for j in compress(range(self.cols), map(or_, re, im))]
                for re, im in zip(self.re, self.im)]

    def _nonzero_rows(self) -> list:
        return [(re, im) for re, im in zip(self.re, self.im) if any(re) or any(im)]

    def rank(self) -> int:
        return len(_eliminate(self._nonzero_rows(), self.cols))

    def row_basis(self) -> "Matrix":
        """The nonzero rows of the RREF: a canonical basis of the row space."""
        return Matrix.from_parts(_rref(self._nonzero_rows(), self.cols)[0], self.cols)

    def kernel_basis(self) -> "Matrix":
        """Rows spanning the right null space {x : M x = 0}, in RREF;
        there are cols - rank of them."""
        return _kernel(*_rref(self._nonzero_rows(), self.cols), self.cols)

    def _kernel_of_rref(self) -> "Matrix":
        """``kernel_basis`` of a matrix whose rows already are an RREF, such
        as the conjugate of a ``row_basis``: one elimination fewer."""
        rows = [(re, im, self.den) for re, im in zip(self.re, self.im)]
        # each pivot is 1, i.e. den, the first nonzero part of its row
        pivots = [next(c for c, a in enumerate(re) if a) for re in self.re]
        return _kernel(rows, pivots, self.cols)

    def solve(self, rhs: "Matrix") -> "Matrix":
        """The X with self * X = rhs, for an invertible square self: the
        RREF of [self | rhs] is [I | X], one elimination."""
        n = self.rows
        if self.cols != n or rhs.rows != n:
            raise ValueError(f"cannot solve {self.shape} * X = {rhs.shape}")
        # [self | rhs] with every row times den * rhs.den, a positive integer
        work = [([a * rhs.den for a in re] + [c * self.den for c in rre],
                 [b * rhs.den for b in im] + [d * self.den for d in rim])
                for re, im, rre, rim in zip(self.re, self.im, rhs.re, rhs.im)]
        rows, pivots = _rref(work, n + rhs.cols)
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix.from_parts([(re[n:], im[n:], s) for re, im, s in rows], rhs.cols)


def _scalar(re: int, im: int, den: int) -> GaussianRational:
    """The entry (re + im i) / den as a GaussianRational."""
    if not (re or im):
        return ZERO
    return GaussianRational(Fraction(re, den), Fraction(im, den))


def _primitive(re: list, im: list) -> tuple:
    """The Gaussian-integer row (re, im) divided by its integer content."""
    g = gcd(*re, *im)
    if g > 1:
        re = [a // g for a in re]
        im = [b // g for b in im]
    return re, im


def _eliminate(work: list, cols: int) -> list:
    """Fraction-free Gauss-Jordan elimination over the Gaussian integers.

    The pivot row p clears column c from every other row (re, im) of
    ``work`` by ``row := p[c]*row - row[c]*p``, made primitive again.
    Returns the pivot columns; ``work`` is left holding the pivot rows,
    row k with zeros in every pivot column but pivots[k].
    """
    pivots = []
    r = 0
    for c in range(cols):
        if r == len(work):
            break
        for k in range(r, len(work)):
            if work[k][0][c] or work[k][1][c]:
                break
        else:
            continue
        work[r], work[k] = work[k], work[r]
        pre, pim = work[r]
        pr, pi = pre[c], pim[c]
        for k, (re, im) in enumerate(work):
            fr, fi = re[c], im[c]
            if k == r or not (fr or fi):
                continue
            work[k] = _primitive(
                [pr * a - pi * b - fr * x + fi * y
                 for a, b, x, y in zip(re, im, pre, pim)],
                [pr * b + pi * a - fr * y - fi * x
                 for a, b, x, y in zip(re, im, pre, pim)])
        pivots.append(c)
        r += 1
    del work[r:]
    return pivots


def _rref(work: list, cols: int) -> tuple[list, list]:
    """The nonzero RREF rows of the Gaussian-integer rows ``work`` and their
    pivot columns.  Each row is (re, im, s), standing for (re + im i) / s
    with pivot 1: pivot row x with pivot p, times conj(p), made primitive,
    has the positive integer s as its pivot."""
    pivots = _eliminate(work, cols)
    rows = []
    for (re, im), c in zip(work, pivots):
        pr, pi = re[c], im[c]
        if pi or pr < 0:  # a positive integer p leaves primitive(x) as it is
            re, im = ([a * pr + b * pi for a, b in zip(re, im)],
                      [b * pr - a * pi for a, b in zip(re, im)])
        re, im = _primitive(re, im)
        rows.append((re, im, re[c]))
    return rows, pivots


def _kernel(rows: list, pivots: list, cols: int) -> Matrix:
    """The RREF basis of the null space of a matrix already in RREF, given
    as its rows (re, im, s) with pivot s and their pivot columns: one
    elimination, of the kernel vectors."""
    # Free column f gives e_f - sum_r (x_r[f] / s_r) e_{c_r}, where x_r / s_r
    # is RREF row r with pivot column c_r; scaled by the lcm of the s_r.
    den = lcm(*(s for _, _, s in rows))
    vectors = []
    for f in sorted(set(range(cols)) - set(pivots)):
        re, im = [0] * cols, [0] * cols
        re[f] = den
        for (xr, xi, s), c in zip(rows, pivots):
            re[c] = -xr[f] * (den // s)
            im[c] = -xi[f] * (den // s)
        vectors.append((re, im))
    return Matrix.from_parts(_rref(vectors, cols)[0], cols)


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' with optional sign into an exact Fraction."""
    text = text.strip()
    if not fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
        raise InputError(f"bad rational {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r}") from exc
