"""Exact dense linear algebra over the Gaussian rationals.

Scalars are complex numbers whose real and imaginary parts are
``fractions.Fraction`` values, so all arithmetic here is exact.  Row
reduction (rank, reduced row echelon form, kernels, inverses) runs on
Gaussian integers: each row is scaled to integer real and imaginary
parts and eliminated fraction-free, and only the final reduced form is
turned back into Fractions.  Products run on Gaussian integers too, over
nonzero factor pairs only: each row of the left factor and each column of
the right one is scaled to integers, and each output entry is built once.
Matrices are immutable; reduced row echelon form (with pivots normalised
to 1) is the canonical representative used for subspace identity
throughout the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

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

    def __truediv__(self, other):
        o = GaussianRational.of(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero scalar")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        return GaussianRational.of(other) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im) if self.im else self

    def abs2(self) -> Fraction:
        """Squared modulus; always a nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return not (self.re or self.im)

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

_NIL = Fraction(0)
ZERO = GaussianRational(_NIL)
ONE = GaussianRational(1)


class Matrix:
    """Immutable dense matrix of Gaussian rationals."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries: Iterable[Iterable[ScalarLike]], cols: Optional[int] = None):
        rows = tuple(tuple(GaussianRational.of(x) for x in row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged matrix")
            if cols is not None and cols != width:
                raise ValueError("cols mismatch")
            cols = width
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self.entries = rows
        self.rows = len(rows)
        self.cols = cols

    @staticmethod
    def _of_rows(rows: tuple, cols: int) -> "Matrix":
        """A matrix on ``rows``, a tuple of equal-length tuples of
        GaussianRational, taken as they are."""
        m = object.__new__(Matrix)
        m.entries = rows
        m.rows = len(rows)
        m.cols = cols
        return m

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._of_rows(tuple(tuple(ONE if i == j else ZERO for j in range(n))
                                     for i in range(n)), n)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix._of_rows(((ZERO,) * cols,) * rows, cols)

    @staticmethod
    def vstack(mats: Sequence["Matrix"]) -> "Matrix":
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("column counts differ")
        return Matrix._of_rows(tuple(row for m in mats for row in m.entries), cols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        return Matrix._of_rows(_product(self.entries, other.entries, other.cols),
                               other.cols)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def apply(self, vec: Sequence[ScalarLike]) -> tuple:
        """Matrix-vector product, the vector given and returned as a tuple."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        column = [(GaussianRational.of(x),) for x in vec]
        return tuple(row[0] for row in _product(self.entries, column, 1))

    def transpose(self) -> "Matrix":
        if not self.entries:
            return Matrix._of_rows(((),) * self.cols, 0)
        return Matrix._of_rows(tuple(zip(*self.entries)), self.rows)

    def conj(self) -> "Matrix":
        return Matrix._of_rows(tuple(tuple(x.conj() for x in row) for row in self.entries),
                               self.cols)

    def conj_transpose(self) -> "Matrix":
        return self.transpose().conj()

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.entries for x in row)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries

    def __hash__(self):
        return hash((self.shape, self.entries))

    def __str__(self):
        return "\n".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.entries)

    def __repr__(self):
        return f"Matrix({self.shape[0]}x{self.shape[1]})"

    def _integer_rows(self) -> list:
        """The nonzero rows, each scaled by the lcm of its denominators
        into a primitive Gaussian-integer row."""
        work = []
        for row in self.entries:
            parts = [x.re for x in row] + [x.im for x in row]
            dens = [q.denominator for q in parts]
            den = lcm(*dens)
            nums = [q.numerator * (den // d) for q, d in zip(parts, dens)]
            if any(nums):
                work.append(_primitive(nums[:self.cols], nums[self.cols:]))
        return work

    def _reduced(self) -> tuple[list, list]:
        """The nonzero RREF rows (pivots normalised to 1) and the pivot columns."""
        work = self._integer_rows()
        pivots = _eliminate(work, self.cols)
        return _rational_rows(work, pivots), pivots

    def rank(self) -> int:
        return len(_eliminate(self._integer_rows(), self.cols))

    def row_basis(self) -> "Matrix":
        """The nonzero rows of the RREF: a canonical basis of the row space."""
        return Matrix(self._reduced()[0], cols=self.cols)

    def kernel_basis(self) -> "Matrix":
        """Rows spanning the right null space {x : M x = 0}, in RREF;
        there are cols - rank of them."""
        work = self._integer_rows()
        pivots = _eliminate(work, self.cols)
        # Free column f gives e_f - sum_r (x_r[f] / p_r) e_{c_r}, where x_r is
        # pivot row r and p_r = x_r[c_r]; scaled by the lcm of the |p_r|^2.
        norms = [re[c] * re[c] + im[c] * im[c] for (re, im), c in zip(work, pivots)]
        den = lcm(*norms)
        vectors = []
        for f in sorted(set(range(self.cols)) - set(pivots)):
            re, im = [0] * self.cols, [0] * self.cols
            re[f] = den
            for (xr, xi), c, norm in zip(work, pivots, norms):
                pr, pi, a, b = xr[c], xi[c], xr[f], xi[f]
                re[c] = (a * pr + b * pi) * (-den // norm)
                im[c] = (b * pr - a * pi) * (-den // norm)
            vectors.append(_primitive(re, im))
        pivots = _eliminate(vectors, self.cols)
        return Matrix(_rational_rows(vectors, pivots), cols=self.cols)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        aug = Matrix([list(row) + list(idrow) for row, idrow in
                      zip(self.entries, Matrix.identity(n).entries)], cols=2 * n)
        work, pivots = aug._reduced()
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix([row[n:] for row in work], cols=n)


def _product(a: Sequence[tuple], b: Sequence[tuple], cols: int) -> tuple:
    """The rows of the product of the rows ``a`` and the ``cols``-wide rows
    ``b``, over nonzero factor pairs only.

    Column j of b is scaled by e_j, the lcm of its denominators, and row i
    of a by d_i, so the sums run on Gaussian integers; entry (i, j) is the
    integer sum divided by d_i * e_j.
    """
    nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in b]
    scale = [1] * cols
    for row in nonzero:
        for j, x in row:
            scale[j] = lcm(scale[j], x.re.denominator, x.im.denominator)
    b_int = [[(j, x.re.numerator * (scale[j] // x.re.denominator),
               x.im.numerator * (scale[j] // x.im.denominator)) for j, x in row]
             for row in nonzero]
    zero_row = (ZERO,) * cols
    out = []
    for row in a:
        pairs = [(x, b_int[k]) for k, x in enumerate(row) if x and b_int[k]]
        if not pairs:
            out.append(zero_row)
            continue
        d = lcm(*(x.re.denominator for x, _ in pairs),
                *(x.im.denominator for x, _ in pairs))
        re, im = [0] * cols, [0] * cols
        for x, b_row in pairs:
            xr = x.re.numerator * (d // x.re.denominator)
            xi = x.im.numerator * (d // x.im.denominator)
            for j, yr, yi in b_row:
                re[j] += xr * yr - xi * yi
                im[j] += xr * yi + xi * yr
        out.append(tuple(_quotient(r, i, d * e) if r or i else ZERO
                         for r, i, e in zip(re, im, scale)))
    return tuple(out)


def _primitive(re: list, im: list) -> tuple:
    """The Gaussian-integer row (re, im) divided by its integer content."""
    g = gcd(*re, *im)
    if g > 1:
        re = [a // g for a in re]
        im = [b // g for b in im]
    return re, im


def _eliminate(work: list, cols: int) -> list:
    """Fraction-free Gauss-Jordan elimination over the Gaussian integers.

    The pivot row p clears column c from every other primitive row of
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


def _rational_rows(work: list, pivots: list) -> list:
    """Each pivot row of ``_eliminate`` divided by its pivot p, as a row of
    GaussianRational: x / p = x * conj(p) / |p|^2."""
    rows = []
    for (re, im), c in zip(work, pivots):
        pr, pi = re[c], im[c]
        norm = pr * pr + pi * pi
        rows.append([_quotient(a * pr + b * pi, b * pr - a * pi, norm) if a or b else ZERO
                     for a, b in zip(re, im)])
    return rows


def _quotient(re: int, im: int, den: int) -> GaussianRational:
    return GaussianRational(Fraction(re, den) if re else _NIL,
                            Fraction(im, den) if im else _NIL)


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' with optional sign into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}") from exc
