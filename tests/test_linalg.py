"""Exact scalar and matrix arithmetic."""

import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest

from qpdl import linalg
from qpdl.frame import Frame, Subspace
from qpdl.linalg import ONE, ZERO, GaussianRational, Matrix, parse_rational

from exact_reference import quotient


def rand_scalar(rng, nonzero=False):
    while True:
        x = GaussianRational(Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
                             Fraction(rng.randint(-8, 8), rng.randint(1, 5)))
        if not nonzero or x:
            return x


def rand_matrix(rng, rows, cols):
    return Matrix([[rand_scalar(rng) for _ in range(cols)]
                   for _ in range(rows)])


def test_scalar_field_laws():
    rng = random.Random(101)
    for _ in range(200):
        a, b = rand_scalar(rng), rand_scalar(rng)
        c = rand_scalar(rng, nonzero=True)
        assert (a + b) * c == a * c + b * c
        assert a - a == ZERO
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a * a.conj()).im == 0


def test_scalar_str_forms():
    assert str(GaussianRational(3)) == "3"
    assert str(GaussianRational(0, 1)) == "i"
    assert str(GaussianRational(0, -1)) == "-i"
    assert str(GaussianRational(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4i"
    assert str(GaussianRational(0)) == "0"


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational("0") == 0
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("+5") == 5
    assert parse_rational(" 7 ") == 7


@pytest.mark.parametrize("text", ["1e3", "2.5", "1_000", "1e999999999",
                                  "1/0", "", "/2", "3/", "--1", "1/-2", "١"])
def test_parse_rational_accepts_only_p_or_p_over_q(text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="bad rational"):
        parse_rational(text)
    assert time.perf_counter() - start < 0.1


def test_rref_shape_and_rank():
    rng = random.Random(102)
    for _ in range(50):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        r = m.row_basis()
        assert r.rows <= min(m.rows, m.cols)
        assert r.row_basis().rows == r.rows
        # reduction is idempotent on the nonzero rows
        assert r.row_basis() == r


def test_kernel_is_annihilated():
    rng = random.Random(103)
    for _ in range(60):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        k = m.kernel_basis()
        assert k.rows == m.cols - m.row_basis().rows
        for i in range(k.rows):
            assert m * k.row(i).transpose() == Matrix.zeros(m.rows, 1)


def test_inverse_of_random_invertible():
    # the inverse is the solution against the identity
    rng = random.Random(104)
    found = 0
    while found < 30:
        m = rand_matrix(rng, 3, 3)
        if m.row_basis().rows < 3:
            continue
        found += 1
        inverse = m.solve(Matrix.identity(3))
        assert m * inverse == Matrix.identity(3)
        assert inverse * m == Matrix.identity(3)
        rhs = rand_matrix(rng, 3, rng.randint(1, 4))
        assert m * m.solve(rhs) == rhs


def test_conj_transpose_involution_and_product():
    rng = random.Random(106)
    for _ in range(40):
        a = rand_matrix(rng, 3, 2)
        b = rand_matrix(rng, 2, 4)
        assert a.transpose().conj().transpose().conj() == a
        assert (a * b).transpose().conj() == b.transpose().conj() * a.transpose().conj()


def test_rowspace_contains_combinations():
    rng = random.Random(107)
    for _ in range(40):
        space = Subspace(rand_matrix(rng, rng.randint(1, 3), 4), 4)
        if space.is_zero():
            continue
        coeffs = [rand_scalar(rng) for _ in range(space.dim)]
        target = [ZERO] * 4
        for c, i in zip(coeffs, range(space.dim)):
            target = [t + c * x for t, x in zip(target, space.basis.entries[i])]
        assert space.contains_subspace(Subspace(Matrix([target]), 4))


def test_rowspace_rejects_outside():
    space = Subspace(Matrix([[1, 0, 0, 0], [0, 1, 0, 0]]), 4)
    assert not space.contains_subspace(Subspace(Matrix([[0, 0, 1, 0]]), 4))
    assert not space.contains_subspace(
        Subspace(Matrix([[1, 1, GaussianRational(0, 1), 0]]), 4))
    assert space.contains_subspace(
        Subspace(Matrix([[GaussianRational(3, -2), Fraction(1, 7), 0, 0]]), 4))


# ----- differential test against Gauss-Jordan over the Gaussian rationals ----


def reference_reduced(m):
    """Gauss-Jordan elimination done entirely in Fractions: the routine
    the Gaussian-integer core replaced, kept as its oracle."""
    work = [list(row) for row in m.entries]
    pivots = []
    r = 0
    for c in range(m.cols):
        pivot_row = next((i for i in range(r, len(work))
                          if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = quotient(ONE, work[r][c])
        work[r] = [inv * x for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots


def reference_row_basis(m):
    work, pivots = reference_reduced(m)
    return Matrix(work[:len(pivots)], cols=m.cols)


def reference_kernel_basis(m):
    work, pivots = reference_reduced(m)
    vectors = []
    for f in sorted(set(range(m.cols)) - set(pivots)):
        v = [ZERO] * m.cols
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -work[r][f]
        vectors.append(v)
    return reference_row_basis(Matrix(vectors, cols=m.cols))


def reference_inverse(m):
    n = m.rows
    aug = Matrix([list(row) + [ONE if i == j else ZERO for j in range(n)]
                  for i, row in enumerate(m.entries)], cols=2 * n)
    work, pivots = reference_reduced(aug)
    if pivots[:n] != list(range(n)):
        return None
    return Matrix([row[n:] for row in work], cols=n)


def exact(rows):
    """Entries as (re, im) Fraction pairs, so equality is entry for entry."""
    return [[(x.re, x.im) for x in row] for row in rows]


def assert_canonical(m, want=None):
    """m holds, row by row, its nonzero entries as (col, re, im) triples
    of ints in ascending column order over a positive denominator sharing
    no factor with them, so its triples are the one form of its entries;
    with ``want``, a list of rows of scalars, the entries are exactly
    those."""
    assert type(m.den) is int and m.den > 0
    assert type(m.triples) is tuple and len(m.triples) == m.rows
    parts = []
    for row in m.triples:
        assert type(row) is tuple
        assert all(type(t) is tuple and len(t) == 3 for t in row)
        columns = [c for c, _, _ in row]
        assert columns == sorted(set(columns))                 # ascending
        assert all(type(c) is int and 0 <= c < m.cols for c in columns)
        assert all(type(a) is int and type(b) is int for _, a, b in row)
        assert all(a or b for _, a, b in row)                  # no zero stored
        parts += [x for _, a, b in row for x in (a, b)]
    assert gcd(m.den, *parts) == 1
    if want is not None:
        assert exact(m.entries) == exact(
            [[GaussianRational.of(x) for x in row] for row in want])


def pivot_columns(m):
    return [next(c for c, x in enumerate(row) if x) for row in m.entries]


def combination_matrix(rng, rows, cols, rank, scalar):
    """rows x cols matrix whose rows are random combinations of `rank` rows."""
    base = [[scalar() for _ in range(cols)] for _ in range(rank)]
    out = []
    for _ in range(rows):
        coeffs = [rand_scalar(rng) for _ in range(rank)]
        out.append([sum((c * b[j] for c, b in zip(coeffs, base)), ZERO)
                    for j in range(cols)])
    return Matrix(out, cols=cols)


def differential_inputs():
    rng = random.Random(108)
    small = lambda: rand_scalar(rng)
    sparse = lambda: rand_scalar(rng) if rng.random() < 0.4 else ZERO
    complex_ = lambda: GaussianRational(
        Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4)))
    huge = lambda: GaussianRational(
        Fraction(rng.randint(-10 ** 15, 10 ** 15), rng.randint(1, 10 ** 12)),
        Fraction(rng.randint(-10 ** 15, 10 ** 15), rng.randint(1, 10 ** 12)))
    real = lambda: GaussianRational(
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    out = [Matrix([], cols=c) for c in range(1, 5)]
    for scalar in (small, sparse, complex_, huge, real):
        for n in range(1, 6):                                      # square
            out.append(Matrix([[scalar() for _ in range(n)] for _ in range(n)]))
        for _ in range(25):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            out.append(Matrix([[scalar() for _ in range(cols)]
                               for _ in range(rows)]))
        for _ in range(10):
            rows, cols = rng.randint(1, 3), rng.randint(5, 9)    # wide
            out.append(Matrix([[scalar() for _ in range(cols)]
                               for _ in range(rows)]))
            out.append(Matrix([[scalar() for _ in range(rows)]  # tall
                               for _ in range(cols)]))
        for _ in range(15):
            n = rng.randint(2, 6)
            out.append(combination_matrix(rng, n, n, rng.randint(1, n - 1),
                                          scalar))                 # singular
            rows, cols = rng.randint(2, 7), rng.randint(2, 7)
            out.append(combination_matrix(rng, rows, cols,
                                          rng.randint(1, 2), scalar))
        for _ in range(10):
            rows, cols = rng.randint(2, 6), rng.randint(1, 6)
            entries = [[scalar() for _ in range(cols)] for _ in range(rows)]
            for i in rng.sample(range(rows), rng.randint(1, rows - 1)):
                entries[i] = [ZERO] * cols                         # zero rows
            out.append(Matrix(entries, cols=cols))
    return out


def test_elimination_matches_fraction_reference():
    for m in differential_inputs():
        assert_canonical(m)
        assert Matrix(m.entries, cols=m.cols) == m
        work, pivots = reference_reduced(m)
        assert_canonical(Matrix(work, cols=m.cols), work)
        basis = m.row_basis()
        assert_canonical(basis, work[:len(pivots)])
        assert pivot_columns(basis) == pivots
        assert m.row_basis().rows == len(pivots)
        kernel = m.kernel_basis()
        assert kernel.shape == (m.cols - len(pivots), m.cols)
        assert_canonical(kernel, reference_kernel_basis(m).entries)
        if m.rows == m.cols:
            want = reference_inverse(m)
            if want is None:
                with pytest.raises(ValueError):
                    m.solve(Matrix.identity(m.rows))
            else:
                assert_canonical(m.solve(Matrix.identity(m.rows)), want.entries)


def spanning_sets(rng, base):
    """Spanning sets of the row space of ``base``: its rows permuted,
    scaled by nonzero Gaussian scalars, with combinations of them and
    zero rows mixed in."""
    rows = list(base.entries)
    width = base.cols

    def combine():
        coeffs = [rand_scalar(rng) for _ in rows]
        return [sum((c * r[j] for c, r in zip(coeffs, rows)), ZERO)
                for j in range(width)]

    for _ in range(4):
        scales = [rand_scalar(rng, nonzero=True) for _ in rows]
        out = [[c * x for x in r] for c, r in zip(scales, rows)]
        out += [combine() for _ in range(rng.randint(0, 2))]
        out += [[ZERO] * width for _ in range(rng.randint(0, 2))]
        rng.shuffle(out)
        yield Matrix(out, cols=width)


def test_spanning_sets_of_one_subspace_give_one_value():
    rng = random.Random(110)
    checked = 0
    for base in differential_inputs():
        if not base.rows or rng.random() < 0.6:
            continue
        want = Subspace(base, base.cols)
        for m in spanning_sets(rng, base):
            assert Subspace(m, m.cols) is want
            checked += 1
    assert checked >= 300


def ortho_inputs():
    """Subspaces at ambient 1..16: zero, full, and spans of k random small
    Gaussian-integer rows padded with a dependent one, for k = 1, about
    half the ambient dimension and one less than it."""
    rng = random.Random(111)
    small = lambda: GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
    for n in range(1, 17):
        yield Subspace.zero(n)
        yield Subspace.full(n)
        for k in sorted({1, n // 2, n - 1} - {0}):
            rows = [[small() for _ in range(n)] for _ in range(k)]
            rows.append([a - b for a, b in zip(rows[0], rows[-1])])
            yield Subspace(Matrix(rows), n)


def test_memoised_ortho_matches_uncached_kernel_and_fraction_reference():
    checked = 0
    for s in ortho_inputs():
        n = s.ambient
        perp = s.ortho()
        assert s.ortho() is perp and perp.ortho() is s
        assert Subspace(s.basis.conj().kernel_basis(), n) is perp
        want = reference_kernel_basis(Matrix(reference_conj(s.basis), cols=n))
        assert_canonical(perp.basis, want.entries)
        assert perp.dim == n - s.dim
        checked += 1
    assert checked >= 70


def test_ortho_eliminates_once_cold_and_never_warm(monkeypatch):
    rng = random.Random(112)
    subs = [Subspace(rand_matrix(rng, k, n), n)
            for n in range(2, 9) for k in range(1, n)]
    calls = []
    eliminate = linalg._eliminate

    def counted(work, cols):
        calls.append(cols)
        return eliminate(work, cols)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    for s in subs:
        calls.clear()
        perp = s.ortho()
        # one reversed elimination of the basis rows; a ray's one row needs none
        assert calls == ([s.ambient] if s.dim > 1 else [])
        calls.clear()
        assert s.ortho() is perp and perp.ortho() is s
        assert calls == []


def two_elimination_kernel_basis(m):
    """The RREF kernel basis by the route ``kernel_basis`` replaced: the
    RREF of m's rows in column order, one null vector per free column,
    and a second ``_rref`` of those vectors."""
    rows, pivots = linalg._rref(m._work(), m.cols)
    hits = {}  # free column -> the (pivot, re, im, s) of the rows holding it
    for (row, s), c in zip(rows, pivots):
        for j, a, b in row:
            if j != c:
                hits.setdefault(j, []).append((c, a, b, s))
    vectors = []
    for f in sorted(set(range(m.cols)).difference(pivots)):
        h = hits.get(f, ())
        d = lcm(*(s for *_, s in h))
        vector = {f: (d, 0)}
        for c, a, b, s in h:
            vector[c] = (-a * (d // s), -b * (d // s))
        vectors.append(vector)
    return Matrix.from_parts(linalg._rref(vectors, m.cols)[0], m.cols)


def kernel_inputs():
    """Matrices of 1 to 2^12 columns: Gaussian rays, zero and full spans,
    lifted part (x) I spans, random spans of fewer and of more than half
    the columns, the conjugated RREF bases that ``ortho`` hands on, and
    the products conj(P) A^T that ``_meet_from`` forms."""
    rng = random.Random(2033)
    gaussian = lambda: GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                                        rng.choice((0, rng.randint(-9, 9))))
    small = lambda: GaussianRational(rng.choice((0, 0, 1, -1, 2, -3)),
                                     rng.choice((0, 0, 1, -2)))
    out = []
    for n in range(13):
        dim = 2 ** n
        out += [Matrix([[gaussian() for _ in range(dim)]]),
                Matrix.zeros(rng.randint(1, 3), dim), Matrix.identity(dim)]
        if 1 <= n <= 5:
            for k in sorted({1, dim // 2 - 1, dim // 2 + 1, dim - 1} - {0}) * 3:
                out.append(Matrix([[small() for _ in range(dim)] for _ in range(k)]))
    for n, width in [(1, 1), (2, 1), (3, 2), (4, 1), (5, 3), (6, 2), (10, 2), (12, 1)]:
        fr = Frame(n)
        qubits = rng.sample(range(1, n + 1), width)
        amps = [gaussian() for _ in range(2 ** width)]
        amps[rng.randrange(len(amps))] = ONE
        out.append(fr.state_lift(amps, qubits).basis)
    subs = [Subspace(m, m.cols) for m in out if m.cols <= 32]
    out += [s.basis.conj() for s in subs if not s.is_zero()]
    for s in subs:
        if 1 < s.ambient <= 16 and not s.is_zero() and not s.is_full():
            others = [t for t in subs if t.ambient == s.ambient and not t.is_zero()]
            out += [s._against_ortho(t) for t in rng.sample(others, 2)]
    return out


def test_kernel_basis_matches_the_two_elimination_route(monkeypatch):
    calls = []
    eliminate = linalg._eliminate

    def counted(work, cols):
        calls.append((len(work), cols))
        return eliminate(work, cols)

    inputs = kernel_inputs()
    assert len(inputs) >= 150 and max(m.cols for m in inputs) == 4096
    monkeypatch.setattr(linalg, "_eliminate", counted)
    for m in inputs:
        want = two_elimination_kernel_basis(m)
        calls.clear()
        assert m.kernel_basis() == want
        # at most one elimination, of the input's own nonzero rows
        own = sum(1 for row in m.triples if row)
        assert calls == ([(own, m.cols)] if own > 1 else [])


def test_projector_matches_fraction_gram_inverse():
    # B^T G^-1 conj(B) for the Gram matrix G = conj(B) B^T, with the
    # inverse and the products in Fractions, against one solve in G
    checked = 0
    for s in ortho_inputs():
        if s.is_zero() or s.ambient > 10:
            continue
        b = s.basis
        cb = Matrix(reference_conj(b), cols=b.cols)
        bt = Matrix(reference_transpose(b), cols=b.rows)
        inverse = reference_inverse(reference_product(cb, bt))
        want = reference_product(reference_product(bt, inverse), cb)
        assert_canonical(s.projector(), want.entries)
        checked += 1
    assert checked >= 30


# ----- differential test against the dense triple-loop product ---------------


def reference_product(a, b):
    """The dense (row, column, k) product over Gaussian rationals that the
    sparse integer kernel replaced, kept as its oracle."""
    cols = list(zip(*b.entries)) if b.entries else [()] * b.cols
    out = []
    for row in a.entries:
        out_row = []
        for col in cols:
            acc = ZERO
            for x, y in zip(row, col):
                if x and y:
                    acc = acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return Matrix(out, cols=b.cols)


def reference_apply(m, vec):
    v = [GaussianRational.of(x) for x in vec]
    out = []
    for row in m.entries:
        acc = ZERO
        for x, y in zip(row, v):
            if x and y:
                acc = acc + x * y
        out.append(acc)
    return tuple(out)


def assert_exact_scalars(rows):
    for row in rows:
        assert isinstance(row, tuple)
        for x in row:
            assert isinstance(x, GaussianRational)
            assert type(x.re) is Fraction and type(x.im) is Fraction


def reference_conj(m):
    return [[x.conj() for x in row] for row in m.entries]


def reference_transpose(m):
    return [list(col) for col in zip(*m.entries)] if m.rows else [[]] * m.cols


def product_inputs():
    rng = random.Random(109)
    small = lambda: rand_scalar(rng)
    sparse = lambda: rand_scalar(rng) if rng.random() < 0.3 else ZERO
    complex_ = lambda: GaussianRational(
        Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4)))
    huge = lambda: GaussianRational(
        Fraction(rng.randint(-10 ** 15, 10 ** 15), rng.randint(1, 10 ** 12)),
        Fraction(rng.randint(-10 ** 15, 10 ** 15), rng.randint(1, 10 ** 12)))
    real = lambda: GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    fill = lambda rows, cols, scalar: Matrix(
        [[scalar() for _ in range(cols)] for _ in range(rows)], cols=cols)
    pairs = []
    for k in range(4):                                  # empty shapes
        for r in range(3):
            pairs.append((Matrix([], cols=k), fill(k, r, small)))
            pairs.append((fill(r, k, small), fill(k, 0, small)))
            pairs.append((fill(r, 0, small), Matrix([], cols=k)))
    for n in range(1, 6):                               # zero and identity
        m = fill(n, n, complex_)
        pairs += [(Matrix.zeros(n, n), m), (m, Matrix.zeros(n, 2)),
                  (Matrix.identity(n), m), (m, Matrix.identity(n)),
                  (Matrix.identity(n), Matrix.identity(n))]
    for n in range(1, 5):                               # lifted gates
        fr = Frame(n)
        gates = [fr.gate(kind, (q,)).matrix for kind in "XZH"
                 for q in range(1, n + 1)]
        gates += [fr.gate("CNOT", (i, j)).matrix for i in range(1, n + 1)
                  for j in range(1, n + 1) if i != j]
        for _ in range(12):
            g, h = rng.choice(gates), rng.choice(gates)
            pairs += [(g, h), (g, fill(fr.dim, rng.randint(1, 3), sparse)),
                      (fill(rng.randint(1, 3), fr.dim, complex_), h)]
        for _ in range(3):                              # Gram-inverse projectors
            sub = Subspace(fill(rng.randint(1, fr.dim), fr.dim, sparse), fr.dim)
            p = sub.projector()
            pairs += [(p, rng.choice(gates)), (sub.basis.conj(), p),
                      (p, fill(fr.dim, fr.dim, complex_))]
    for scalar in (small, sparse, complex_, huge, real):
        for _ in range(20):
            r, k, c = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
            pairs.append((fill(r, k, scalar), fill(k, c, scalar)))
        for _ in range(8):
            k = rng.randint(5, 9)
            pairs.append((fill(rng.randint(1, 3), k, scalar),        # wide
                          fill(k, rng.randint(1, 3), scalar)))
            m = rng.randint(1, 3)
            pairs.append((fill(k, m, scalar), fill(m, k, scalar)))   # tall
            pairs.append((fill(k, k, scalar), fill(k, k, sparse)))   # square
    return rng, pairs


def test_product_matches_dense_reference():
    rng, pairs = product_inputs()
    assert len(pairs) >= 400
    for a, b in pairs:
        got, want = a * b, reference_product(a, b)
        assert got.shape == want.shape == (a.rows, b.cols)
        assert_exact_scalars(got.entries)
        assert_canonical(got, want.entries)
        for m in (a, b):
            assert_canonical(m.conj(), reference_conj(m))
            assert_canonical(m.transpose(), reference_transpose(m))
            assert m.transpose().conj().transpose().conj() == m
            for i, row in enumerate(m.entries):
                assert_canonical(m.row(i), [row])
            for j, col in enumerate(reference_transpose(m)):
                assert_canonical(m.transpose().row(j), [col])
        if a.cols == b.cols:
            assert_canonical(Matrix.vstack([a, b]), a.entries + b.entries)
        vectors = [[0] * a.cols, [ONE if j == a.cols - 1 else ZERO
                                  for j in range(a.cols)]]
        vectors.append([rand_scalar(rng) for _ in range(a.cols)])
        if b.cols:                                      # a column of b
            vectors.append(b.transpose().entries[rng.randrange(b.cols)])
        for v in vectors:                               # zero, basis, dense
            got_v = (a * Matrix([v], cols=a.cols).transpose()).transpose()
            assert_exact_scalars(got_v.entries)
            assert exact(got_v.entries) == exact([reference_apply(a, v)])
    for n in range(6):
        assert_canonical(Matrix.identity(n),
                         [[ONE if i == j else ZERO for j in range(n)] for i in range(n)])
        for c in range(4):
            assert_canonical(Matrix.zeros(n, c), [[ZERO] * c] * n)
            assert Matrix.zeros(n, c) == Matrix([[0] * c] * n, cols=c)
    with pytest.raises(ValueError):
        Matrix.identity(2) * Matrix.identity(3)
    with pytest.raises(ValueError):
        Matrix.identity(2) * Matrix([[1, 0, 0]]).transpose()


def test_apply_matches_the_transposed_product():
    # PartialMap.image_of's one matrix-vector pass against (M B^T)^T, the
    # product with two transposes it replaced, on maps with kernels and
    # bases of 1 to 2^n rows
    rng = random.Random(125)
    sparse = lambda: rand_scalar(rng) if rng.random() < 0.4 else ZERO
    fill = lambda rows, cols, scalar: Matrix(
        [[scalar() for _ in range(cols)] for _ in range(rows)], cols=cols)
    cases = 0
    for n in range(1, 5):
        fr = Frame(n)
        dim = fr.dim
        maps = [Matrix.zeros(dim, dim), Matrix.identity(dim),
                fr.gate("H", (1,)).matrix, fr.gate("X", (n,)).matrix,
                fill(dim, dim, sparse), rand_matrix(rng, dim, dim),
                Subspace(fill(rng.randint(1, dim - 1), dim, sparse), dim).projector()]
        maps += [combination_matrix(rng, dim, dim, rng.randint(1, dim - 1), sparse)
                 for _ in range(2)]
        for m in maps:
            bases = [fill(k, dim, sparse) for k in range(1, dim + 1)]
            bases += [rand_matrix(rng, rng.randint(1, dim), dim),
                      Subspace(rand_matrix(rng, rng.randint(1, dim), dim), dim).basis,
                      Matrix.zeros(1, dim), Matrix.identity(dim)]
            for b in bases:
                got = m.apply(b)
                assert got == (m * b.transpose()).transpose()
                assert_canonical(got)
                assert got.shape == b.shape
                cases += 1
            b = bases[-3]
            assert exact(m.apply(b).entries) == exact(
                [reference_apply(m, x) for x in b.entries])
    assert cases >= 400
    with pytest.raises(ValueError):
        Matrix.identity(2).apply(Matrix.identity(3))


# The routines that apply and from_parts replaced, as they stood, kept as
# their differential oracles beside the Fraction references.
def replaced_from_parts(rows, cols):
    den = lcm(*(s for _, s in rows))
    g = den
    scaled = []
    for row, s in rows:
        if s != den:
            f = den // s
            row = [(c, a * f, b * f) for c, a, b in row]
        if g > 1 and row:
            g = gcd(g, *[a for _, a, _ in row], *[b for _, _, b in row])
        scaled.append(row)
    if g > 1:
        scaled = [[(c, a // g, b // g) for c, a, b in row] for row in scaled]
    return Matrix._of(tuple(map(tuple, scaled)), den // g, cols)


def replaced_apply(m, vectors):
    where = [[] for _ in range(m.cols)]
    for r, x in enumerate(vectors.triples):
        for c, a, b in x:
            where[c].append((r, a, b))
    out = [[] for _ in vectors.triples]
    for i, row in enumerate(m.triples):
        if len(row) == 1:
            (j, mr, mi), = row
            for r, xr, xi in where[j]:
                out[r].append((i, mr * xr - mi * xi, mr * xi + mi * xr))
            continue
        re, im = {}, {}
        for j, mr, mi in row:
            for r, xr, xi in where[j]:
                if r in re:
                    re[r] += mr * xr - mi * xi
                    im[r] += mr * xi + mi * xr
                else:
                    re[r] = mr * xr - mi * xi
                    im[r] = mr * xi + mi * xr
        for r, a in re.items():
            if a or im[r]:
                out[r].append((i, a, im[r]))
    den = m.den * vectors.den
    return replaced_from_parts([(row, den) for row in out], m.rows)


def apply_inputs():
    """(M, X) pairs: M with dense, monomial and empty rows, X with 0, 1
    and many rows, zero rows among them, both over denominators above 1
    and with real, imaginary and complex entries."""
    rng = random.Random(139)
    imaginary = lambda: GaussianRational(0, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    real = lambda: GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    kinds = (lambda: rand_scalar(rng, nonzero=True), imaginary, real)

    def row(cols, kind):
        scalar = rng.choice(kinds)
        if kind == "dense":
            return [scalar() or ONE for _ in range(cols)]
        if kind == "monomial":
            out = [ZERO] * cols
            out[rng.randrange(cols)] = scalar() or ONE
            return out
        if kind == "empty":
            return [ZERO] * cols
        return [scalar() if rng.random() < 0.4 else ZERO for _ in range(cols)]

    pairs = []
    for cols in (1, 2, 3, 4, 8):
        for _ in range(12):
            m = Matrix([row(cols, rng.choice(("dense", "monomial", "empty", "sparse")))
                        for _ in range(rng.randint(1, 2 * cols))], cols=cols)
            for count in (0, 1, rng.randint(2, 2 * cols + 1)):
                x = [row(cols, rng.choice(("dense", "monomial", "sparse")))
                     for _ in range(count)]
                if count > 1:                           # a zero row among them
                    x[rng.randrange(count)] = [ZERO] * cols
                pairs.append((m, Matrix(x, cols=cols)))
    return pairs


def test_apply_matches_the_replaced_routine_and_fractions():
    pairs = apply_inputs()
    assert len(pairs) >= 150
    assert any(m.den > 1 and x.den > 1 for m, x in pairs)
    for m, x in pairs:
        got = m.apply(x)
        assert got == replaced_apply(m, x)
        assert got.shape == (x.rows, m.rows)
        assert_canonical(got, [reference_apply(m, v) for v in x.entries])


def from_parts_inputs():
    """Row lists over mixed, equal and single denominators, with empty
    rows, no rows, and common factors of the denominator and every part."""
    rng = random.Random(140)

    def parts(cols):
        return [(c, rng.randint(-9, 9), rng.randint(-9, 9))
                for c in sorted(rng.sample(range(cols), rng.randint(0, cols)))
                if rng.random() < 0.8]

    def nonzero(row):
        return [(c, a, b) for c, a, b in row if a or b]

    cases = []
    for cols in (1, 2, 3, 5, 8):
        cases.append(([], cols))
        for _ in range(15):
            count = rng.randint(1, 5)
            rows = [nonzero(parts(cols)) for _ in range(count)]
            mixed = [(row, rng.randint(1, 12)) for row in rows]
            shared = rng.randint(1, 12)
            f = rng.randint(2, 6)               # a factor of den and every part
            scaled = [([(c, a * f, b * f) for c, a, b in row], shared * f)
                      for row in rows]
            cases += [(mixed, cols), ([(row, shared) for row in rows], cols),
                      (scaled, cols), (scaled[:1], cols), (mixed[:1], cols),
                      ([([], shared * f)] * count, cols)]
    return cases


def test_from_parts_matches_the_replaced_routine_and_fractions():
    cases = from_parts_inputs()
    assert len(cases) >= 400
    for rows, cols in cases:
        got = Matrix.from_parts(rows, cols)
        assert got == replaced_from_parts(rows, cols)
        assert got.shape == (len(rows), cols)
        want = []
        for row, s in rows:
            dense = [ZERO] * cols
            for c, a, b in row:
                dense[c] = GaussianRational(Fraction(a, s), Fraction(b, s))
            want.append(dense)
        assert_canonical(got, want)


def test_the_identity_of_each_size_is_built_once():
    assert Matrix.identity(5) is Matrix.identity(5)
    assert Matrix.identity(5) == Matrix.of_integers(
        [[(int(i == j), 0) for j in range(5)] for i in range(5)])


def test_one_row_row_basis_matches_rref(monkeypatch):
    # a single row is normalised without elimination, to the row that
    # _rref makes of it
    rng = random.Random(126)
    rows = []
    for cols in range(1, 10):
        for _ in range(12):
            lead = rng.randrange(cols)
            rows.append([ZERO] * lead + [rand_scalar(rng, nonzero=True)]
                        + [rand_scalar(rng) if rng.random() < 0.6 else ZERO
                           for _ in range(cols - lead - 1)])
        rows.append([ZERO] * cols)
        # negative and Gaussian leads, and a common Gaussian factor 1 + 2i
        rows.append([GaussianRational(-3)] + [GaussianRational(6, -9)] * (cols - 1))
        rows.append([ZERO] * (cols - 1) + [GaussianRational(0, Fraction(2, 7))])
        rows.append([GaussianRational(1, 2) * rand_scalar(rng, nonzero=True)
                     for _ in range(cols)])
        rows.append([GaussianRational(Fraction(-10 ** 20, 3), 10 ** 19)]
                    + [rand_scalar(rng) for _ in range(cols - 1)])
    matrices = [Matrix([row]) for row in rows]
    wants = [Matrix.from_parts(linalg._rref(m._work(), m.cols)[0], m.cols)
             for m in matrices]
    calls = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda work, cols: calls.append(cols) or eliminate(work, cols))
    for m, want, row in zip(matrices, wants, rows):
        got = m.row_basis()
        assert got == want
        assert_canonical(got)
        if any(row):
            lead = next(x for x in got.entries[0] if x)
            assert got.rows == 1 and lead == ONE
        else:
            assert got.rows == 0
    assert calls == []


def disjoint_matrix(rng, cols):
    """Rows of one to three nonzero scalars on pairwise disjoint columns,
    taken from a random order of the columns, so that the rows lead in
    any order, with up to two zero rows among them."""
    free = rng.sample(range(cols), cols)
    rows = []
    while free and rng.random() < 0.8:
        row = [ZERO] * cols
        k = rng.randint(1, 3)
        for c in free[:k]:
            row[c] = rand_scalar(rng, nonzero=True)
        del free[:k]
        rows.append(row)
    rows += [[ZERO] * cols for _ in range(rng.randint(0, 2))]
    rng.shuffle(rows)
    return Matrix(rows, cols=cols)


def test_disjoint_row_basis_matches_rref_and_fractions(monkeypatch):
    # rows on pairwise disjoint columns are scaled to lead with 1 and
    # sorted by leading column, the RREF that _rref and Fraction
    # Gauss-Jordan give, with no elimination
    rng = random.Random(140)
    matrices = [disjoint_matrix(rng, cols) for cols in range(1, 13) for _ in range(20)]
    i = GaussianRational(0, 1)
    matrices += [
        Matrix([[0, 0, 5, 0], [-3 * i, 0, 0, 0], [0, 0, 0, 0],
                [0, GaussianRational(2, 7), 0, GaussianRational(-10 ** 20, 10 ** 19)]]),
        Matrix([[0, 0, 0, 1 + 2 * i], [0, 0, -4, 0], [0, Fraction(1, 3), 0, 0],
                [Fraction(-6, 5) * i, 0, 0, 0]]),
        Matrix([[0, 0, 0]] * 3),
        Matrix([[0, 0, 7 - i]]),
    ]
    wants = [Matrix.from_parts(linalg._rref(m._work(), m.cols)[0], m.cols)
             for m in matrices]
    references = [reference_row_basis(m) for m in matrices]
    calls = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda work, cols: calls.append(cols) or eliminate(work, cols))
    for m, want, reference in zip(matrices, wants, references):
        got = m.row_basis()
        assert got == want == reference
        assert_canonical(got)
        assert pivot_columns(got) == sorted(pivot_columns(got))
    assert calls == []
    leads = [[next((c for c, x in enumerate(row) if x), None) for row in m.entries]
             for m in matrices]
    nonzero = [[c for c in lead if c is not None] for lead in leads]
    # one row, several, zero rows mixed in, leads out of order, Gaussian entries
    assert {len(lead) for lead in nonzero} >= {0, 1, 2, 3, 4}
    assert sum(None in lead and len(lead) > 1 for lead in leads) >= 20
    assert sum(lead != sorted(lead) for lead in nonzero) >= 50
    assert sum(any(x.im for row in m.entries for x in row) for m in matrices) >= 100


def test_a_shared_column_is_eliminated(monkeypatch):
    # rows that share any column, a leading one or not, go to _rref
    rng = random.Random(141)
    matrices = [Matrix([[1, 1], [0, 1]]), Matrix([[0, 1, 2], [1, 0, 3]]),
                Matrix([[0, 0, 2, 1], [1, 0, 0, 0], [0, 0, 0, 0], [0, 3, 0, 5]])]
    while len(matrices) < 150:
        m = disjoint_matrix(rng, rng.randint(2, 10))
        rows = [list(row) for row in m.entries if any(row)]
        if len(rows) < 2:
            continue
        # another row's column, leading or not, joins this row
        a, b = rng.sample(range(len(rows)), 2)
        c = rng.choice([c for c, x in enumerate(rows[b]) if x])
        rows[a][c] = rand_scalar(rng, nonzero=True)
        matrices.append(Matrix(rows))
    references = [reference_row_basis(m) for m in matrices]
    for m, reference in zip(matrices, references):
        calls = []
        eliminate = linalg._eliminate
        monkeypatch.setattr(linalg, "_eliminate",
                            lambda work, cols: calls.append(cols) or eliminate(work, cols))
        got = m.row_basis()
        monkeypatch.setattr(linalg, "_eliminate", eliminate)
        assert got == reference
        assert_canonical(got)
        assert len(calls) >= 1


# ----- differential test of the placed tensor and the gather ------------------


def reference_tensor(a, b, at):
    """Row x (x) y for each row x of a, then each row y of b, with
    x_j * y_l at column at[j][l], from GaussianRational products."""
    out = []
    for x in a.entries:
        for y in b.entries:
            row = [ZERO] * (a.cols * b.cols)
            for j, xj in enumerate(x):
                for l, yl in enumerate(y):
                    row[at[j][l]] = xj * yl
            out.append(row)
    return out


def reference_gather(m, rows, table):
    return [[m.entries[r][c] for c in t] for r in rows for t in table]


def index_tables(rng, k, m):
    """Tables with k lines of m entries numbering k*m columns once each:
    row-major, column-major, a random permutation, and, for powers of two,
    frame layouts of shuffled qubits."""
    perm = rng.sample(range(k * m), k * m)
    tables = [[range(j * m, (j + 1) * m) for j in range(k)],
              [[j + l * k for l in range(m)] for j in range(k)],
              [perm[j * m:(j + 1) * m] for j in range(k)]]
    n, part = (k * m).bit_length() - 1, k.bit_length() - 1
    if k * m == 2 ** n and k == 2 ** part and n:
        tables.append(Frame(n).layout(rng.sample(range(1, n + 1), part)))
    return tables


def tensor_inputs():
    rng = random.Random(110)
    sparse = lambda: rand_scalar(rng) if rng.random() < 0.4 else ZERO
    real = lambda: GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    mixed = lambda: GaussianRational(   # denominators differ entry by entry
        Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 12, 35])),
        Fraction(rng.randint(-9, 9), rng.choice([1, 4, 5, 9, 11])))
    fill = lambda rows, cols, scalar: Matrix(
        [[scalar() for _ in range(cols)] for _ in range(rows)], cols=cols)
    mats = []
    for cols in range(1, 5):
        mats += [Matrix.identity(cols), Matrix.zeros(1, cols), Matrix([], cols=cols),
                 fill(1, cols, mixed), fill(1, cols, real)]
        for scalar in (lambda: rand_scalar(rng), sparse, real, mixed):
            mats.append(fill(rng.randint(1, 3), cols, scalar))
        with_zero = fill(3, cols, mixed).entries
        mats.append(Matrix([with_zero[0], [ZERO] * cols, with_zero[2]]))
    return rng, mats


def test_tensor_and_gather_match_entrywise_products():
    rng, mats = tensor_inputs()
    pairs = 0
    for a in mats:
        for b in rng.sample(mats, 12):
            for at in index_tables(rng, a.cols, b.cols):
                got = a.tensor(b, at)
                assert got.shape == (a.rows * b.rows, a.cols * b.cols)
                want = reference_tensor(a, b, at)
                assert_canonical(got, want)
                pairs += 1
                if a.rows and b.rows:
                    # rows placed by a table of the same convention
                    rows_at = rng.choice(index_tables(rng, a.rows, b.rows))
                    placed = [None] * len(want)
                    for row, r in zip(want, (r for line in rows_at for r in line)):
                        placed[r] = row
                    assert_canonical(a.tensor(b, at, rows_at), placed)
        for table in index_tables(rng, a.cols, 1) + [
                [[rng.randrange(a.cols) for _ in range(3)] for _ in range(2)],
                [list(range(a.cols))[::-1]]]:
            for rows in ([], list(range(a.rows)),
                         [rng.randrange(a.rows) for _ in range(4)] if a.rows else []):
                got = a.gather(rows, table)
                assert got.shape == (len(rows) * len(table), len(table[0]))
                assert_canonical(got, reference_gather(a, rows, table))
    assert pairs >= 500
    # the row-major table gives the Kronecker product
    i = GaussianRational(0, 1)
    assert Matrix([[1, 2]]).tensor(Matrix([[3, i]]), [range(0, 2), range(2, 4)]) \
        == Matrix([[3, i, 6, 2 * i]])


# ----- the sparse form: shapes with few nonzeros, hashing, entry growth -------


def sparse_shape_inputs():
    """Matrices of the shapes lifted gates and states take: monomial rows,
    rows of two nonzeros, zero rows among them, one-row matrices and
    width 64, with small Gaussian entries of mixed denominators."""
    rng = random.Random(113)

    def scalar():
        return GaussianRational(Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])),
                                Fraction(rng.randint(-4, 4), rng.choice([1, 5])))

    def nonzero():
        while True:
            x = scalar()
            if x:
                return x

    def with_nonzeros(rows, cols, k):
        out = [[ZERO] * cols for _ in range(rows)]
        for row in out:
            for c in rng.sample(range(cols), min(k, cols)):
                row[c] = nonzero()
        return out

    mats = []
    for cols in (1, 2, 3, 5, 8, 16, 64):
        for rows in (1, 2, 4, 7):
            mats.append(Matrix(with_nonzeros(rows, cols, 1), cols=cols))   # monomial
            mats.append(Matrix(with_nonzeros(rows, cols, 2), cols=cols))   # two nonzeros
            entries = with_nonzeros(rows, cols, rng.choice([1, 2]))
            for i in rng.sample(range(rows), rows // 2):
                entries[i] = [ZERO] * cols                               # zero rows
            mats.append(Matrix(entries, cols=cols))
        # a permutation matrix with phases, and one with a row repeated
        perm = rng.sample(range(cols), cols)
        if cols <= 16:
            mats.append(Matrix([[nonzero() if c == perm[r] else ZERO
                                 for c in range(cols)] for r in range(cols)]))
        mats.append(Matrix([[ONE if c == perm[r % len(perm[:2])] else ZERO
                             for c in range(cols)] for r in range(3)]))
    return rng, mats


def test_sparse_shapes_match_fraction_references():
    rng, mats = sparse_shape_inputs()
    assert len(mats) >= 95
    for m in mats:
        assert_canonical(m)
        assert all(len(row) <= 2 for row in m.triples) or m.rows == m.cols
        work, pivots = reference_reduced(m)
        basis = m.row_basis()
        assert_canonical(basis, work[:len(pivots)])
        assert_canonical(m.kernel_basis(), reference_kernel_basis(m).entries)
        assert_canonical(m.conj(), reference_conj(m))
        assert_canonical(m.transpose(), reference_transpose(m))
        for i in range(m.rows):
            assert_canonical(m.row(i), [m.entries[i]])
        other = rng.choice([x for x in mats if x.rows == m.cols] or [Matrix.identity(m.cols)])
        assert_canonical(m * other, reference_product(m, other).entries)
        if m.rows == m.cols:
            want = reference_inverse(m)
            if want is not None:
                assert_canonical(m.solve(Matrix.identity(m.rows)), want.entries)
        if m.cols <= 8:
            small = rng.choice([x for x in mats if x.cols <= 4])
            for at in index_tables(rng, m.cols, small.cols):       # permuted tables
                assert_canonical(m.tensor(small, at), reference_tensor(m, small, at))
        for table in index_tables(rng, m.cols, 1):
            assert_canonical(m.gather(range(m.rows), table),
                             reference_gather(m, range(m.rows), table))


def test_equal_matrices_built_by_different_routes_hash_alike():
    rng = random.Random(114)
    i = GaussianRational(0, 1)
    checked = 0
    for cols in (1, 2, 4, 8):
        for _ in range(10):
            entries = [[rand_scalar(rng) if rng.random() < 0.5 else ZERO
                        for _ in range(cols)] for _ in range(rng.randint(1, 4))]
            m = Matrix(entries, cols=cols)
            routes = [
                Matrix([list(row) for row in m.entries], cols=cols),
                m * Matrix.identity(cols),
                Matrix.identity(m.rows) * m,
                m.transpose().transpose(),
                m.conj().conj(),
                Matrix.vstack([m.row(k) for k in range(m.rows)]),
                m.gather(range(m.rows), [range(cols)]),
                m.tensor(Matrix.identity(1), [[c] for c in range(cols)]),
                Matrix([[x * i for x in row] for row in m.entries], cols=cols)
                * Matrix([[-i if c == r else 0 for c in range(cols)] for r in range(cols)]),
            ]
            for other in routes:
                assert other == m and hash(other) == hash(m)
                assert other.triples == m.triples and other.den == m.den
                checked += 1
            assert hash(m) == hash(m) == m._hash      # computed once, then kept
    assert checked >= 300
    # interning finds one subspace for equal bases built apart
    basis = Matrix([[1, 0, i, 0], [0, 1, 0, 1]]).row_basis()
    again = (Matrix([[0, 2, 0, 2], [3, 0, 3 * i, 0]])).row_basis()
    assert again is not basis and again == basis and hash(again) == hash(basis)
    assert Subspace(basis, 4) is Subspace(again, 4)


def ideal_norm(x, y):
    """The index in Z^2 of the ideal (x, y) of Z[i], which is the norm of
    its generator: the lattice spanned by x, ix, y and iy, whose index is
    the gcd of the 2x2 minors of those four vectors."""
    vectors = [x, (-x[1], x[0]), y, (-y[1], y[0])]
    return gcd(*[a[0] * b[1] - a[1] * b[0]
                 for k, a in enumerate(vectors) for b in vectors[k + 1:]])


def test_gaussian_gcd_generates_the_ideal():
    # a common divisor whose norm is the ideal's index generates the ideal
    rng = random.Random(115)

    def times(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def divides(d, a):
        n = d[0] ** 2 + d[1] ** 2
        t = times(a, (d[0], -d[1]))
        return t[0] % n == 0 and t[1] % n == 0

    for bits in (2, 30, 120, 400, 1500):
        for _ in range(12):
            rand = lambda k: rng.randint(-2 ** k, 2 ** k)
            common = (rand(bits // 3), rand(bits // 3))
            x = times(common, (rand(bits), rand(bits)))
            y = times(common, (rand(bits), rand(bits)))
            if rng.random() < 0.2:
                y = times(x, (rand(8), rand(8)))                 # y a multiple of x
            got = linalg._gaussian_gcd(x, y)
            assert got[0] ** 2 + got[1] ** 2 == ideal_norm(x, y)
            assert divides(got, x) and divides(got, y) and divides(common, got)
    assert linalg._gaussian_gcd((6, 0), (0, 0)) == (6, 0)
    assert linalg._gaussian_gcd((5, 0), (1, 2)) in {(1, 2), (-1, -2), (2, -1), (-2, 1)}


def cold_ortho_largest_parts():
    """For each ambient n in 8..16, the bit length of the largest part that
    _eliminate leaves in the cold ortho of the span of n - 1 random rows
    with entries in {-2..2} + {-2..2}i: the one reversed elimination of
    its RREF basis.  The line it gives is a ray, so the line's own cold
    ortho eliminates nothing."""
    rng = random.Random(2026)
    largest = []
    eliminate = linalg._eliminate

    def recording(work, cols):
        pivots = eliminate(work, cols)
        largest.append(max(abs(x) for row in work for pair in row.values()
                           for x in pair).bit_length())
        return pivots

    out = []
    for n in range(8, 17):
        rows = [[GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
                 for _ in range(n)] for _ in range(n - 1)]
        span = Subspace(Matrix(rows), n)
        largest.clear()
        linalg._eliminate = recording
        try:
            line = span.ortho()
            assert len(largest) == 1
            # what a cold line.ortho() runs: its memo link is set already
            perp = Subspace(line.basis.conj().kernel_basis(), n, _canonical=True)
            assert len(largest) == 1
        finally:
            linalg._eliminate = eliminate
        assert line.dim == 1 and perp is span and line.ortho() is span
        out.append(largest[0])
    return out


def test_cold_ortho_entries_stay_bounded():
    # Rows whose parts outgrow 64 bits are divided by their Gaussian
    # content; without that the same eliminations leave parts of up to
    # 358 bits here.
    assert cold_ortho_largest_parts() == [58, 53, 38, 55, 64, 51, 54, 58, 64]
