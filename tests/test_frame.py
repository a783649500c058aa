"""States, subspaces, partial maps and the n-qubit frame."""

import contextlib
import gc
import io
import itertools
import random
import sys
import time
import weakref
from collections import Counter
from fractions import Fraction

import pytest

import qpdl.frame as frame_module
from qpdl import ast, linalg
from qpdl.frame import (
    GATES,
    LOCAL_STATES,
    BadIndex,
    Frame,
    PartialMap,
    Subspace,
    format_state,
    parse_state,
)
from qpdl.checker import Environment, check_valid, denote_program, eval_symbolic
from qpdl.desugar import desugar_program
from qpdl.cli import main
from qpdl.linalg import ONE, ZERO, GaussianRational, Matrix
from qpdl.parser import parse_formula, parse_program
from qpdl.regions import make_term

from exact_reference import orthogonal, product_ray, quotient
from test_linalg import (exact, reference_apply, reference_kernel_basis, reference_reduced,
                         reference_row_basis)


def rand_amps(rng, dim, real=False):
    while True:
        amps = [GaussianRational(
                    Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
                    0 if real else Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
                for _ in range(dim)]
        if any(amps):
            return tuple(amps)


def rand_sub(rng, dim, k=None):
    while True:
        rows = [rand_amps(rng, dim) for _ in range(k or rng.randint(1, dim))]
        sub = Subspace.from_rows(rows, dim)
        if not sub.is_zero():
            return sub


def counted_eliminations(monkeypatch):
    """The column counts of the eliminations run from here on."""
    calls = []
    eliminate = linalg._eliminate

    def counted(work, cols):
        calls.append(cols)
        return eliminate(work, cols)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    return calls


def test_ray_scalar_and_phase_invariance():
    rng = random.Random(201)
    fr = Frame(2)
    for _ in range(50):
        amps = rand_amps(rng, 4)
        scale = GaussianRational(Fraction(rng.randint(1, 5)),
                                 Fraction(rng.randint(-5, 5)))
        assert fr.ray(amps) == fr.ray(tuple(scale * a for a in amps))
    assert fr.ray((1, 0, 0, 1)) != fr.ray((1, 0, 0, -1))


def test_ray_is_a_one_dimensional_subspace_and_keeps_its_errors():
    fr = Frame(2)
    state = fr.ray((GaussianRational(0, 2), 1, -3, Fraction(1, 2)))
    assert isinstance(state, Subspace) and state.dim == 1
    assert state.ambient == fr.dim
    assert state.any_ray() == state
    with pytest.raises(ValueError, match="amplitude count"):
        fr.ray((1, 0))
    # the width is checked before the amplitudes
    with pytest.raises(ValueError, match="amplitude count"):
        fr.ray((0, 0, 0))
    with pytest.raises(ValueError, match="nonzero amplitude vector"):
        fr.ray((0, 0, 0, 0))


def test_inner_and_orthogonality():
    fr = Frame(1)
    a = fr.ray((1, 0))
    b = fr.ray((0, 1))
    c = fr.ray((1, 1))
    assert orthogonal(a, b)
    assert not orthogonal(a, c)
    i = GaussianRational(0, 1)
    assert orthogonal(fr.ray((1, i)), fr.ray((1, -i)))


def test_subspace_lattice_laws():
    rng = random.Random(202)
    for _ in range(40):
        s = rand_sub(rng, 4)
        t = rand_sub(rng, 4)
        assert s.ortho().ortho() is s
        assert s.join(t).ortho() == s.ortho().meet(t.ortho())
        assert s.meet(t).dim + s.join(t).dim <= s.dim + t.dim
        assert s.join(t).contains_subspace(s)
        assert s.contains_subspace(s.meet(t))


def stacked_rank_contains(big, small):
    """Containment as it was decided before the product with the
    orthocomplement: the stacked bases have rank dim(big), here by the
    Fraction elimination."""
    stacked = Matrix(big.basis.entries + small.basis.entries, cols=big.ambient)
    return len(reference_reduced(stacked)[1]) == big.dim


def test_containment_matches_stacked_rank():
    rng = random.Random(203)
    answers = set()
    for n in range(1, 5):
        dim = 2 ** n
        subs = [Subspace.zero(dim), Subspace.full(dim)]
        for k in range(1, dim + 1):
            subs.append(rand_sub(rng, dim, min(k, 3)))
        for _ in range(6):                       # subspaces of a subspace
            big = rand_sub(rng, dim)
            c = GaussianRational(rng.randint(1, 3), rng.randint(-2, 2))
            ray = Matrix([[c * x for x in big.basis.entries[0]]])
            subs += [big, Subspace(ray, dim), big.meet(rand_sub(rng, dim))]
        pairs = [(a, b) for a in subs for b in subs]
        for a, b in rng.sample(pairs, min(len(pairs), 150)):
            want = stacked_rank_contains(a, b)
            assert a.contains_subspace(b) is want
            answers.add(want)
        for s in subs:
            assert s.contains_subspace(Subspace.zero(dim))
            assert Subspace.full(dim).contains_subspace(s)
            assert Subspace.zero(dim).contains_subspace(s) is s.is_zero()
    assert answers == {True, False}


def test_intern_table_drops_dead_subspaces():
    rng = random.Random(214)
    subs = [rand_sub(rng, 8, 3) for _ in range(5)]
    keys = [s.basis for s in subs] + [s.ortho().basis for s in subs]
    assert all(frame_module._INTERNED.get(k) is not None for k in keys)
    refs = [weakref.ref(s) for s in subs]
    del subs
    gc.collect()  # a subspace and its linked orthocomplement form a cycle
    assert all(r() is None for r in refs)
    assert all(k not in frame_module._INTERNED for k in keys)


def test_equal_bases_intern_to_one_subspace():
    # cold, the constructor enters the subspace; warm, every basis of the
    # same span, canonical or not, finds that one object
    rng = random.Random(240)
    for dim in (2, 4, 8):
        for _ in range(10):
            cold = rand_sub(rng, dim)
            rows = [list(row) for row in cold.basis.entries]
            c = GaussianRational(rng.randint(1, 3), rng.randint(-2, 2))
            warm = [[c * x for x in row] for row in rows[::-1]]
            if len(rows) > 1:
                warm.append([x + y for x, y in zip(rows[0], rows[-1])])
            assert Subspace(Matrix(warm), dim) is cold
            assert Subspace(Matrix(rows), dim, _canonical=True) is cold
            assert frame_module._INTERNED[cold.basis]() is cold


def test_a_dropped_subspace_leaves_the_intern_table():
    # with the cyclic collector off: a subspace that nothing holds is freed
    # at once, and so is its entry, so the table adds no reference cycle
    key = Matrix([[1, GaussianRational(2, -1), 0, 5]])
    gc.disable()
    try:
        sub = Subspace(key, 4)
        key = sub.basis
        gone = weakref.ref(sub)
        assert frame_module._INTERNED[key]() is sub
        del sub
        assert gone() is None
        assert key not in frame_module._INTERNED
    finally:
        gc.enable()


def test_rebuilding_a_basis_never_loses_its_live_entry():
    key = Subspace(Matrix([[0, 3, GaussianRational(0, 1), 0, 1, 0, 0, 2]]), 8).basis
    for _ in range(3):                      # built, dropped and built again
        sub = Subspace(key, 8, _canonical=True)
        assert frame_module._INTERNED[key]() is sub
        del sub
        assert key not in frame_module._INTERNED
    sub = Subspace(key, 8, _canonical=True)
    old = frame_module._INTERNED[key]
    late = old.__callback__
    # a callback of another reference, run before the table's own, rebuilds
    # the basis while the dropped subspace's entry is still there
    rebuilt = []
    watch = weakref.ref(sub, lambda _: rebuilt.append(Subspace(key, 8, _canonical=True)))
    del sub
    assert watch() is None and len(rebuilt) == 1
    assert Subspace(key, 8, _canonical=True) is rebuilt[0]
    # the dropped subspace's callback, however late it runs, keeps the newer
    # entry
    late(old)
    assert frame_module._INTERNED[key]() is rebuilt[0]
    assert Subspace(key, 8, _canonical=True) is rebuilt[0]
    rebuilt.clear()
    assert key not in frame_module._INTERNED


def test_projector_is_idempotent_selfadjoint():
    rng = random.Random(203)
    for _ in range(30):
        s = rand_sub(rng, 4)
        p = s.projector()
        assert p * p == p
        assert p.transpose().conj() == p
        v = rand_amps(rng, 4)
        out = p * Matrix([v]).transpose()
        assert s.contains_subspace(Subspace(out.transpose(), 4))


def test_single_gate_tables():
    fr = Frame(1)
    table = {"X": {"0": "1", "1": "0", "+": "+"},
             "Z": {"0": "0", "1": "1", "+": "-"},
             "H": {"0": "+", "1": "-", "+": "0"}}
    for g, rows in table.items():
        pm = fr.gate(g, (1,))
        for pre, post in rows.items():
            assert pm.image_of(product_ray(fr, pre)) == product_ray(fr, post)


def test_h_matrix_is_unnormalised():
    fr = Frame(1)
    assert fr.gate("H", (1,)).matrix == Matrix([[1, 1], [1, -1]])


def test_qubit_one_is_most_significant():
    fr = Frame(2)
    pm = fr.gate("X", (1,))
    assert pm.image_of(product_ray(fr, "00")) == fr.ray([0, 0, 1, 0])
    pm2 = fr.gate("X", (2,))
    assert pm2.image_of(product_ray(fr, "00")) == fr.ray([0, 1, 0, 0])


def test_cnot_table():
    fr = Frame(2)
    pm = fr.gate("CNOT", (1, 2))
    plain = {"00": "00", "01": "01", "0+": "0+",
             "10": "11", "11": "10", "1+": "1+"}
    for pre, post in plain.items():
        assert pm.image_of(product_ray(fr, pre)) == product_ray(fr, post)
    assert pm.image_of(product_ray(fr, "+0")) == fr.ray([1, 0, 0, 1])
    assert pm.image_of(product_ray(fr, "+1")) == fr.ray([0, 1, 1, 0])
    assert pm.image_of(product_ray(fr, "++")) == product_ray(fr, "++")


def test_layout_tables_are_permutations_with_qubit_one_high():
    for n in range(1, 5):
        fr = Frame(n)
        everything = tuple(range(1, n + 1))
        assert fr.layout(()) == (tuple(range(fr.dim)),)
        assert fr.layout(everything) == tuple((i,) for i in range(fr.dim))
        half = fr.dim // 2
        assert fr.layout((1,)) == (tuple(range(half)),
                                   tuple(range(half, fr.dim)))
        for size in range(n + 1):
            for qubits in itertools.permutations(everything, size):
                table = fr.layout(qubits)
                assert (len(table), len(table[0])) == \
                    (2 ** size, fr.dim // 2 ** size)
                assert sorted(i for row in table for i in row) == \
                    list(range(fr.dim))
                assert fr.layout(list(qubits)) is table
    with pytest.raises(BadIndex):
        Frame(2).layout((2, 2))


def test_separability_of_products_and_entangled():
    fr = Frame(2)
    rng = random.Random(205)
    for _ in range(40):
        left = rand_amps(rng, 2)
        right = rand_amps(rng, 2)
        amps = [a * b for a in left for b in right]
        got = fr.product_form(fr.ray(amps), (1,))
        assert got is not None
        assert got[0] == Frame(1).ray(left) and got[1] == Frame(1).ray(right)
    assert fr.product_form(fr.ray([1, 0, 0, 1]), (1,)) is None
    assert fr.product_form(fr.ray([0, 1, -1, 0]), (2,)) is None


def test_reachable_by_local_actions():
    fr = Frame(2)
    got = fr.reachable(product_ray(fr, "00"), (2,))
    assert got == Subspace.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]], 4)
    bell = fr.ray([1, 0, 0, 1])
    assert fr.reachable(bell, (1,)).is_full()


def test_state_lift_and_local_lift():
    fr = Frame(2)
    plus2 = fr.state_lift((1, 1), (2,))
    assert plus2.dim == 2
    assert plus2.contains_subspace(product_ray(fr, "0+"))
    assert plus2.contains_subspace(product_ray(fr, "1+"))
    assert not plus2.contains_subspace(product_ray(fr, "00"))
    assert plus2 == Subspace.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]], 4)
    assert fr.state_lift((0, 1), (1,)) == \
        Subspace.from_rows([[0, 0, 1, 0], [0, 0, 0, 1]], 4)
    both = fr.state_lift((1, 0, 0, 1), (1, 2))
    assert both.dim == 1


def test_map_to_state_of_h():
    # sum_x |x> (x) H|x> = |0+> + |1-> with amplitudes (1,1,1,-1)
    fr = Frame(2)
    g = Matrix([[1, 1], [1, -1]])
    assert fr.map_to_state(g, 1, 2) == fr.state_lift((1, 1, 1, -1), (1, 2))
    assert fr.map_to_state(Matrix.identity(2), 1, 2) == \
        fr.state_lift((1, 0, 0, 1), (1, 2))


def test_restrict_first_inverts_encoding():
    fr = Frame(2)
    rng = random.Random(206)
    for _ in range(20):
        g = Matrix([[GaussianRational(Fraction(rng.randint(-4, 4)))
                     for _ in range(2)] for _ in range(2)])
        if g == Matrix.zeros(*g.shape):
            continue
        # g tensor identity: qubit 1 is the high bit of both indices
        full = Matrix([[g.entries[r >> 1][c >> 1] if r % 2 == c % 2 else 0
                        for c in range(4)] for r in range(4)])
        got = fr.block(PartialMap(full), (1,))
        # equal up to scale: compare induced subspace of the flattened entries
        flat_got = [x for row in got.entries for x in row]
        flat_g = [x for row in g.entries for x in row]
        assert Subspace.from_rows([flat_got], 4) == \
            Subspace.from_rows([flat_g], 4)


def test_partial_map_adjoint_characterisation():
    rng = random.Random(207)
    for _ in range(60):
        m = Matrix([[GaussianRational(Fraction(rng.randint(-5, 5)),
                        Fraction(rng.randint(-5, 5))) for _ in range(4)]
                    for _ in range(4)])
        if m == Matrix.zeros(*m.shape):
            continue
        pm = PartialMap(m)
        s, t = Frame(2).ray(rand_amps(rng, 4)), Frame(2).ray(rand_amps(rng, 4))
        fs = pm.image_of(s)
        at = PartialMap(m.transpose().conj()).image_of(t)
        # t perp F(s) iff F+(t) perp s, reading undefined as orthogonal
        left = fs.is_zero() or orthogonal(fs, t)
        right = at.is_zero() or orthogonal(at, s)
        assert left == right


def test_is_local():
    fr = Frame(2)
    x1 = fr.gate("X", (1,))
    assert x1.is_local(fr, frozenset([1]))
    assert not x1.is_local(fr, frozenset([2]))
    cx = fr.gate("CNOT", (1, 2))
    assert cx.is_local(fr, frozenset([1, 2]))
    assert not cx.is_local(fr, frozenset([1]))


def test_qaction_composition():
    # a quantum action is a tuple of partial maps, one per branch: `+`
    # concatenates and `;` composes branch by branch
    fr = Frame(1)
    env = Environment(fr)
    x, z, h = (fr.gate(g, (1,)) for g in "XZH")
    assert denote_program(env, parse_program("X_1 + Z_1")) == (x, z)
    seq = denote_program(env, parse_program("(X_1 + Z_1) ; H_1"))
    assert seq == (x.then(h), z.then(h))
    outs = {b.image_of(product_ray(fr, "0")) for b in seq}
    assert outs == {product_ray(fr, "+"), product_ray(fr, "-")}


def test_check_qubits_rejects_bad_indices():
    fr = Frame(2)
    with pytest.raises(BadIndex):
        fr.check_qubits((0,))
    with pytest.raises(BadIndex):
        fr.check_qubits((3,))
    with pytest.raises(BadIndex):
        fr.check_qubits((1, 1))


def test_product_form_both_sides():
    fr = Frame(2)
    # x (x) V: the part is the ray (1, 2), the rest all of qubit 2
    lifted = fr.state_lift((1, 2), (1,))
    part, rest = fr.product_form(lifted, (1,))
    assert part == Frame(1).ray((1, 2)) and rest.is_full()
    # V (x) y: the part is all of qubit 1, the rest the ray |+>
    plus2 = Subspace.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]], 4)
    part, rest = fr.product_form(plus2, (1,))
    assert part.is_full() and rest == Frame(1).ray((1, 1))
    bell_span = fr.ray([1, 0, 0, 1])
    assert fr.product_form(bell_span, (1,)) is None
    assert fr.product_form(Subspace.zero(4), (1,)) is None


def test_entangled_ray_is_refused_without_elimination(monkeypatch):
    # the reshaped row has rank two, which the rank-one test sees at once
    fr = Frame(3)
    ray = fr.ray([1, 0, 0, 0, 0, 0, 1, 2])
    calls = counted_eliminations(monkeypatch)
    assert fr.product_form(ray, (1,)) is None
    assert calls == []


def test_state_file_round_trip():
    fr = Frame(2)
    ray = fr.ray([1, 0, GaussianRational(0, 1), Fraction(1, 2)])
    text = format_state(2, ray)
    n, back = parse_state(text)
    assert n == 2 and back == ray
    with pytest.raises(ValueError):
        parse_state("m=2\n1 0\n")
    with pytest.raises(ValueError):
        parse_state("n=1\n1 0\n")  # wrong number of amplitude lines
    with pytest.raises(ValueError):
        parse_state("n=1\n0 0\n0 0\n")  # zero vector is not a state


def test_state_file_prints_the_lead_one_amplitudes():
    fr = Frame(2)
    assert format_state(2, fr.ray([2, 0, 0, 2])) == "n=2\n1 0\n0 0\n0 0\n1 0\n"
    assert format_state(2, fr.ray([0, GaussianRational(0, 2), 0, 4])) == \
        "n=2\n0 0\n1 0\n0 0\n0 -2\n"


def test_state_file_header_is_ascii_decimal_digits():
    body = "\n1 0\n0 0\n"
    assert parse_state("n=1" + body)[0] == 1
    # int() reads all of these as 1 or 10
    for header in ("n=1_0", "n=+1", "n= 1", "n=01", "n=\u0661"):
        with pytest.raises(ValueError, match="bad qubit count"):
            parse_state(header + body)
    with pytest.raises(ValueError, match="at least one qubit"):
        parse_state("n=0" + body)


def test_state_file_qubit_count_is_bounded_by_its_lines():
    # 2 ** n is never formed for a header the body cannot match
    start = time.perf_counter()
    for header in ("n=2", "n=99999999999", "n=" + "9" * 4000):
        with pytest.raises(ValueError, match="amplitude lines"):
            parse_state(header + "\n1 0\n0 0\n")
    assert time.perf_counter() - start < 0.5


# ----- differential tests against the routines these replaced ------------------


def reference_preimage(pm, sub):
    """ker(P_perp * M) through the Gram-inverse projector onto sub's
    orthocomplement: the oracle for PartialMap.preimage_closed."""
    perp = sub.ortho()
    if perp.is_zero():
        return Subspace.full(pm.dim)
    return Subspace((perp.projector() * pm.matrix).kernel_basis(), pm.dim)


def singular_matrix(rng, dim):
    """Every row a combination of the same dim - 1 rows."""
    base = [rand_amps(rng, dim) for _ in range(dim - 1)]
    rows = []
    for _ in range(dim):
        coeffs = [rng.randint(-2, 2) for _ in base]
        rows.append([sum((c * b[j] for c, b in zip(coeffs, base)), ZERO)
                     for j in range(dim)])
    return Matrix(rows)


def preimage_inputs():
    rng = random.Random(208)
    pairs = []
    for n in (1, 2, 3):
        dim = 2 ** n
        fr = Frame(n)
        maps = [
            Matrix.zeros(dim, dim),
            Matrix.identity(dim),
            fr.gate("H", (1,)).matrix,
            fr.ray(rand_amps(rng, dim)).projector(),
            Matrix([rand_amps(rng, dim, real=True) for _ in range(dim)]),
            Matrix([rand_amps(rng, dim) for _ in range(dim)]),
            Matrix([rand_amps(rng, dim) for _ in range(dim)]),
            singular_matrix(rng, dim),
            singular_matrix(rng, dim),
            # a zero row and column
            Matrix([[0] * dim] + [rand_amps(rng, dim)[:-1] + (0,)
                                  for _ in range(dim - 1)]),
        ]
        subs = [Subspace.zero(dim), Subspace.full(dim)]
        subs += [rand_sub(rng, dim, k) for k in range(1, dim)]
        subs += [rand_sub(rng, dim, rng.randint(1, dim)) for _ in range(8 - dim)]
        subs += [product_ray(fr, "0" * n), fr.ray(rand_amps(rng, dim, real=True))]
        pairs += [(PartialMap(m), sub) for m in maps for sub in subs]
    return pairs


def test_preimage_matches_projector_reference():
    pairs = preimage_inputs()
    assert len(pairs) >= 200
    for pm, sub in pairs:
        assert pm.preimage_closed(sub) == reference_preimage(pm, sub)


def product_amps(fr, inside, part, rest):
    amps = [ZERO] * fr.dim
    for positions, x in zip(fr.layout(inside), part):
        for idx, y in zip(positions, rest):
            amps[idx] = x * y
    return amps


def eliminated(m):
    """Matrix.row_basis as it was for every matrix: the rows of _rref."""
    return Matrix.from_parts(linalg._rref(m._work(), m.cols)[0], m.cols)


def gather_factor(fr, sub, qubits):
    """Frame._factor as it was before rays were split by rank one: the
    spans of the rows and of the columns of the reshaped basis rows, each
    gathered and eliminated."""
    if sub.is_zero():
        return None
    table = fr.layout(qubits)
    rows = range(sub.dim)
    rest = Subspace(eliminated(sub.basis.gather(rows, table)), len(table[0]),
                    _canonical=True)
    if rest.dim not in (1, sub.dim):
        return None
    part = Subspace(eliminated(sub.basis.gather(rows, tuple(zip(*table)))),
                    len(table), _canonical=True)
    return (part, rest) if part.dim == 1 or rest.dim == 1 else None


def ray_split_inputs():
    """(frame, sorted qubits, amplitudes) at n = 1..5 on every sorted qubit
    subset: product rays whose factors have Gaussian, negative and zero
    leading amplitudes and zero blocks, entangled rays, some of them zero
    off a block, and |0...0>, |+...+> and |0...0> + |1...1>."""
    rng = random.Random(225)
    lead = [GaussianRational(0, Fraction(3, 2)), GaussianRational(-2),
            GaussianRational(-1, 4)]

    def factor(k):
        amps = list(rand_amps(rng, k))
        if k > 1 and rng.random() < 0.5:            # a zero block
            for i in rng.sample(range(k), rng.randrange(1, k)):
                amps[i] = ZERO
        if any(amps) and rng.random() < 0.7:        # a chosen leading amplitude
            first = next(i for i, x in enumerate(amps) if x)
            amps[first] = rng.choice(lead)
        return amps if any(amps) else [ONE] + amps[1:]

    out = []
    for n in range(1, 6):
        fr = Frame(n)
        for inside in all_subsets(n):
            k, rest_k = 2 ** len(inside), fr.dim >> len(inside)
            amps = [product_amps(fr, inside, factor(k), factor(rest_k))
                    for _ in range(4)]
            amps.append(list(rand_amps(rng, fr.dim)))
            # two products, and two products on a block
            for block in (False, True):
                x, y = (product_amps(fr, inside, factor(k), factor(rest_k))
                        for _ in range(2))
                sum_ = [a + b for a, b in zip(x, y)]
                if block:
                    sum_ = [a if i % 3 else ZERO for i, a in enumerate(sum_)]
                if any(sum_):
                    amps.append(sum_)
            amps += [[ONE] + [ZERO] * (fr.dim - 1), [ONE] * fr.dim,
                     [ONE] + [ZERO] * (fr.dim - 2) + [ONE]]
            out += [(fr, inside, a) for a in amps]
    return out


FORM_KINDS = ("zero", "full", "left", "right", "unshared", "entangled")


def form_subspace(fr, inside, kind, k, amps):
    """A subspace of the given kind on the sorted qubits ``inside``: x (x) V
    ("left") or V (x) y ("right") with k vectors spanning V, k rank-one
    rows x_l (x) y_l with no factor shared ("unshared"), k entangled rows,
    or the zero or full subspace.  ``amps(size)`` gives a nonzero
    amplitude list."""
    part_k, rest_k = 2 ** len(inside), fr.dim >> len(inside)
    if kind == "zero":
        return Subspace.zero(fr.dim)
    if kind == "full":
        return Subspace.full(fr.dim)
    if kind == "left":
        x = amps(part_k)
        rows = [product_amps(fr, inside, x, amps(rest_k)) for _ in range(k)]
    elif kind == "right":
        y = amps(rest_k)
        rows = [product_amps(fr, inside, amps(part_k), y) for _ in range(k)]
    elif kind == "unshared":
        rows = [product_amps(fr, inside, amps(part_k), amps(rest_k))
                for _ in range(k)]
    else:
        rows = [amps(fr.dim) for _ in range(k)]
    return Subspace.from_rows(rows, fr.dim)


def nonzero(amps):
    return amps if any(amps) else [ONE] + amps[1:]


def form_cases():
    """(frame, sorted qubits, kind, subspace) at n = 1..4 on every sorted
    qubit subset, each kind at every dimension it can take, from sparse
    Gaussian amplitudes."""
    rng = random.Random(232)

    def amps(size):
        return nonzero([GaussianRational(rng.randint(-2, 2),
                                         rng.randint(-1, 1) if rng.random() < 0.3 else 0)
                        for _ in range(size)])

    out = []
    for n in range(1, 5):
        fr = Frame(n)
        for inside in all_subsets(n):
            part_k, rest_k = 2 ** len(inside), fr.dim >> len(inside)
            dims = {"zero": [0], "full": [fr.dim], "left": range(1, rest_k + 1),
                    "right": range(1, part_k + 1), "unshared": range(2, 5),
                    "entangled": range(1, fr.dim + 1)}
            out += [(fr, inside, kind, form_subspace(fr, inside, kind, k, amps))
                    for kind in FORM_KINDS for k in dims[kind]]
    return out


def test_product_form_matches_the_eliminating_factor_at_every_dimension(monkeypatch):
    # Frame._factor reads the form off the RREF rows alone: the very
    # (part, rest) of the gathered and eliminated spans, or None with it,
    # with no elimination; and the split of a ray's raw row, whatever its
    # leading amplitude, spans the same factors
    rays = [(fr, inside, Matrix([a]), fr.ray(a)) for fr, inside, a in ray_split_inputs()]
    cases = form_cases() + [(fr, inside, "ray", ray) for fr, inside, _, ray in rays]
    wants = [gather_factor(fr, sub, inside) for fr, inside, _, sub in cases]
    calls = counted_eliminations(monkeypatch)
    gots = [fr._factor(sub, inside) for fr, inside, _, sub in cases]
    splits = [row.split(frame_module._where(fr.n, inside),
                        (1 << len(inside), fr.dim >> len(inside)))
              for fr, inside, row, _ in rays]
    assert calls == []
    for (fr, inside, kind, sub), want, got in zip(cases, wants, gots):
        assert got == want, (fr, inside, kind, sub.dim)
    for (fr, inside, _, _), split, want in zip(rays, splits, wants[-len(rays):]):
        assert (split is None) == (want is None)
        if split is not None:
            assert Subspace(split[0], 1 << len(inside)) is want[0]
            assert Subspace(split[1], fr.dim >> len(inside)) is want[1]
    found = {(kind, sub.dim > 1, want is None)
             for (_, _, kind, sub), want in zip(cases, wants)}
    # x (x) V and V (x) y of every size are forms; rank-one rows sharing no
    # factor and wider entangled subspaces are not
    assert {("left", True, False), ("right", True, False), ("unshared", True, True),
            ("entangled", True, True), ("entangled", False, True),
            ("zero", False, True), ("full", True, False),
            ("ray", False, False), ("ray", False, True)} <= found
    assert len(cases) >= 1300 and max(fr.n for fr, *_ in rays) == 5
    products = sum(w is not None for w in wants[-len(rays):])
    assert 0 < products < len(rays) - 60
    leads = {next(x for x in row.entries[0] if x) for _, _, row, _ in rays}
    assert len(leads - {ONE}) >= 3


def test_product_form_of_a_ray_eliminates_nothing_in_teleportation(monkeypatch):
    # every product form of a one-dimensional subspace that verify
    # teleportation computes is split by the rank-one test
    factor, eliminate = Frame._factor, linalg._eliminate
    stack, rays, within_rays = [], [], []

    def counted(fr, sub, qubits):
        stack.append(sub.dim == 1)
        rays.append(sub.dim == 1)
        try:
            return factor(fr, sub, qubits)
        finally:
            stack.pop()

    monkeypatch.setattr(Frame, "_factor", counted)
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda work, cols: within_rays.append(stack[-1:] == [True])
                        or eliminate(work, cols))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "teleportation", "--seed", "2026"]) == 0
    seen = list(within_rays)
    # the probe is in place: a basis with a shared column, outside any
    # product form, is recorded
    Matrix([[1, 1], [0, 1]]).row_basis()
    assert within_rays == seen + [False]
    # rows on disjoint columns are not eliminated, and no other basis of
    # verify teleportation has a shared column
    assert rays.count(True) >= 20 and seen == []
    assert True not in seen


def test_images_of_ray_lifts_under_x_z_and_cnot_words_eliminate_nothing(monkeypatch):
    # part (x) H_rest for a ray part holds its rows on disjoint columns, and
    # X, Z and CNOT permute and sign the basis, so an image of the lift has
    # its rows on disjoint columns too, in any lead order: its basis is the
    # RREF that _rref and Fraction Gauss-Jordan give, with no elimination
    rng = random.Random(241)
    cases = []
    for n in range(1, 7):
        fr = Frame(n)
        kinds = ["X", "Z", "CNOT"] if n > 1 else ["X", "Z"]
        for k in range(10):
            qubits = sorted(rng.sample(range(1, n + 1), 1 + k % n))
            lift = fr.state_lift(rand_amps(rng, 2 ** len(qubits)), qubits)
            rows = lift.basis
            for _ in range(rng.randint(1, 4)):
                kind = rng.choice(kinds)
                targets = rng.sample(range(1, n + 1), 2 if kind == "CNOT" else 1)
                rows = fr.gate(kind, targets).matrix.apply(rows)
            cases.append((fr, rows))
    wants = [eliminated(rows) for _, rows in cases]
    references = [reference_row_basis(rows) for _, rows in cases]
    calls = counted_eliminations(monkeypatch)
    for (fr, rows), want, reference in zip(cases, wants, references):
        assert rows.row_basis() == want == reference
        assert Subspace(rows, fr.dim) is Subspace(want, fr.dim, _canonical=True)
    assert calls == []
    leads = [[next(c for c, x in enumerate(row) if x) for row in rows.entries]
             for _, rows in cases]
    assert max(map(len, leads)) == 32
    assert sum(lead != sorted(lead) for lead in leads) >= 10


# ----- differential tests against the bit arithmetic of Frame.layout ----------


def old_bit(fr, index, qubit):
    return (index >> (fr.n - qubit)) & 1


def old_with_bit(fr, index, qubit, value):
    mask = 1 << (fr.n - qubit)
    return (index | mask) if value else (index & ~mask)


def old_merge_index(fr, inside, a, b):
    outside = [q for q in range(1, fr.n + 1) if q not in inside]
    idx = 0
    for pos, q in enumerate(reversed(inside)):
        if (a >> pos) & 1:
            idx |= 1 << (fr.n - q)
    for pos, q in enumerate(reversed(outside)):
        if (b >> pos) & 1:
            idx |= 1 << (fr.n - q)
    return idx


def old_split_index(fr, index, inside):
    outside = [q for q in range(1, fr.n + 1) if q not in inside]
    a = 0
    for q in inside:
        a = (a << 1) | old_bit(fr, index, q)
    b = 0
    for q in outside:
        b = (b << 1) | old_bit(fr, index, q)
    return a, b


def old_gate(fr, kind, targets):
    """One-qubit gates bit by bit, CNOT as an XOR on the target bit."""
    entries = [[ZERO] * fr.dim for _ in range(fr.dim)]
    if kind == "CNOT":
        ctrl, tgt = targets
        for c in range(fr.dim):
            r = c ^ (1 << (fr.n - tgt)) if old_bit(fr, c, ctrl) else c
            entries[r][c] = ONE
    else:
        (q,) = targets
        g = {"X": [[0, 1], [1, 0]], "Z": [[1, 0], [0, -1]],
             "H": [[1, 1], [1, -1]]}[kind]
        for c in range(fr.dim):
            a = old_bit(fr, c, q)
            for b in (0, 1):
                if g[b][a]:
                    entries[old_with_bit(fr, c, q, b)][c] = \
                        GaussianRational(g[b][a])
    return PartialMap(Matrix(entries, cols=fr.dim))


def old_is_local(pm, fr, qubits):
    """Every entry's inside and outside bit tuples, rebuilt one by one."""
    inside = sorted(qubits)
    outside = [q for q in range(1, fr.n + 1) if q not in qubits]
    ref = {}
    for r in range(fr.dim):
        a_out = tuple(old_bit(fr, r, q) for q in outside)
        a_in = tuple(old_bit(fr, r, q) for q in inside)
        for c in range(fr.dim):
            b_out = tuple(old_bit(fr, c, q) for q in outside)
            b_in = tuple(old_bit(fr, c, q) for q in inside)
            val = pm.matrix.entries[r][c]
            if a_out != b_out:
                if val:
                    return False
                continue
            key = (a_in, b_in)
            if key in ref and ref[key] != val:
                return False
            ref.setdefault(key, val)
    return len(ref) == (2 ** len(inside)) ** 2


def old_reshape(fr, amps, qubits):
    inside = sorted(qubits)
    rows_n = 2 ** len(inside)
    entries = [[ZERO] * (fr.dim // rows_n) for _ in range(rows_n)]
    for idx, amp in enumerate(amps):
        a, b = old_split_index(fr, idx, inside)
        entries[a][b] = amp
    return Matrix(entries, cols=fr.dim // rows_n)


def old_state_lift(fr, amps, qubits):
    inside = sorted(qubits)
    rows = []
    for t in range(fr.dim // len(amps)):
        v = [ZERO] * fr.dim
        for a, val in enumerate(amps):
            v[old_merge_index(fr, inside, a, t)] = val
        rows.append(v)
    return Subspace.from_rows(rows, fr.dim)


def old_reachable(fr, ray, qubits):
    inside = sorted(qubits)
    rows = old_reshape(fr, ray.basis.entries[0], inside).row_basis()
    vectors = []
    for a in range(2 ** len(inside)):
        for i in range(rows.rows):
            v = [ZERO] * fr.dim
            for b in range(rows.cols):
                v[old_merge_index(fr, inside, a, b)] = rows.entries[i][b]
            vectors.append(v)
    return Subspace.from_rows(vectors, fr.dim)


def all_subsets(n):
    return [qs for size in range(n + 1)
            for qs in itertools.combinations(range(1, n + 1), size)]


def test_layout_matches_merge_and_split():
    for n in range(1, 5):
        fr = Frame(n)
        for size in range(n + 1):
            for qubits in itertools.permutations(range(1, n + 1), size):
                for a, row in enumerate(fr.layout(qubits)):
                    for b, idx in enumerate(row):
                        assert idx == old_merge_index(fr, qubits, a, b)
                        assert old_split_index(fr, idx, qubits) == (a, b)


def test_gates_match_bit_arithmetic():
    for n in range(1, 5):
        fr = Frame(n)
        for q in range(1, n + 1):
            for kind in "XZH":
                assert fr.gate(kind, (q,)) == old_gate(fr, kind, (q,))
        for pair in itertools.permutations(range(1, n + 1), 2):
            assert fr.gate("CNOT", pair) == old_gate(fr, "CNOT", pair)


def locality_maps(rng, fr):
    """Gates, gate words, test projectors, dense maps and I-local blocks."""
    gates = [fr.gate(kind, (q,)) for kind in "XZH" for q in range(1, fr.n + 1)]
    gates += [fr.gate("CNOT", pair)
              for pair in itertools.permutations(range(1, fr.n + 1), 2)]
    maps = list(gates)
    for _ in range(6):
        word = rng.sample(gates, min(3, len(gates)))
        pm = word[0]
        for g in word[1:]:
            pm = pm.then(g)
        maps.append(pm)
    for qubits in all_subsets(fr.n)[1:]:
        lifted = fr.state_lift(rand_amps(rng, 2 ** len(qubits)), qubits)
        maps.append(PartialMap(lifted.projector()))
    maps.append(PartialMap(rand_sub(rng, fr.dim).projector()))
    dense = Matrix([rand_amps(rng, fr.dim) for _ in range(fr.dim)])
    maps += [PartialMap(dense), PartialMap(Matrix.identity(fr.dim)),
             PartialMap(Matrix.zeros(fr.dim, fr.dim))]
    for qubits in all_subsets(fr.n):
        k = 2 ** len(qubits)
        g = [rand_amps(rng, k) for _ in range(k)]
        entries = [[ZERO] * fr.dim for _ in range(fr.dim)]
        for a in range(k):
            for c in range(k):
                for b in range(fr.dim // k):
                    entries[old_merge_index(fr, qubits, a, b)][
                        old_merge_index(fr, qubits, c, b)] = g[a][c]
        maps.append(PartialMap(Matrix(entries, cols=fr.dim)))
    return maps


def test_is_local_matches_bit_tuples():
    rng = random.Random(210)
    verdicts = []
    for n in (1, 2, 3):
        fr = Frame(n)
        for pm in locality_maps(rng, fr):
            for qubits in all_subsets(n):
                got = pm.is_local(fr, frozenset(qubits))
                assert got == old_is_local(pm, fr, frozenset(qubits))
                verdicts.append(got)
    assert True in verdicts and False in verdicts


def test_restrict_first_is_the_qubit_one_block():
    """The first qubit's block is x -> P_W F(x (x) |0...0>), W spanned by
    |0...0> and |10...0>: entries at indices 0 and 2^(n-1)."""
    rng = random.Random(211)
    for n in (1, 2, 3):
        fr = Frame(n)
        for pm in locality_maps(rng, fr):
            m, s = pm.matrix.entries, fr.dim // 2
            assert fr.block(pm, (1,)) == Matrix([[m[0][0], m[0][s]],
                                                 [m[s][0], m[s][s]]])


def test_reshape_lift_and_reachable_match_bit_arithmetic():
    rng = random.Random(212)
    for n in (1, 2, 3):
        fr = Frame(n)
        rays = [fr.ray(rand_amps(rng, fr.dim)) for _ in range(3)]
        rays += [product_ray(fr, "0" * n), product_ray(fr, "+-01"[:n]),
                 fr.ray([1] + [0] * (fr.dim - 2) + [1])]
        for qubits in all_subsets(n):
            shuffled = rng.sample(qubits, len(qubits))
            for ray in rays:
                table = fr.layout(sorted(shuffled))
                assert ray.basis.gather((0,), table) == \
                    old_reshape(fr, ray.basis.entries[0], qubits)
                assert fr.reachable(ray, shuffled) is \
                    old_reachable(fr, ray, qubits)
            for _ in range(3):
                part = rand_amps(rng, 2 ** len(qubits))
                assert fr.state_lift(part, shuffled) == \
                    old_state_lift(fr, part, qubits)


# ----- differential tests against Fraction-arithmetic rays --------------------


def lead_one_text(state):
    """A state's amplitudes as they print: its canonical basis row."""
    return "(" + ", ".join(str(a) for a in state.basis.entries[0]) + ")"


class LeadOneRay:
    """Rays as they were before they moved to integer rows: identity is
    every amplitude divided by the first nonzero one, in Fractions."""

    def __init__(self, amps):
        self.amps = tuple(GaussianRational.of(a) for a in amps)
        if not any(self.amps):
            raise ValueError("a ray needs a nonzero amplitude vector")
        lead = next(a for a in self.amps if a)
        self.canon = tuple(quotient(a, lead) for a in self.amps)

    def __eq__(self, other):
        return self.canon == other.canon

    def __str__(self):
        return "(" + ", ".join(str(a) for a in self.canon) + ")"


def ray_batches():
    """Per dimension 1..16, vectors together with Gaussian, i, -1 and -i
    multiples of them: small, 12-digit-denominator, lone-nonzero,
    negative-lead and complex-lead vectors."""
    rng = random.Random(213)
    i = GaussianRational(0, 1)
    big = lambda: GaussianRational(
        Fraction(rng.randint(-10 ** 15, 10 ** 15), rng.randint(1, 10 ** 12)),
        Fraction(rng.randint(-10 ** 15, 10 ** 15), rng.randint(1, 10 ** 12)))
    for dim in range(1, 17):
        lone = [ZERO] * dim
        lone[rng.randrange(dim)] = GaussianRational(Fraction(-7, 3), 2)
        negative = list(rand_amps(rng, dim, real=True))
        negative[0] = GaussianRational(-5)
        complex_lead = list(rand_amps(rng, dim))
        complex_lead[0] = GaussianRational(Fraction(2, 3), Fraction(-1, 2))
        bases = [rand_amps(rng, dim), [big() for _ in range(dim)], lone,
                 negative, complex_lead]
        batch = []
        for amps in bases:
            scale = GaussianRational(Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                                     Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            batch += [amps] + [[c * a for a in amps] for c in (scale, i, -1, -i)]
        yield dim, batch


def test_ray_matches_lead_one_reference():
    checked = 0
    for dim, batch in ray_batches():
        new = [Subspace(Matrix([amps]), dim) for amps in batch]
        old = [LeadOneRay(amps) for amps in batch]
        for r, o in zip(new, old):
            assert lead_one_text(r) == str(o)
            assert exact(r.basis.entries) == exact([o.canon])
            assert r == Subspace(Matrix([o.canon]), dim)
            if dim & (dim - 1) == 0 and dim > 1:
                assert Frame(dim.bit_length() - 1).ray(o.amps) == r
            for r2, o2 in zip(new, old):
                assert (r == r2) == (o == o2)
                if r == r2:
                    assert hash(r) == hash(r2)
        checked += len(batch)
    assert checked >= 300
    for amps in ([], [0, 0], [ZERO]):
        with pytest.raises(ValueError):
            Frame(1).ray(amps)


def gaussian_rational_witness(term):
    """The witness search as it ran on GaussianRational rows: basis rows,
    then moment-curve points sum_j t^j b_j."""
    rows = term.positive.basis.entries
    candidates = list(rows)
    limit = max(8, (len(rows) - 1) * len(term.negatives) + 2)
    for t in range(1, limit + 1):
        weight, v = ONE, [ZERO] * term.positive.ambient
        for row in rows:
            v = [acc + weight * x for acc, x in zip(v, row)]
            weight = weight * t
        candidates.append(tuple(v))
    for cand in candidates:
        if any(cand) and not any(
                b.contains_subspace(Subspace.from_rows([cand], len(cand)))
                for b in term.negatives):
            return cand


def test_witness_matches_gaussian_rational_search():
    rng = random.Random(214)
    sources = []
    for dim in (2, 4, 8):
        for _ in range(40):
            positive = rand_sub(rng, dim, rng.randint(1, dim))
            rows = positive.basis.entries
            # negatives through basis rows push the search along the rows
            # and, once every row is cut, onto the moment curve
            negatives = [Subspace.from_rows(rows[:k], dim)
                         for k in range(1, len(rows))]
            if rng.random() < 0.5:
                negatives += [Subspace.from_rows([row], dim) for row in rows]
            negatives += [rand_sub(rng, dim, rng.randint(1, dim))
                          for _ in range(rng.randint(0, 3))]
            term = make_term(positive, negatives)
            if term is None:
                continue
            want = gaussian_rational_witness(term)
            got = term.witness()
            assert exact(got.basis.entries) == exact([want])
            # built without elimination, the witness is in canonical form
            assert got.basis == got.basis.row_basis()
            sources.append((want in rows, positive.basis.den > 1))
    assert len(sources) >= 50
    assert {(True, True), (False, True)} <= set(sources)


def test_apply_ray_and_image_of_match_dense_product():
    rng = random.Random(215)
    pairs = preimage_inputs()
    for pm, sub in pairs:
        rays = [Subspace(Matrix([rand_amps(rng, pm.dim)]), pm.dim)
                for _ in range(2)]
        if not sub.is_zero():
            rays.append(sub.any_ray())
        for ray in rays:
            want = reference_apply(pm.matrix, ray.basis.entries[0])
            got = pm.image_of(ray)
            if any(want):
                assert got == Subspace(Matrix([want]), pm.dim)
            else:
                assert got.is_zero()
        images = [reference_apply(pm.matrix, row) for row in sub.basis.entries]
        assert pm.image_of(sub) == Subspace.from_rows(
            [v for v in images if any(v)], pm.dim)


# ----- one-pass lifts, memoised values and their lifetimes ---------------------


def two_pass_lift(fr, g, qubits):
    """The lift as it was built before rows were placed by the tensor:
    g (x) I in (a, b) row order, then a gather into layout order."""
    table = fr.layout(qubits)
    product = g.tensor(Matrix.identity(len(table[0])), table)
    order = [0] * fr.dim
    for k, r in enumerate(r for row in table for r in row):
        order[r] = k
    return PartialMap(product.gather(order, (range(fr.dim),)))


def test_one_pass_lift_matches_two_pass_reference():
    checked = 0
    for n in range(1, 6):
        fr = Frame(n)
        for g in frame_module.GATES.values():
            k = g.rows.bit_length() - 1
            for targets in itertools.permutations(range(1, n + 1), k):
                assert fr.lift(g, targets) == two_pass_lift(fr, g, targets)
                checked += 1
    assert checked == 3 * (1 + 2 + 3 + 4 + 5) + (2 + 6 + 12 + 20)


def test_full_and_zero_are_built_once_per_ambient(monkeypatch):
    Subspace.full.cache_clear()
    Subspace.zero.cache_clear()
    cold = {n: (Subspace.full(n), Subspace.zero(n)) for n in (1, 2, 5, 16)}

    def built_again(*args):
        raise AssertionError("a warm full or zero subspace was built again")

    monkeypatch.setattr(Matrix, "identity", staticmethod(built_again))
    monkeypatch.setattr(Matrix, "zeros", staticmethod(built_again))
    for n, (full, zero) in cold.items():
        assert Subspace.full(n) is full and Subspace.zero(n) is zero
        assert Subspace(Matrix([[int(i == j) for j in range(n)]
                                for i in range(n)]), n) is full
        assert Subspace(Matrix([[0] * n]), n) is zero
        assert full.is_full() and full.dim == n and zero.dim == 0
        assert full.ortho() is zero


def test_state_lift_is_remembered_per_frame(monkeypatch):
    rng = random.Random(216)
    asked = []
    for n in (1, 2, 3, 4):
        fr = Frame(n)
        for qubits in all_subsets(n)[1:]:
            part = rand_amps(rng, 2 ** len(qubits))
            cold = fr.state_lift(part, qubits)
            assert cold is old_state_lift(fr, part, qubits)
            # another frame of the same size computes it afresh, to the same value
            assert Frame(n).state_lift(part, qubits) is cold
            asked.append((fr, part, qubits, cold))
    calls = counted_eliminations(monkeypatch)
    for fr, part, qubits, cold in asked:
        assert fr.state_lift(list(part), rng.sample(qubits, len(qubits))) \
            is cold
    assert calls == []


def test_state_lift_eliminates_only_its_part(monkeypatch):
    # part (x) I is built as an RREF: the same object as the old lift and
    # as the eliminated tensor, with no elimination wider than one row
    rng = random.Random(222)
    lead = GaussianRational(Fraction(-3, 2), 2)
    cases = []
    for n in range(1, 6):
        for qubits in all_subsets(n)[1:]:
            k = 2 ** len(qubits)
            parts = [rand_amps(rng, k), (ZERO,) * k]
            # leading zeros before a non-unit Gaussian leading amplitude
            zeros = rng.randrange(k)
            parts.append((ZERO,) * zeros + (lead,) + rand_amps(rng, k)[zeros + 1:])
            cases += [(n, qubits, part) for part in parts]
    rows, eliminate = [], linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda work, cols: rows.append(len(work))
                        or eliminate(work, cols))
    for n, qubits, part in cases:
        fr = Frame(n)
        before = len(rows)
        lifted = fr.state_lift(part, qubits)
        assert max(rows[before:], default=0) <= 1
        table = fr.layout(qubits)
        tensor = Matrix([part]).tensor(Matrix.identity(len(table[0])), table)
        assert lifted is Subspace(tensor, fr.dim)
        assert lifted is old_state_lift(fr, part, qubits)
        assert lifted.is_zero() == (not any(part))


def test_a_second_frame_shares_constants_and_builds_its_own_gate_maps(
        monkeypatch):
    claim = parse_formula("(0_1 & +_2 & -_3) -> [H_2 ; CNOT_1_3 ; X_1 ; Z_2]"
                          "(1_1 & 0_2 & (-_3 | 1_3))")
    first = Environment(Frame(3))
    assert check_valid(first, claim) is None
    gates = [("H", (2,)), ("CNOT", (1, 3)), ("X", (1,)), ("Z", (2,))]
    first_maps = [first.frame.gate(*g) for g in gates]
    # count what building lifts and gates costs on a second frame; the
    # meets of lifts tensor their parts, which is no building of either
    inside, tensors, eliminations = [0], [], []

    def within(method):
        def counted(*args):
            inside[0] += 1
            try:
                return method(*args)
            finally:
                inside[0] -= 1
        return counted

    tensor, eliminate = Matrix.tensor, linalg._eliminate
    monkeypatch.setattr(Frame, "state_lift", within(Frame.state_lift))
    monkeypatch.setattr(Frame, "gate", within(Frame.gate))
    monkeypatch.setattr(Matrix, "tensor",
                        lambda *args: tensors.append(inside[0]) or tensor(*args))
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda work, cols: eliminations.append(inside[0])
                        or eliminate(work, cols))
    second = Environment(Frame(3))
    assert check_valid(second, claim) is None
    assert not any(tensors) and not any(eliminations)
    for part in LOCAL_STATES.values():
        for q in (1, 2, 3):
            assert second.frame.state_lift(part, (q,)) is \
                first.frame.state_lift(part, (q,))
    assert second.frame.layout((3, 1)) is first.frame.layout((3, 1))
    monkeypatch.undo()
    plus = first.frame.state_lift(LOCAL_STATES["+"], (2,))
    for g, old in zip(gates, first_maps):
        pm = second.frame.gate(*g)
        assert pm is not old and pm.matrix is old.matrix
        # a memo filled through one frame's map is not the other's
        image = old.image_of(plus)
        assert plus in old._images and plus not in pm._images
        assert pm.image_of(plus) is image


def test_process_tables_stay_bounded_and_frames_drop_the_rest():
    rng = random.Random(223)
    arity = {kind: g.rows.bit_length() - 1 for kind, g in GATES.items()}
    dropped = []
    for n in range(1, 6):
        for _ in range(6):
            fr = Frame(n)
            qubits = tuple(sorted(rng.sample(range(1, n + 1),
                                             rng.randint(1, n))))
            p = fr.state_lift(rand_amps(rng, 2 ** len(qubits)), qubits)
            word = []
            for _ in range(rng.randint(1, 4)):
                kind = rng.choice([k for k in GATES if arity[k] <= n])
                word.append((kind, tuple(rng.sample(range(1, n + 1), arity[kind]))))
            prog = " ; ".join(f"{k}_{'_'.join(map(str, t))}" for k, t in word)
            const = [f"{rng.choice('01+-')}_{rng.randint(1, n)}" for _ in range(2)]
            env = Environment(fr, {"p": p})
            for text in (f"{const[0]} -> [{prog}]{const[1]}",
                         f"p & {const[0]} -> [{prog}](p | {const[1]})"):
                check_valid(env, parse_formula(text))
            dropped.append((weakref.ref(fr), weakref.ref(p),
                            [weakref.ref(fr.gate(*g)) for g in word]))
            del fr, p, env
    gc.collect()
    for fr, p, maps in dropped:
        assert fr() is None and p() is None
        assert all(pm() is None for pm in maps)
    for n in range(1, 6):
        lifts = frame_module._NAMED_LIFTS[n]
        assert 0 < len(lifts) <= 4 * n
        assert all(char in LOCAL_STATES and 1 <= q <= n for char, q in lifts)
        matrices = frame_module._GATE_MATRICES[n]
        targets = sum(len(list(itertools.permutations(range(n), arity[kind])))
                      for kind in GATES)
        assert 0 < len(matrices) <= targets
        assert all(len(t) == arity[kind] for kind, t in matrices)


def test_state_lift_remembers_no_error():
    fr = Frame(3)
    with pytest.raises(ValueError, match="one amplitude per part"):
        fr.state_lift((1, 0, 0), (1, 2))
    lifted = fr.state_lift((1, 0, 0, 1), (1, 2))
    with pytest.raises(ValueError, match="one amplitude per part"):
        fr.state_lift((1, 0, 0), (1, 2))
    with pytest.raises(BadIndex):
        fr.state_lift((1, 0), (4,))
    assert fr.state_lift((1, 0, 0, 1), (2, 1)) is lifted


def test_join_is_remembered_per_pair_and_warm_meet_eliminates_nothing(
        monkeypatch):
    rng = random.Random(218)
    pairs = [(rand_sub(rng, dim), rand_sub(rng, dim))
             for dim in (2, 4, 8) for _ in range(12)]
    meets = []
    for s, t in pairs:
        cold = s.join(t)
        assert s.join(t) is cold and t.join(s) is cold
        uncached = Subspace(Matrix(s.basis.entries + t.basis.entries), s.ambient)
        assert cold is uncached
        meets.append(s.meet(t))
        # the vectors orthogonal to both orthocomplements, in Fractions
        perps = Matrix(s.ortho().basis.entries + t.ortho().basis.entries,
                       cols=s.ambient).conj()
        assert meets[-1] is Subspace(reference_kernel_basis(perps), s.ambient)
    calls = counted_eliminations(monkeypatch)
    for (s, t), meet in zip(pairs, meets):
        assert s.meet(t) is meet and t.meet(s) is meet
    assert calls == []


def test_join_table_drops_dead_values():
    rng = random.Random(219)
    before = set(frame_module._PAIRS)
    subs = [rand_sub(rng, 8, 2) for _ in range(6)]
    kept = subs[0].join(subs[1])  # outlives both of its operands
    joins = [a.join(b) for a, b in zip(subs, subs[1:])]
    # joins of 2-dimensional pairs meet in 0 to 2 dimensions
    meets = [a.meet(b) for a, b in zip(joins, joins[1:])]
    added = set(frame_module._PAIRS) - before
    assert sorted(op for op, *_ in added) == ["join"] * 5 + ["meet"] * 4
    refs = [weakref.ref(x) for x in subs + joins[1:] + meets]
    del subs, joins, meets
    gc.collect()
    assert all(r() is None for r in refs)
    assert not added & set(frame_module._PAIRS)
    assert kept.dim == 4


def meet_inputs():
    """Pairs (s, t) at ambients 1 to 16: zero, full and equal operands,
    rays, one operand inside the other, disjoint spans of basis vectors,
    and random spans with Gaussian, negative and zero leading entries."""
    rng = random.Random(2027)

    def rows(dim, k):
        # small Gaussian entries, often zero, so rows often lead late
        return [[GaussianRational(rng.choice((0, 0, 0, 1, -1, 2, -3)),
                                  rng.choice((0, 0, 1, -2)))
                 for _ in range(dim)] for _ in range(k)]

    def sub(dim, k):
        return Subspace.from_rows([r for r in rows(dim, k) if any(r)], dim)

    def inside(big, k):
        # k combinations of big's rows, a subspace of it
        coeffs = Matrix(rows(big.dim, k), cols=big.dim)
        return Subspace.from_rows((coeffs * big.basis).entries, big.ambient)

    pairs = []
    for dim in range(1, 17):
        zero, full = Subspace.zero(dim), Subspace.full(dim)
        subs = [sub(dim, rng.randint(1, dim)) for _ in range(4)]
        subs += [rand_sub(rng, dim), rand_sub(rng, dim, 1)]
        subs += [inside(s, rng.randint(1, s.dim)) for s in subs if s.dim]
        cut = rng.randint(0, dim)
        low = Subspace.from_rows([[ONE if j == i else ZERO for j in range(dim)]
                                  for i in range(cut)], dim)
        high = Subspace.from_rows([[ONE if j == i else ZERO for j in range(dim)]
                                   for i in range(cut, dim)], dim)
        pairs += [(zero, full), (full, zero), (zero, zero), (full, full),
                  (low, high), (high, low)]
        for s in subs:
            pairs += [(s, s), (s, zero), (full, s), (s, s.ortho())]
        for s, t in itertools.combinations(subs, 2):
            pairs.append((s, t) if rng.random() < 0.5 else (t, s))
    return pairs


def test_meet_is_the_ortho_join_ortho_it_replaces():
    kinds = set()
    for s, t in meet_inputs():
        got = s.meet(t)  # cold: computed before the reference warms orthos
        assert got is s.ortho().join(t.ortho()).ortho()
        assert t.meet(s) is got and s.meet(t) is got
        small = min(s, t, key=lambda x: x.dim)
        kinds.add("zero" if got.is_zero() else "contained" if got is small
                  else "ray" if got.dim == 1 else "wider")
    assert kinds == {"zero", "contained", "ray", "wider"}


def test_meet_eliminates_nothing_when_warm_contained_or_of_a_ray(monkeypatch):
    rng = random.Random(2028)
    cases = []
    for dim in (4, 8, 16):
        big = rand_sub(rng, dim, dim // 2)
        part = Subspace(Matrix(big.basis.entries[:2]), dim)
        ray = rand_sub(rng, dim, 1)
        outside = rand_sub(rng, dim, dim // 2)
        big.ortho(), outside.ortho()  # the larger side's orthocomplement
        cases.append((big, part, ray, outside))
    calls = counted_eliminations(monkeypatch)
    for big, part, ray, outside in cases:
        assert part.meet(big) is part and big.meet(part) is part
        assert ray.meet(outside).is_zero()
    assert calls == []
    warm = [(big, outside, big.meet(outside)) for big, _, _, outside in cases]
    # cold, with both orthocomplements known: the kernel's one elimination,
    # of the dim P x dim A product, and none of the meet's rows
    assert calls == [dim // 2 for dim in (4, 8, 16)]
    calls.clear()
    for big, outside, meet in warm:
        assert outside.meet(big) is meet and big.meet(outside) is meet
    assert calls == []


def lift_inputs():
    """(frame, sorted qubits, part, lift) at n = 1..6: state lifts of
    random one-row parts and lifts of random parts of several rows, on
    random qubit sets, all n qubits among them."""
    rng = random.Random(2035)
    cases = []
    for n in range(1, 7):
        fr = Frame(n)
        for _ in range(12):
            # mostly few qubits, so that many pairs are disjoint
            size = rng.randint(1, rng.randint(1, n))
            qubits = tuple(sorted(rng.sample(range(1, n + 1), size)))
            k = 2 ** len(qubits)
            if k == 2 or rng.random() < 0.5:
                amps = rand_amps(rng, k)
                part, lifted = Subspace(Matrix([amps]), k), fr.state_lift(amps, qubits)
            else:
                part = rand_sub(rng, k, rng.randint(2, min(3, k - 1)))
                lifted = frame_module._lifted(n, qubits, part)
            cases.append((fr, qubits, part, lifted))
    return cases


def memo_free_ortho(sub):
    return Subspace(sub.basis.conj().kernel_basis(), sub.ambient)


def test_meets_orthos_and_forms_of_lifts_match_the_general_route(monkeypatch):
    cases = lift_inputs()
    calls = counted_eliminations(monkeypatch)
    for fr, qubits, part, lifted in cases:
        assert fr.product_form(lifted, qubits) == fr._factor(lifted, qubits)
        assert (fr.product_form(lifted, qubits) is None) == \
            (part.dim > 1 and len(qubits) < fr.n)
        if len(qubits) == fr.n:
            assert lifted is part and lifted._local is None
            continue
        assert lifted._local == (fr.n, qubits, part)
        del calls[:]
        linked = part._ortho
        perp = lifted.ortho()  # cold
        # the part's one elimination, none for a ray
        assert calls == ([2 ** len(qubits)] if part.dim > 1 else [])
        assert perp is memo_free_ortho(lifted) and perp._ortho is lifted
        # nor is the part linked to its ortho, which would make it a cycle
        assert part._ortho is linked
        assert perp._local == (fr.n, qubits, memo_free_ortho(part))
        assert lifted.ortho() is perp and perp.ortho() is lifted
    general, tensors = [], []
    meet_from, tensor = Subspace._meet_from, Matrix.tensor
    monkeypatch.setattr(Subspace, "_meet_from",
                        lambda self, small: general.append(1) or meet_from(self, small))
    monkeypatch.setattr(Matrix, "tensor",
                        lambda *args: tensors.append(1) or tensor(*args))
    disjoint, overlapping = [], 0
    for (fr, i, p, s), (other, j, q, t) in itertools.combinations(cases, 2):
        if other is not fr:
            continue
        general.clear()
        got = s.meet(t)  # cold
        perps = Matrix.vstack([s.basis.conj().kernel_basis(),
                               t.basis.conj().kernel_basis()])
        want = Subspace(perps.conj().kernel_basis(), fr.dim)
        small, big = sorted((s, t), key=lambda x: x.dim)
        assert got is want and big._meet_from(small) is want
        if set(i).isdisjoint(j):
            disjoint.append((p.dim > 1) + (q.dim > 1))
            assert general == [1]  # the reference alone
            k = tuple(sorted(i + j))
            if len(k) == fr.n:
                assert got._local is None
            else:
                assert got._local[:2] == (fr.n, k)
            if p.dim == q.dim == 1:
                assert fr.product_form(got, k) == fr._factor(got, k) is not None
        else:
            overlapping += 1
            assert general == [1, 1]
        # warm, from the pair table
        del calls[:], tensors[:], general[:]
        assert s.meet(t) is got and t.meet(s) is got
        assert calls == tensors == general == []
    assert len(disjoint) > 100 and overlapping > 100
    # ray parts, a ray and a wider part, and two wider parts
    assert set(disjoint) == {0, 1, 2}


def test_a_lift_projector_is_its_parts_placed_by_the_layout(monkeypatch):
    # the projector of part (x) H_rest, placed from the part's, against the
    # Gram route B^T G^-1 conj(B) on the lift's whole basis; a cold one
    # solves a system no wider than the part
    rng = random.Random(2039)
    solves = []
    solve = Matrix.solve
    monkeypatch.setattr(Matrix, "solve",
                        lambda self, rhs: solves.append(self.rows) or solve(self, rhs))
    cases = Counter()
    for n in range(2, 6):
        fr = Frame(n)
        for _ in range(12):
            qubits = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n - 1))))
            k = 2 ** len(qubits)
            if k == 2 or rng.random() < 0.5:
                lifted = fr.state_lift(rand_amps(rng, k), qubits)
            else:
                part = rand_sub(rng, k, rng.randint(2, k - 1))
                lifted = frame_module._lifted(n, qubits, part)
            assert lifted._local is not None
            cold = lifted._projector is None
            del solves[:]
            got = lifted.projector()
            if cold:
                assert all(rows <= k for rows in solves), solves
            b = lifted.basis
            gram = b.conj() * b.transpose()
            assert got == b.transpose() * solve(gram, b.conj())
            cases[lifted.dim > fr.dim // k] += 1
    # ray parts and parts of several rows
    assert cases[False] > 20 and cases[True] > 5, cases


def test_a_frame_keeps_no_memo():
    fr = Frame(3)
    assert not hasattr(fr, "__dict__")
    assert Frame.__slots__ == ("n", "dim", "__weakref__")
    assert fr.gate("H", (1,)) is not fr.gate("H", (1,))


def test_a_lift_lives_as_long_as_its_holders_not_its_frame():
    fr = Frame(3)
    held = fr.state_lift((1, 2), (2,))
    # a second call returns the live lift, whichever way it is asked
    assert fr.state_lift((1, 2), (2,)) is held
    assert fr.row_lift(Matrix([(1, 2)]), (2,)) is held
    lifted = weakref.ref(held)
    del held
    gc.collect()
    assert lifted() is None and fr.n == 3


def test_two_environments_on_one_frame_share_no_gate_map():
    fr = Frame(2)
    plus = fr.named_lift("+", 2)
    first, second = Environment(fr), Environment(fr)
    # each environment remembers its own maps, and their memos with them
    (h,), (g,) = (denote_program(env, parse_program("H_1")) for env in (first, second))
    assert h is not g and h.matrix is g.matrix
    assert denote_program(first, parse_program("H_1"))[0] is h
    image = h.image_of(plus)
    assert plus in h._images and plus not in g._images
    assert g.image_of(plus) is image


def tensored_reachable(fr, ray, qubits):
    """The construction ``Frame.reachable`` replaced: H_I (x) R placed by the
    layout of sorted I, then reduced at the width of the register."""
    table = fr.layout(sorted(qubits))
    rows = ray.basis.gather((0,), table).row_basis()
    return Subspace(Matrix.identity(len(table)).tensor(rows, table), fr.dim)


def test_reachable_is_the_lift_of_the_row_space_on_the_rest(monkeypatch):
    rng = random.Random(226)
    cases = []
    for n in range(1, 6):
        fr = Frame(n)
        rays = [fr.ray(rand_amps(rng, fr.dim)) for _ in range(2)]
        rays += [product_ray(fr, "".join(rng.choice("01+-") for _ in range(n))),
                 fr.ray([1] + [0] * (fr.dim - 2) + [1])]
        for qubits in all_subsets(n):
            shuffled = tuple(rng.sample(qubits, len(qubits)))
            cases += [(fr, ray, shuffled, tensored_reachable(fr, ray, qubits))
                      for ray in rays]
    calls = counted_eliminations(monkeypatch)
    for fr, ray, qubits, want in cases:
        del calls[:]
        got = fr.reachable(ray, iter(qubits))
        assert got is want, (fr, qubits)
        # no elimination at the register's width: only the reshaped ray's
        assert all(cols < fr.dim for cols in calls), (fr, qubits, calls)
        rest = tuple(q for q in range(1, fr.n + 1) if q not in qubits)
        if 0 < len(rest) < fr.n:
            part = ray.basis.gather((0,), fr.layout(sorted(qubits))).row_basis()
            assert got._local == (fr.n, rest, Subspace(part, 1 << len(rest)))
    assert len(cases) == 4 * sum(2 ** n for n in range(1, 6))


def memo_inputs():
    """(frame, maps, subspaces) at n = 1..3: gate words, both as composed
    (their kernel seeded) and as bare matrices, test projectors and
    singular maps, and a denoted test and test followed by a gate (their
    kernels seeded); zero, full, random, product and lifted subspaces."""
    rng = random.Random(221)
    out = []
    for n in (1, 2, 3):
        fr = Frame(n)
        dim = fr.dim
        maps = []
        for _ in range(3):
            word = fr.gate("H", (1,))
            for _ in range(rng.randint(1, 4)):
                if n >= 2 and rng.random() < 0.3:
                    g = fr.gate("CNOT", tuple(rng.sample(range(1, n + 1), 2)))
                else:
                    g = fr.gate(rng.choice("XZH"), (rng.randint(1, n),))
                word = word.then(g)
            maps += [word, PartialMap(word.matrix)]
        maps += [PartialMap(rand_sub(rng, dim).projector()) for _ in range(2)]
        maps += [PartialMap(singular_matrix(rng, dim)) for _ in range(2)]
        maps.append(PartialMap(Matrix.zeros(dim, dim)))
        subs = [Subspace.zero(dim), Subspace.full(dim)]
        subs += [rand_sub(rng, dim, rng.randint(1, dim)) for _ in range(4)]
        subs += [product_ray(fr, "".join(rng.choice("01+-") for _ in range(n)))
                 for _ in range(2)]
        subs += [fr.state_lift(rand_amps(rng, 2), (q,)) for q in range(1, n + 1)]
        env = Environment(fr, {"p": subs[2]})
        for prog in ("p?", f"p? ; H_{n}"):
            maps += denote_program(env, parse_program(prog))
        out.append((fr, maps, subs))
    return out


def memo_free_kernel(m):
    return Subspace(m.kernel_basis(), m.rows)


def memo_free_image(m, sub):
    return Subspace((m * sub.basis.transpose()).transpose(), m.rows)


def memo_free_preimage(m, sub):
    # the rows spanning sub's orthocomplement, without the linked ortho
    perp = sub.basis.conj().kernel_basis()
    if perp.rows == 0:
        return Subspace.full(m.rows)
    return Subspace((perp.conj() * m).kernel_basis(), m.rows)


def test_map_and_subspace_memos_match_cold_fresh_and_memo_free(monkeypatch):
    cases = memo_inputs()
    warm, seeded = [], 0
    for fr, maps, subs in cases:
        for pm in maps:
            if pm._kernel is not None:
                # a kernel given at construction, as elimination finds it
                assert pm._kernel is memo_free_kernel(pm.matrix)
                seeded += 1
            fresh = PartialMap(pm.matrix)
            cold = pm.kernel()
            assert pm.kernel() is cold is fresh.kernel()
            assert cold is memo_free_kernel(pm.matrix)
            warm.append((pm.kernel, (), cold))
            for sub in subs:
                for ask, memo_free in ((PartialMap.image_of, memo_free_image),
                                       (PartialMap.preimage_closed,
                                        memo_free_preimage)):
                    cold = ask(pm, sub)
                    assert ask(pm, sub) is cold is ask(fresh, sub)
                    assert cold is memo_free(pm.matrix, sub)
                    warm.append((ask, (pm, sub), cold))
        for sub in subs:
            for qubits in all_subsets(fr.n):
                cold = fr.product_form(sub, qubits)
                assert fr.product_form(sub, qubits[::-1]) is cold
                assert Frame(fr.n).product_form(sub, qubits) is cold
                assert cold == gather_factor(fr, sub, sorted(qubits))
                warm.append((fr.product_form, (sub, qubits), cold))
    forms = [cold for ask, _, cold in warm if ask.__name__ == "product_form"]
    assert None in forms and any(forms)
    assert len(warm) >= 500
    assert seeded == 15
    calls = counted_eliminations(monkeypatch)
    for ask, args, cold in warm:
        assert ask(*args) is cold
    assert calls == []


def rand_word(rng, n, depth=2):
    """A gate word of X, Z, H, CNOT, id and nested adj, led by an H."""
    parts = [f"H_{rng.randint(1, n)}"]
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if depth and roll < 0.2:
            parts.append(f"adj({rand_word(rng, n, depth - 1)})")
        elif roll < 0.3:
            parts.append("id")
        elif n >= 2 and roll < 0.5:
            parts.append("CNOT_{}_{}".format(*rng.sample(range(1, n + 1), 2)))
        else:
            parts.append(f"{rng.choice('XZH')}_{rng.randint(1, n)}")
    return " ; ".join(parts)


def test_adjoint_preimage_matches_the_kernel_route(monkeypatch):
    # A unitary map takes the preimage of a subspace of at most half the
    # dimension as its image under the adjoint; the kernel route, on an
    # unmarked map of the same matrix, and the memo-free helper agree.
    # Each subspace is asked of a fresh denotation, so each one on the
    # adjoint side meets a composite not yet formed and is taken through
    # its factors.
    rng = random.Random(3131)
    warm, sides, factored = [], set(), 0
    for n in (1, 2, 3, 4):
        fr = Frame(n)
        dim = fr.dim
        subs = [Subspace.zero(dim), Subspace.full(dim)]
        subs += [rand_sub(rng, dim, 1) for _ in range(2)]
        subs += [product_ray(fr, "".join(rng.choice("01+-") for _ in range(n)))]
        subs += [rand_sub(rng, dim, k) for k in {max(1, dim // 2 - 1), dim // 2,
                                                 dim // 2 + 1, dim - 1}]
        for _ in range(4):
            word = parse_program(rand_word(rng, n))
            for sub in subs:
                pm, = denote_program(Environment(fr), word)
                assert pm.unitary and pm._kernel is Subspace.zero(dim)
                assert pm._first is not None
                calls = counted_eliminations(monkeypatch)
                cold = pm.preimage_closed(sub)
                if sub.dim == 1:
                    # the adjoint image of a ray is one row: no elimination
                    assert calls == []
                if 2 * sub.dim <= dim:
                    # taken through the factors: the product is not formed
                    assert pm._first is not None
                    factored += 1
                assert cold is PartialMap(pm.matrix).preimage_closed(sub)
                assert cold is memo_free_preimage(pm.matrix, sub)
                assert cold.dim == sub.dim
                sides.add(2 * sub.dim <= dim)
                warm.append((pm, sub, cold))
    assert sides == {True, False}
    assert factored >= 80
    calls = counted_eliminations(monkeypatch)
    for pm, sub, cold in warm:
        assert pm.preimage_closed(sub) is cold
    assert calls == []


def rand_program(rng, n, depth=1):
    """A program of gates, tests, id, adj of gate words and unions."""
    parts = []
    for _ in range(rng.randint(2, 5)):
        roll = rng.random()
        if depth and roll < 0.15:
            parts.append(f"({rand_program(rng, n, depth - 1)} + "
                         f"{rand_program(rng, n, depth - 1)})")
        elif roll < 0.3:
            parts.append(f"adj({rand_word(rng, n, 1)})")
        elif roll < 0.4:
            parts.append("id")
        elif roll < 0.55:
            parts.append(f"{rng.choice('01+-')}_{rng.randint(1, n)}?")
        else:
            parts.append(rand_word(rng, n, 0))
    return " ; ".join(parts)


def eager_matrices(env, prog):
    """The branch matrices of a core program with each ; multiplied as it
    is met."""
    if isinstance(prog, ast.UnionP):
        return eager_matrices(env, prog.left) + eager_matrices(env, prog.right)
    if isinstance(prog, ast.SeqP):
        return [g * f for f in eager_matrices(env, prog.left)
                for g in eager_matrices(env, prog.right)]
    if isinstance(prog, ast.Test):
        return [eval_symbolic(env, prog.formula).closure().projector()]
    if isinstance(prog, ast.Id):
        return [Matrix.identity(env.frame.dim)]
    return [env.frame.gate(prog.kind, prog.targets).matrix]


def test_a_composite_answers_as_its_formed_product_cold_and_warm():
    # Each question goes to a fresh denotation, whose composites are not
    # formed: its answer is the interned subspace that the formed product
    # and the memo-free helpers give, before and after the product is
    # read, and the product read is the one multiplied as ; is met.
    rng = random.Random(3434)
    kinds = Counter()
    for n in (1, 2, 3, 4, 5):
        fr = Frame(n)
        dim = fr.dim
        half = fr.named_lift(rng.choice("01+-"), rng.randint(1, n))
        subs = [Subspace.zero(dim), Subspace.full(dim), rand_sub(rng, dim, 1),
                product_ray(fr, "".join(rng.choice("01+-") for _ in range(n))),
                half, half.join(rand_sub(rng, dim, 1))]
        asks = [(PartialMap.kernel, (), memo_free_kernel)]
        asks += [(ask, (sub,), free) for sub in subs
                 for ask, free in ((PartialMap.image_of, memo_free_image),
                                   (PartialMap.preimage_closed, memo_free_preimage))]
        for _ in range(3):
            core = desugar_program(parse_program(rand_program(rng, n)), n)
            eager = eager_matrices(Environment(fr), core)
            for ask, args, free in asks:
                maps = denote_program(Environment(fr), core)
                assert len(maps) == len(eager)
                for pm, m in zip(maps, eager):
                    deferred = pm._first is not None
                    cold = ask(pm, *args)
                    assert cold is ask(PartialMap(m, unitary=pm.unitary), *args)
                    assert cold is free(m, *args)
                    kinds[deferred, pm.unitary, pm._first is not None] += 1
                    assert ask(pm, *args) is cold
                    assert pm.matrix == m
                    assert pm._first is pm._second is None
                    assert ask(pm, *args) is cold
    # composites, unitary or not, some answered without their product: a
    # preimage through the factors, a kernel known at construction
    assert set(kinds) == {(True, True, True), (True, True, False),
                          (True, False, True), (True, False, False)}, kinds


def test_a_long_composite_is_formed_and_pulled_back_by_a_loop():
    # words of 3 x the recursion limit of gates, nested to the left (each
    # gate after the word so far) and to the right (each gate before it)
    fr = Frame(1)
    gates = [fr.gate(kind, (1,)) for kind in "HXZ"]
    ray = fr.ray((1, 2))
    left = right = gates[0]
    after = before = gates[0].matrix
    for i in range(1, 3 * sys.getrecursionlimit()):
        g = gates[i % 3]
        left, right = left.then(g), g.then(right)
        after, before = g.matrix * after, before * g.matrix
    for word, expected in ((left, after), (right, before)):
        pre = word.preimage_closed(ray)
        assert word._first is not None
        assert word.matrix == expected
        assert pre is memo_free_preimage(expected, ray)
        assert word.image_of(ray) is memo_free_image(expected, ray)


def test_only_a_map_built_unitary_is_marked_unitary():
    rng = random.Random(3132)
    fr = Frame(2)
    # invertible, not unitary: its preimages stay on the kernel route even
    # once its kernel is known to be 0
    lifted = fr.lift(Matrix([[1, 1], [0, 1]]), (1,))
    assert lifted.kernel().is_zero() and not lifted.unitary
    subs = [Subspace.zero(4), Subspace.full(4), product_ray(fr, "1+")]
    subs += [rand_sub(rng, 4, k) for k in (1, 2, 3)]
    wrong = 0
    for sub in subs:
        assert lifted.preimage_closed(sub) is memo_free_preimage(lifted.matrix, sub)
        adjoint = Subspace((sub.basis.conj() * lifted.matrix).conj(), 4)
        wrong += adjoint is not lifted.preimage_closed(sub)
    # the adjoint image would have been wrong
    assert wrong
    env = Environment(fr, {"p": subs[2]})
    marks = {text: [pm.unitary for pm in denote_program(env, parse_program(text))]
             for text in ("id", "adj(H_1 ; CNOT_1_2) ; id", "X_1 + H_2",
                          "H_1 ; p? ; X_2", "p? ; H_1", "H_1 ; p?")}
    assert marks == {"id": [True], "adj(H_1 ; CNOT_1_2) ; id": [True],
                     "X_1 + H_2": [True, True], "H_1 ; p? ; X_2": [False],
                     "p? ; H_1": [False], "H_1 ; p?": [False]}
    word = fr.gate("H", (1,)).then(fr.gate("CNOT", (2, 1)))
    assert word.unitary
    assert not PartialMap(word.matrix).unitary
    assert not word.then(lifted).unitary and not lifted.then(word).unitary


def test_every_gate_has_full_rank():
    # the fact behind the kernel 0 that Frame.gate gives every gate lift
    for kind, g in GATES.items():
        assert g.row_basis().rows == g.rows == g.cols, kind
    for n in (1, 2, 3):
        fr = Frame(n)
        for kind in GATES:
            arity = GATES[kind].rows.bit_length() - 1
            for targets in itertools.permutations(range(1, n + 1), arity):
                pm = fr.gate(kind, targets)
                assert pm._kernel is Subspace.zero(fr.dim)
                assert memo_free_kernel(pm.matrix).is_zero()


def test_product_form_refuses_a_subspace_of_another_frame():
    wider = Frame(3).state_lift((1, 2), (1,))
    narrower = Frame(2).state_lift((1, 2), (1,))
    with pytest.raises(ValueError, match="differs from frame"):
        Frame(2).product_form(wider, (1,))
    with pytest.raises(ValueError, match="differs from frame"):
        Frame(3).product_form(narrower, (1,))
    # nothing was remembered under the wrong frame
    part, rest = Frame(3).product_form(wider, (1,))
    assert part is Frame(1).ray((1, 2)) and rest.is_full() and rest.ambient == 4


def test_map_memos_die_with_their_environment():
    env = Environment(Frame(2))
    claim = "(0_1 -> [X_1 ; H_2]1_1) & (img(X_1 ; H_2, 0_1 & 0_2) -> 1_1 & +_2)"
    assert check_valid(env, parse_formula(claim)) is None
    pm, = denote_program(env, parse_program("X_1 ; H_2"))
    assert pm._kernel is not None and pm._preimages and pm._images
    image = pm.image_of(product_ray(env.frame, "00"))
    assert image is product_ray(env.frame, "1+")
    held = [weakref.ref(pm), weakref.ref(image)]
    del pm, image
    gc.collect()
    # the image is held by the map's memo alone, the map by the environment
    assert all(r() is not None for r in held)
    del env
    gc.collect()
    assert all(r() is None for r in held)
