"""End-to-end acceptance checks, one test per shipped guarantee, each
with its wall-clock budget.  A summary line per criterion is printed at
the end of the run (see conftest.py)."""

import contextlib
import functools
import hashlib
import io
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import qpdl
from qpdl import ast
from qpdl.cli import main
from qpdl.checker import (
    Environment,
    check_state,
    check_valid,
    denote_program,
    eval_symbolic,
)
from qpdl.frame import Frame, PartialMap, Subspace, format_state
from qpdl.linalg import GaussianRational, Matrix
from qpdl.parser import parse_formula, parse_program
from qpdl.protocols import (
    _ax_adjunction,
    _ax_dynamic,
    _ax_testable,
    _ax_unitary,
    _bell_characteristic,
    _qss_branch,
    _random_ray,
    _random_subspace,
    _teleport_branch,
    axiom_suite,
    lemma_suite,
    quantum_secret_sharing,
    teleportation,
)
from exact_reference import orthogonal, product_ray
from test_checker import coherent_formula, rand_ray
from test_lang import rand_formula, rand_program

CRITERIA = []

# sha256 of each target's render_text() at the default seed: the reports
# are byte-stable, so a changed verdict, witness or line shows here.
REPORT_SHA256 = {
    "axioms": "848c3d41ddac5bb3a6c8481315c769aa8e41894854604151cd9f6aefa9e3dd5f",
    "teleportation":
        "2e5e6c39446e77ad620c5fb02eead8ff383bee4da49f6cf135a3a2968233cd52",
    "qss": "26cb3c96c1d0ff08f0b8ab3f62103202570d6dddd81e0785fa4346db01625137",
    "lemmas": "972c9666a0dbbcc146c16bce923ba4ffe71af317496d7c19d4fdee344788c915",
}


def assert_report_bytes(report):
    digest = hashlib.sha256(report.render_text().encode()).hexdigest()
    assert digest == REPORT_SHA256[report.name], report.name


def criterion(number, bound_seconds):
    """Record one pass/fail summary line and enforce the time budget."""
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                detail = fn()
                elapsed = time.perf_counter() - start
                assert elapsed < bound_seconds, (
                    f"criterion {number} took {elapsed:.1f}s, "
                    f"budget {bound_seconds}s")
            except BaseException:
                CRITERIA.append(f"criterion {number:2d}: FAIL")
                raise
            CRITERIA.append(f"criterion {number:2d}: PASS ({detail}; "
                            f"{elapsed:.2f}s < {bound_seconds:g}s)")
        return run
    return wrap


# ----- shared random material ------------------------------------------------------


def rand_scalar(rng, lo=-3, hi=3):
    return GaussianRational(Fraction(rng.randint(lo, hi)),
                            Fraction(rng.randint(lo, hi)))


def rand_matrix(rng, dim, singular=False):
    rows = [[rand_scalar(rng) for _ in range(dim)] for _ in range(dim)]
    if singular:
        for i in rng.sample(range(dim), rng.randint(1, dim - 1)):
            rows[i] = [GaussianRational()] * dim
    return Matrix(rows)


def word_matrix(rng, fr):
    """The matrix of a random word of basic gates."""
    m = Matrix.identity(fr.dim)
    for _ in range(rng.randint(1, 4)):
        if fr.n >= 2 and rng.random() < 0.25:
            i, j = rng.sample(range(1, fr.n + 1), 2)
            g = fr.gate("CNOT", (i, j))
        else:
            g = fr.gate(rng.choice("XZH"), (rng.randint(1, fr.n),))
        m = g.matrix * m
    return m


def ray_in(rng, sub):
    """A random ray inside a nonzero subspace."""
    while True:
        amps = [GaussianRational()] * sub.ambient
        for i in range(sub.dim):
            c = rand_scalar(rng)
            amps = [a + c * b for a, b in zip(amps, sub.basis.entries[i])]
        if any(amps):
            return Subspace(Matrix([amps]), sub.ambient)


# ----- 1: single-qubit and CNOT transition tables ----------------------------------


@criterion(1, 1.0)
def test_gate_tables_exact():
    fr = Frame(1)
    zero, one = product_ray(fr, "0"), product_ray(fr, "1")
    plus, minus = product_ray(fr, "+"), fr.ray([1, -1])
    tables = {"X": [(zero, one), (one, zero), (plus, plus)],
              "Z": [(zero, zero), (one, one), (plus, minus)],
              "H": [(zero, plus), (one, minus), (plus, zero)]}
    entries = 0
    for kind, rows in tables.items():
        gate = fr.gate(kind, (1,))
        for src, want in rows:
            assert gate.image_of(src) == want
            entries += 1
    fr2 = Frame(2)
    cnot = fr2.gate("CNOT", (1, 2))
    rows = [("00", "00"), ("01", "01"), ("0+", "0+"),
            ("11", "10"), ("10", "11"), ("1+", "1+"),
            ("+0", [1, 0, 0, 1]), ("+1", [0, 1, 1, 0]),
            ("++", [1, 1, 1, 1])]
    for src, want in rows:
        want_ray = product_ray(fr2, want) if isinstance(want, str) \
            else fr2.ray(want)
        assert cnot.image_of(product_ray(fr2, src)) == want_ray
        entries += 1
    assert entries == 18
    return "9 single-qubit + 9 CNOT entries, ray-exact"


# ----- 2: Bell truth table ---------------------------------------------------------


def bell_amps(x, y, n):
    """|0 y ...0> + (-1)^x |1 (1-y) ...0> with qubit 1 most significant."""
    amps = [0] * (2 ** n)
    shift = n - 2
    amps[(0 << 1 | y) << shift] = 1
    amps[(1 << 1 | (1 - y)) << shift] = (-1) ** x
    return amps


@criterion(2, 1.0)
def test_bell_truth_table_is_identity():
    checks = 0
    for n in (2, 3):
        fr = Frame(n)
        env = Environment(fr)
        rays = {(x, y): fr.ray(bell_amps(x, y, n))
                for x in (0, 1) for y in (0, 1)}
        for a, ray in rays.items():
            for b in rays:
                for text in (f"bell[{b[0]},{b[1]},1,2]",
                             _bell_characteristic(b[0], b[1], 1, 2)):
                    held = check_state(env, ray, parse_formula(text))
                    assert held == (a == b)
                    checks += 1
    assert checks == 64
    return "4x4 identity at n=2 and embedded at n=3, atom and description"


# ----- 3: frame properties ---------------------------------------------------------


def prop_partial_functionality(rng, fr):
    test = PartialMap(_random_subspace(rng, fr).projector())
    s = _random_ray(rng, fr)
    c = GaussianRational(Fraction(rng.randint(1, 5), 2),
                         Fraction(rng.randint(-3, 3)))
    # another representative of the same state
    t = test.image_of(s)
    v = test.image_of(fr.ray([c * a for a in s.basis.entries[0]]))
    assert t.is_zero() == v.is_zero()
    assert t == v


def prop_trivial_tests(rng, fr):
    s = _random_ray(rng, fr)
    assert PartialMap(Subspace.full(fr.dim).projector()).image_of(s) == s
    assert PartialMap(Subspace.zero(fr.dim).projector()).image_of(s).is_zero()


def prop_atomicity(rng, fr):
    s = _random_ray(rng, fr)
    t = _random_ray(rng, fr)
    while t == s:
        t = _random_ray(rng, fr)
    # the orthocomplement of a state rejects it and catches any other
    away = PartialMap(s.ortho().projector())
    assert away.image_of(s).is_zero()
    assert not away.image_of(t).is_zero()


def prop_adequacy(rng, fr):
    sub = _random_subspace(rng, fr)
    s = ray_in(rng, sub)
    assert PartialMap(sub.projector()).image_of(s) == s


def prop_repeatability(rng, fr):
    sub = _random_subspace(rng, fr)
    s = _random_ray(rng, fr)
    out = PartialMap(sub.projector()).image_of(s)
    assert out.is_zero() or sub.contains_subspace(out)
    assert out.is_zero() == sub.ortho().contains_subspace(s)


def prop_compatibility(rng, fr):
    # spans of subsets of one orthogonal basis commute
    g = word_matrix(rng, fr)
    def span(ids):
        if not ids:
            return Subspace.zero(fr.dim)
        columns = g.transpose()
        return Subspace(Matrix.vstack([columns.row(i) for i in ids]), fr.dim)
    a = [i for i in range(fr.dim) if rng.random() < 0.5]
    b = [i for i in range(fr.dim) if rng.random() < 0.5]
    sa, sb = span(a), span(b)
    pa, pb = sa.projector(), sb.projector()
    assert pa * pb == pb * pa
    composed = PartialMap(pb * pa)
    meet = PartialMap(sa.meet(sb).projector())
    s = _random_ray(rng, fr)
    left, right = composed.image_of(s), meet.image_of(s)
    assert left.is_zero() == right.is_zero()
    assert left == right


def prop_self_adjointness(rng, fr):
    test = PartialMap(_random_subspace(rng, fr).projector())
    while True:
        s = _random_ray(rng, fr)
        w = test.image_of(s)
        if not w.is_zero():
            break
    while True:
        t = _random_ray(rng, fr)
        if not orthogonal(t, w):
            break
    # s -P?-> w -> t forces t -P?-> v -> s
    v = test.image_of(t)
    assert not v.is_zero()
    assert not orthogonal(v, s)


def prop_proper_superposition(rng, fr):
    s = _random_ray(rng, fr)
    if rng.random() < 0.5:
        t = ray_in(rng, s.ortho())
    else:
        t = _random_ray(rng, fr)
    if orthogonal(s, t):
        w = fr.ray([a + b for a, b in zip(s.basis.entries[0], t.basis.entries[0])])
    else:
        w = s
    assert not orthogonal(s, w)
    assert not orthogonal(w, t)


def prop_unitary_reversibility(rng, fr):
    m = word_matrix(rng, fr)
    s = _random_ray(rng, fr)
    assert not PartialMap(m).image_of(s).is_zero()
    assert PartialMap(m.transpose().conj() * m).image_of(s) == s
    assert PartialMap(m * m.transpose().conj()).image_of(s) == s


def prop_orthogonality_preservation(rng, fr):
    u = PartialMap(word_matrix(rng, fr))
    s = _random_ray(rng, fr)
    if rng.random() < 0.5:
        t = ray_in(rng, s.ortho())
    else:
        t = _random_ray(rng, fr)
    assert orthogonal(s, t) == orthogonal(u.image_of(s), u.image_of(t))


FRAME_PROPERTIES = [
    prop_partial_functionality,
    prop_trivial_tests,
    prop_atomicity,
    prop_adequacy,
    prop_repeatability,
    prop_compatibility,
    prop_self_adjointness,
    prop_proper_superposition,
    prop_unitary_reversibility,
    prop_orthogonality_preservation,
]


@criterion(3, 30.0)
def test_frame_properties_randomized():
    rng = random.Random(301)
    frames = (Frame(1), Frame(2))
    for prop in FRAME_PROPERTIES:
        for t in range(100):
            prop(rng, frames[t % 2])
    return f"{len(FRAME_PROPERTIES)} properties x 100 instances, n in {{1,2}}"


# ----- 4: the adjoint via weakest preconditions ------------------------------------


@criterion(4, 30.0)
def test_adjoint_equals_ortho_of_preimage_of_ortho():
    rng = random.Random(404)
    fr = Frame(2)
    annihilated = 0
    for k in range(200):
        m = rand_matrix(rng, 4, singular=(k % 3 == 0))
        if m == Matrix.zeros(*m.shape):
            m = rand_matrix(rng, 4)
        kern = m.transpose().conj().kernel_basis()
        if k % 5 == 2 and kern.rows:
            s = ray_in(rng, Subspace(kern, 4, _canonical=True))
        else:
            s = _random_ray(rng, fr)
        dag = (m.transpose().conj() * s.basis.transpose()).transpose()
        if dag == Matrix.zeros(1, 4):
            lhs = Subspace.zero(4)
            annihilated += 1
        else:
            lhs = Subspace(dag, 4)
        rhs = PartialMap(m).preimage_closed(s.ortho()).ortho()
        assert lhs == rhs
    assert annihilated > 0
    return f"200 random 4x4 maps, {annihilated} with annihilated adjoint"


# ----- 5: axiom suite --------------------------------------------------------------


AXIOM_SCHEMAS = [
    "kripke", "testability-axiom", "partial-functionality", "adequacy",
    "proper-superpositions", "unitary-functionality", "unitary-bijectivity",
    "adjointness-axiom", "repeatability", "testability-closure",
    "quantum-modus-ponens", "weak-modularity", "post-adjunction",
    "adjointness-theorem", "separation", "trivial-local", "local-states",
    "basic-testability", "determinacy", "entanglement-axiom",
    "gate-locality", "characteristic", "cnot", "bell characterization",
    "ghz characterization", "gamma axiom row", "ortho-trivial",
    "locality-closure", "act-locally", "identical-parts", "perp-component",
]


@criterion(5, 180.0)
def test_axiom_suite():
    suite = axiom_suite()
    assert suite.passed, suite.headline
    assert_report_bytes(suite)
    for name in AXIOM_SCHEMAS:
        assert any(name in line for line in suite.lines), name
    # round-robin families get a top-up so every schema sees >= 50 draws
    rng = random.Random(505)
    for fn, count in ((_ax_dynamic, 250), (_ax_unitary, 200),
                      (_ax_testable, 200), (_ax_adjunction, 100)):
        rows = fn(rng, count)
        bad = [r.label for r in rows if not r.valid]
        assert not bad, bad
    return f"{len(suite.lines)} suite instances + 750 schema top-ups"


# ----- 6: teleportation ------------------------------------------------------------


@criterion(6, 5.0)
def test_teleportation_with_mutations():
    report = teleportation()
    assert report.passed, report.headline
    assert report.headline == "PASS (12/12 instances, 4 branches)"
    assert_report_bytes(report)
    env = Environment(Frame(3))
    union = " + ".join(_teleport_branch(x, y, False, False)
                       for x in (0, 1) for y in (0, 1))
    for c in "01+":
        whole = parse_formula(
            f"eqi{{3}}(img({union}, vec{{1}}({c}) & bell[0,0,2,3]),"
            f" img(mov[1,3](id), vec{{1}}({c})))")
        assert check_valid(env, whole) is None
    fr = Frame(3)
    mutations = [
        (dict(drop_z=True), "q=+ x=1,y=0", (1, 0, False, True),
         fr.ray([1, 0, 0, 1, 1, 0, 0, 1]), [1, 1], [1, -1]),
        (dict(drop_x=True), "q=0 x=0,y=1", (0, 1, True, False),
         fr.ray([1, 0, 0, 1, 0, 0, 0, 0]), [1, 0], [0, 1]),
    ]
    for kwargs, label, branch_args, inp, wanted, uncorrected in mutations:
        bad = teleportation(samples=0, **kwargs)
        assert not bad.passed
        line = next(l for l in bad.lines if f"\t{label}\t" in l)
        assert "\tFAIL" in line and "witness=" in line
        branch = _teleport_branch(*branch_args)
        claim = parse_formula(
            f"eqi{{3}}(img({branch}, vec{{1}}({label[2]}) & bell[0,0,2,3]),"
            f" img(mov[1,3](id), vec{{1}}({label[2]})))")
        witness = check_valid(env, claim)
        assert witness is not None
        # the pointwise evaluator confirms the witness refutes the claim
        assert check_state(env, witness, claim) is False
        # and the skipped correction is visible on the output's third qubit
        (branch_map,) = denote_program(env, parse_program(branch))
        out = branch_map.image_of(inp)
        part = fr.product_form(out, (3,))[0]
        assert part == Frame(1).ray(uncorrected)
        assert part != Frame(1).ray(wanted)
    return "claim valid per branch, union and 20 rays; 2 mutations refuted"


# ----- 7: secret sharing -----------------------------------------------------------


@criterion(7, 15.0)
def test_quantum_secret_sharing():
    report = quantum_secret_sharing()
    assert report.passed, report.headline
    assert report.headline == "PASS (26/26 instances, 8 branches)"
    assert_report_bytes(report)
    ghz = [line for line in report.lines if "ghz intermediate" in line]
    assert len(ghz) == 2
    assert all("\tPASS" in line for line in ghz)
    return "8 branches + 2 intermediate Bell facts + 20 rays"


# ----- 8: lemma suite --------------------------------------------------------------


LEMMA_FAMILIES = [
    "teleportation property", "corollary", "bell measurement",
    "bell preparation", "entanglement composition", "compatibility",
    "agreement", "dual entanglement", "entanglement preparation",
]


@criterion(8, 120.0)
def test_lemma_suite():
    suite = lemma_suite()
    assert suite.passed, suite.headline
    assert_report_bytes(suite)
    for name in LEMMA_FAMILIES:
        assert any(name in line for line in suite.lines), name
    return f"{len(suite.lines)} instances across {len(LEMMA_FAMILIES)} families"


# ----- 9: phase sensitivity --------------------------------------------------------


@criterion(9, 1.0)
def test_phase_counterexample():
    fr = Frame(1)
    env = Environment(fr)
    (z,) = denote_program(env, parse_program("Z_1"))
    (ident,) = denote_program(env, parse_program("id"))
    for ray in (product_ray(fr, "0"), product_ray(fr, "1")):
        assert z.image_of(ray) == ray
        assert ident.image_of(ray) == ray
    plus = product_ray(fr, "+")
    assert ident.image_of(plus) == plus
    assert z.image_of(plus) != plus
    assert z.image_of(plus) == fr.ray([1, -1])
    return "Z = id on 0 and 1, Z(+) = -, exact"


# ----- 10: the two evaluators agree ------------------------------------------------


@criterion(10, 60.0)
def test_symbolic_pointwise_coherence():
    rng = random.Random(1010)
    pairs = 0
    cases = []
    while pairs < 1000:
        n = rng.randint(1, 2)
        env = Environment(Frame(n))
        f = parse_formula(coherent_formula(rng, n, rng.randint(1, 3)))
        region = eval_symbolic(env, f)
        answers = []
        for _ in range(4):
            s = rand_ray(rng, n)
            answers.append((s, region.contains_ray(s)))
            assert answers[-1][1] == check_state(env, s, f), str(f)
            pairs += 1
        cases.append((env, f, answers))
    # the same pairs again, now that their subspaces and orthocomplements
    # are interned and memoised: the warm pass must answer as the first
    for env, f, answers in cases:
        region = eval_symbolic(env, f)
        for s, inside in answers:
            assert region.contains_ray(s) == check_state(env, s, f) == inside, \
                str(f)
    return (f"{pairs} (formula, ray) pairs over {len(cases)} formulas, "
            f"each checked twice")


# ----- 11: parser round trips ------------------------------------------------------


@criterion(11, 10.0)
def test_parser_round_trip_corpus():
    rng = random.Random(1111)
    corpus = 0
    for _ in range(60):
        f = rand_formula(rng, rng.randint(1, 3))
        assert parse_formula(ast.pretty(f)) == f
        corpus += 1
    for _ in range(60):
        p = rand_program(rng, rng.randint(1, 2))
        assert parse_program(ast.pretty(p)) == p
        corpus += 1
    assert corpus >= 100
    # the protocol texts parse to the structures the verifier consumes
    for x in (0, 1):
        for y in (0, 1):
            node = parse_program(_teleport_branch(x, y, False, False))
            assert isinstance(node, ast.SeqP)
            for z in (0, 1):
                node = parse_program(_qss_branch(x, y, z, False, "+-"))
                assert isinstance(node, ast.SeqP)
    claim = parse_formula("eqi{3}(img(X_1 + Z_1, q & bell[0,0,2,3]),"
                          " img(mov[1,3](id), q))")
    assert isinstance(claim, ast.EqI) and claim.qubits == (3,)
    assert isinstance(claim.left, ast.Img) and isinstance(claim.right, ast.Img)
    assert isinstance(claim.right.prog, ast.Mov)
    return f"{corpus} random round trips + protocol texts"


# ----- 12: scaling in the qubit count ----------------------------------------------


@criterion(12, 15.0)
def test_valid_scales_to_eight_qubits():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["valid", "-n", "8",
                     "0_1 -> [H_1 ; CNOT_1_2 ; CNOT_2_3]!(0_1 & 1_3)"])
    assert (code, out.getvalue()) == (0, "VALID\n")
    return "qpdl valid -n 8 on a 3-gate claim over 256 x 256 maps"


# ----- 13: a deterministic cost for verify all ---------------------------------

# Counts linalg._eliminate calls, Matrix.solve calls (one per test
# projector built) and Region constructions over `qpdl verify all --seed
# 2026` and prints the exit code, the three counts and the sha256 of stdout.
ELIMINATION_PROBE = """\
import contextlib, hashlib, io
from qpdl import linalg, regions
from qpdl.cli import main
calls = solves = built = 0
eliminate, solve = linalg._eliminate, linalg.Matrix.solve
init = regions.Region.__init__
def counted(work, cols):
    global calls
    calls += 1
    return eliminate(work, cols)
def counted_solve(self, rhs):
    global solves
    solves += 1
    return solve(self, rhs)
def counted_init(self, *args):
    global built
    built += 1
    init(self, *args)
linalg._eliminate, linalg.Matrix.solve = counted, counted_solve
regions.Region.__init__ = counted_init
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["verify", "all", "--seed", "2026"])
print(code, calls, solves, built, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""

VERIFY_ALL_SHA256 = \
    "bad8e8100fbefb3faf375c3fc4ce3d8549ece5775dd85bb3bae26bbf6ca9a08a"
MAX_VERIFY_ALL_ELIMINATIONS = 2_100
MAX_VERIFY_ALL_PROJECTORS = 90
MAX_VERIFY_ALL_REGIONS = 14_400


def fresh_process(args, timeout):
    """Run python with ``args`` in a new process on this checkout's qpdl."""
    src = str(Path(qpdl.__file__).resolve().parent.parent)
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


@criterion(13, 60.0)
def test_verify_all_elimination_count():
    # a fresh process, so that no memo warmed by an earlier test and no
    # garbage collection left pending by one can move the count
    proc = fresh_process(["-c", ELIMINATION_PROBE], timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, calls, solves, built, digest = proc.stdout.split()
    assert (code, digest) == ("0", VERIFY_ALL_SHA256)
    assert int(calls) <= MAX_VERIFY_ALL_ELIMINATIONS, calls
    assert int(solves) <= MAX_VERIFY_ALL_PROJECTORS, solves
    assert int(built) <= MAX_VERIFY_ALL_REGIONS, built
    return (f"{calls} eliminations <= {MAX_VERIFY_ALL_ELIMINATIONS}, "
            f"{solves} projectors <= {MAX_VERIFY_ALL_PROJECTORS} and "
            f"{built} regions <= {MAX_VERIFY_ALL_REGIONS} over "
            f"qpdl verify all --seed 2026")


# Prints the verdict of `qpdl valid -n 10` on a claim, the number of
# Matrix.row_basis calls on two or more rows, and the row count of each
# linalg._eliminate call it runs.
ROW_PROBE = """\
import contextlib, io, sys
from qpdl import linalg
from qpdl.cli import main
rows = []
bases = 0
eliminate, row_basis = linalg._eliminate, linalg.Matrix.row_basis
def counted(work, cols):
    rows.append(len(work))
    return eliminate(work, cols)
def counted_basis(self):
    global bases
    bases += self.rows > 1
    return row_basis(self)
linalg._eliminate, linalg.Matrix.row_basis = counted, counted_basis
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["valid", "-n", "10", sys.argv[1]])
print(code, out.getvalue().strip(), bases, *rows)
"""


def test_no_elimination_at_ten_qubits_has_more_rows_than_the_register():
    # meets once stacked both orthocomplements: 1,792 rows over 1,024 columns
    proc = fresh_process(["-c", ROW_PROBE,
                          "bell[0,0,1,2] -> [CNOT_1_2 ; H_1](0_1 & 0_2)"],
                         timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, verdict, bases, *rows = proc.stdout.split()
    assert (code, verdict) == ("0", "VALID")
    # the probe ran and saw bases of several rows formed; each has its rows
    # on disjoint columns, so none is eliminated
    assert int(bases) > 0
    assert rows == [], rows
    assert max(map(int, rows), default=0) <= 2 ** 10, rows


def test_meets_and_orthos_of_lifts_at_ten_qubits_run_on_their_parts():
    # plus is the meet of ten one-qubit lifts, and 0_1 & 1_3 the meet of
    # two: each is the lift of the tensor of their parts, and the ortho of
    # a lift the lift of its part's ortho, with no elimination 2^9 rows tall
    for claim, most in (("plus -> [H_1 ; H_1]plus", 0),
                        ("0_1 -> [H_1 ; CNOT_1_2 ; CNOT_2_3]!(0_1 & 1_3)", 2 ** 9 - 1)):
        proc = fresh_process(["-c", ROW_PROBE, claim], timeout=60)
        assert proc.returncode == 0, proc.stderr
        code, verdict, _, *rows = proc.stdout.split()
        assert (code, verdict) == ("0", "VALID")
        assert max(map(int, rows), default=0) <= most, (claim, rows)


# ----- 14: bounded entry growth on a crafted state ---------------------------------


def crafted_line():
    """The state orthogonal to 15 random rows with entries in
    {-2..2} + {-2..2}i at ambient 16.  Checking it took over a minute
    when elimination removed only the integer content of its rows, whose
    entries then grew with every pivot."""
    rng = random.Random(2026)
    rows = [[GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
             for _ in range(16)] for _ in range(15)]
    return Subspace(Matrix(rows), 16).ortho()


@criterion(14, 10.0)
def test_crafted_state_file_is_checked_fast():
    line = crafted_line()
    assert line.dim == 1
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "line.state"
        path.write_text(format_state(4, line))
        # a fresh process, where no memo holds the line's orthocomplement
        proc = fresh_process(["-m", "qpdl", "valid", "-n", "4", "-b", f"p=@{path}",
                              "~p | !~p"], timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "VALID\n", "")
    return "qpdl valid -n 4 on a crafted 16-amplitude state file"


# ----- 15: scaling in the qubit count where the support is everything ------------


@criterion(15, 2.5)
def test_valid_scales_to_nine_qubits_on_full_support_rays():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["valid", "-n", "9", "plus -> [H_1 ; H_1]plus"])
    assert (code, out.getvalue()) == (0, "VALID\n")
    return "qpdl valid -n 9 on plus -> [H_1 ; H_1]plus over 512 x 512 maps"


# ----- 16: past the CLI's register limit, on a unitary word ------------------


@criterion(16, 6.0)
def test_box_over_a_gate_word_scales_to_twelve_qubits():
    # the preimages under H_1 ; H_1 are the images of its adjoint, which
    # eliminate no 4,096-column kernel
    claim = parse_formula("plus -> [H_1 ; H_1]plus")
    assert check_valid(Environment(Frame(12)), claim) is None
    return "plus -> [H_1 ; H_1]plus on Frame(12), 4096 x 4096 maps, in-process"
