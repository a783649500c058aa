"""The two evaluators, symbolic regions and pointwise checks, and schematic claims."""

import functools
import gc
import itertools
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from qpdl import ast, checker, desugar, linalg, protocols
from qpdl.checker import (
    Environment,
    InstanceResult,
    _run,
    check_schematic,
    check_state,
    check_valid,
    denote_program,
    eval_symbolic,
    random_part_state,
    substitute,
)
from qpdl.desugar import MAX_NODES, desugar_formula, desugar_program, unfold_leq
from qpdl.errors import (
    CheckError,
    InputError,
    NonDeterministicProgram,
    SpatialAtomInSymbolicMode,
    UnboundVariable,
    UnsupportedShape,
)
from qpdl.frame import LOCAL_STATES, Frame, PartialMap, Subspace
from qpdl.linalg import ONE, ZERO, GaussianRational, Matrix
from qpdl.parser import parse_formula, parse_program
from qpdl.protocols import (
    _ax_entanglement,
    _random_program,
    _random_region,
    _random_subspace,
    _random_word,
)
from qpdl.regions import Region, make_term, wp, wp_map

from exact_reference import product_ray, same_rayset
from test_lang import CORE, rand_formula, subtrees


def rand_ray(rng, n):
    return Frame(n).ray(random_part_state(rng, n))


def env_pq(rng, fr):
    return Environment(fr, {"p": _random_region(rng, fr),
                            "q": _random_region(rng, fr)})


# ----- semantic identities, both sides computed independently -----------------


def test_ortho_is_closure_orthocomplement():
    rng = random.Random(501)
    fr = Frame(2)
    for _ in range(40):
        env = env_pq(rng, fr)
        via_eval = eval_symbolic(env, parse_formula("~p"))
        direct = Region.of_subspace(
            eval_symbolic(env, parse_formula("p")).closure().ortho())
        assert same_rayset(via_eval, direct)


def test_test_box_is_projector_wp():
    rng = random.Random(502)
    fr = Frame(2)
    for _ in range(40):
        env = env_pq(rng, fr)
        via_eval = eval_symbolic(env, parse_formula("[p?]q"))
        proj = PartialMap(
            eval_symbolic(env, parse_formula("p")).closure().projector())
        direct = wp_map(proj, eval_symbolic(env, parse_formula("q")))
        assert same_rayset(via_eval, direct)


def test_modal_box_is_orthocomplement_of_complement_closure():
    rng = random.Random(503)
    fr = Frame(2)
    for _ in range(40):
        env = env_pq(rng, fr)
        via_eval = eval_symbolic(env, parse_formula("box p"))
        p = eval_symbolic(env, parse_formula("p"))
        direct = Region.of_subspace(p.complement().closure().ortho())
        assert same_rayset(via_eval, direct)


def test_double_ortho_is_closure():
    rng = random.Random(504)
    fr = Frame(2)
    for _ in range(40):
        env = env_pq(rng, fr)
        via_eval = eval_symbolic(env, parse_formula("~(~p)"))
        direct = Region.of_subspace(
            eval_symbolic(env, parse_formula("p")).closure())
        assert same_rayset(via_eval, direct)


def test_testability_equivalences():
    rng = random.Random(505)
    fr = Frame(2)
    for _ in range(30):
        env = env_pq(rng, fr)
        testable = check_valid(env, parse_formula("testable(p)")) is None
        fixed = check_valid(env, parse_formula("eqf(p, ~(~p))")) is None
        assert testable == fixed
        # box psi is always testable
        assert check_valid(env, parse_formula("testable(box p)")) is None
        assert check_valid(env, parse_formula("testable(~p)")) is None


def test_ent_atom_matches_hand_built_map_state():
    rng = random.Random(506)
    big = Frame(2)
    one = Frame(1)
    for _ in range(30):
        word = _random_word(rng)
        env1 = Environment(one)
        (pm,) = denote_program(env1, word)
        g = pm.matrix
        amps = (g.entries[0][0], g.entries[1][0],
                g.entries[0][1], g.entries[1][1])
        direct = Region.of_subspace(Subspace.from_rows([amps], 4))
        via_eval = eval_symbolic(Environment(big),
                                 parse_formula(f"ent[1,2]({word})"))
        assert same_rayset(via_eval, direct)


def ent_words(rng, count):
    """One-qubit words of X, Z and H with tests inserted: on a named state,
    a ray, an ortho, a meet (empty or a state) and a complement (every
    state), so that a test's map is a projector of each rank."""
    tests = [ast.Const(c, 1) for c in "01+-"] + [
        ast.RayF((1,), (GaussianRational(1, 2), GaussianRational(Fraction(-1, 3)))),
        ast.Ortho(ast.Const("+", 1)),
        ast.And(ast.Const("0", 1), ast.Const("+", 1)),
        ast.And(ast.Const("1", 1), ast.Not(ast.Const("0", 1))),
        ast.Not(ast.Const("-", 1))]
    words = []
    for _ in range(count):
        steps = [ast.GateP(rng.choice("XZH"), (1,)) for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(1, 2)):
            steps.insert(rng.randrange(len(steps) + 1), ast.Test(rng.choice(tests)))
        words.append(functools.reduce(ast.SeqP, steps))
    return words


def test_ent_reads_the_one_qubit_map_as_the_block_did():
    # ent denotes its one-qubit program in a one-qubit environment and
    # reads the 2x2 map; the route it replaced denoted the program in the
    # n-qubit frame and read the block on qubit 1 with the rest at |0...0>
    rng = random.Random(2040)
    cases = Counter()
    for n in range(2, 5):
        env = Environment(Frame(n))
        fr = env.frame
        for word in ent_words(rng, 8):
            for i, j in itertools.permutations(range(1, n + 1), 2):
                core = desugar_formula(ast.Ent(i, j, word), n)
                got = checker._atom_subspace(env, core)
                block = fr.block(checker._denote(env, core.prog)[0], (1,))
                assert got is fr.map_to_state(block, i, j)
                cases[got.is_zero()] += 1
    # maps that are 0 and maps that are not
    assert cases[True] > 10 and cases[False] > 100, cases


def test_ent_forms_no_register_wide_product(monkeypatch):
    widths = []
    mul = Matrix.__mul__
    monkeypatch.setattr(Matrix, "__mul__",
                        lambda a, b: widths.append(max(a.cols, b.cols)) or mul(a, b))
    env = Environment(Frame(4))
    region = eval_symbolic(env, parse_formula("ent[1,4](H_1 ; 0_1? ; X_1 ; -_1? ; Z_1)"))
    assert region.closure().dim == 4
    assert widths and max(widths) == 2
    # nothing was denoted in the 4-qubit environment
    assert env._denotations == {}


def test_ent_programs_are_denoted_in_the_callers_one_qubit_environment():
    env = Environment(Frame(3))
    assert env._one_qubit is None  # made on first use
    claim = parse_formula("ent[1,2](H_1 ; 0_1?) & ent[2,3](X_1) -> ent[1,2](H_1 ; 0_1?)")
    assert check_valid(env, claim) is None
    one = env.one_qubit()
    assert one.frame.n == 1 and one.valuation == {}
    remembered = dict(one._denotations)
    assert len(remembered) >= 3  # H, the test, their word and X
    # every session of env uses it, and it outlives them
    session = checker._Session(env)
    assert session.one_qubit() is one
    assert check_valid(env, claim) is None
    assert env.one_qubit() is one and one._denotations == remembered
    # an environment of its own has its own
    assert Environment(Frame(3)).one_qubit() is not one


# ----- native atoms against their defining circuits, both directions ----------


def test_bell_atoms_equal_their_preparation():
    for n, (i, j) in ((2, (1, 2)), (3, (2, 3))):
        env = Environment(Frame(n))
        for x in (0, 1):
            for y in (0, 1):
                f = parse_formula(
                    f"eqf(bell[{x},{y},{i},{j}],"
                    f" img(H_{i} ; CNOT_{i}_{j}, {x}_{i} & {y}_{j}))")
                assert check_valid(env, f) is None


def test_ghz_atom_equals_its_preparation():
    env = Environment(Frame(3))
    f = parse_formula(
        "eqf(ghz[1,2,3],"
        " img(H_1 ; CNOT_1_2 ; CNOT_1_3, vec{1,2,3}(0,0,0)))")
    assert check_valid(env, f) is None


def test_gamma_atom_equals_its_preparation():
    env = Environment(Frame(2))
    f = parse_formula("eqf(gamma[1,2], img(CNOT_1_2, +_1 & +_2))")
    assert check_valid(env, f) is None


def test_bell_alternate_qubit_order():
    # entangling 3,1 at n=3 exercises non-adjacent, descending indices
    env = Environment(Frame(3))
    f = parse_formula(
        "eqf(bell[1,0,3,1], img(H_3 ; CNOT_3_1, 1_3 & 0_1))")
    assert check_valid(env, f) is None


# ----- universal modality and adjunction ---------------------------------------


def test_double_box_is_universal():
    rng = random.Random(507)
    fr = Frame(2)
    for _ in range(30):
        env = env_pq(rng, fr)
        region = eval_symbolic(env, parse_formula("p"))
        got = eval_symbolic(env, parse_formula("box (box p)"))
        if region.complement().is_empty():
            assert got.complement().is_empty()
        else:
            assert got.is_empty()


def test_adjunction_paired_validity():
    rng = random.Random(508)
    fr = Frame(2)
    for _ in range(40):
        w = _random_program(rng, 2)
        env = Environment(fr, {"p": _random_region(rng, fr),
                               "q": _random_subspace(rng, fr)})
        left = check_valid(env, parse_formula(f"leq(post({w}, p), q)"))
        right = check_valid(env, parse_formula(f"leq(p, [{w}]q)"))
        assert (left is None) == (right is None)


def test_box_of_trivial_program_on_all_qubits():
    rng = random.Random(509)
    fr = Frame(2)
    for _ in range(20):
        env = env_pq(rng, fr)
        region = eval_symbolic(env, parse_formula("p"))
        got = eval_symbolic(env, parse_formula("[T{1,2}]p"))
        if region.complement().is_empty():
            assert got.complement().is_empty()
        else:
            assert got.is_empty()


# ----- phase sensitivity ---------------------------------------------------------


def test_z_and_identity_agree_on_basis_but_not_plus():
    env = Environment(Frame(1))
    assert check_valid(env, parse_formula(
        "eqf(img(Z_1, 0_1), img(id, 0_1))")) is None
    assert check_valid(env, parse_formula(
        "eqf(img(Z_1, 1_1), img(id, 1_1))")) is None
    witness = check_valid(env, parse_formula(
        "eqf(img(Z_1, +_1), img(id, +_1))"))
    assert witness is not None


# ----- symbolic/pointwise coherence ----------------------------------------------


def coherent_formula(rng, n, depth):
    """A random formula in the fragment both evaluators decide."""
    if depth <= 0:
        kind = rng.choice(["const", "vec", "bell", "gamma", "true", "false"])
        if kind == "const":
            return f"{rng.choice('01+-')}_{rng.randint(1, n)}"
        if kind == "vec":
            k = rng.randint(1, n)
            qs = sorted(rng.sample(range(1, n + 1), k))
            chars = ",".join(rng.choice("01+-") for _ in qs)
            return f"vec{{{','.join(map(str, qs))}}}({chars})"
        if kind == "bell" and n >= 2:
            i, j = rng.sample(range(1, n + 1), 2)
            return f"bell[{rng.randrange(2)},{rng.randrange(2)},{i},{j}]"
        if kind == "gamma" and n >= 2:
            i, j = rng.sample(range(1, n + 1), 2)
            return f"gamma[{i},{j}]"
        if kind == "true":
            return "true"
        return "false"
    sub = lambda: coherent_formula(rng, n, depth - 1)
    atom = lambda: coherent_formula(rng, n, 0)
    prog = lambda: _random_program(rng, n)
    kind = rng.choice(["not", "ortho", "and", "or", "implies", "sqcup",
                       "boxm", "diam", "box", "dia", "leq", "eqf", "perpf",
                       "testable", "dom", "post", "img"])
    if kind == "not":
        return f"!({sub()})"
    if kind == "ortho":
        return f"~({sub()})"
    if kind == "and":
        return f"({sub()}) & ({sub()})"
    if kind == "or":
        return f"({sub()}) | ({sub()})"
    if kind == "implies":
        return f"({sub()}) -> ({sub()})"
    if kind == "sqcup":
        return f"sqcup({sub()}, {sub()})"
    if kind == "boxm":
        return f"box ({sub()})"
    if kind == "diam":
        return f"dia ({sub()})"
    if kind == "box":
        return f"[{prog()}]({sub()})"
    if kind == "dia":
        return f"<{prog()}>({sub()})"
    if kind == "leq":
        return f"leq({sub()}, {sub()})"
    if kind == "eqf":
        return f"eqf({sub()}, {sub()})"
    if kind == "perpf":
        return f"perpf({sub()}, {sub()})"
    if kind == "testable":
        return f"testable({sub()})"
    if kind == "dom":
        return f"dom(({atom()})?)" if rng.random() < 0.3 else f"dom({prog()})"
    if kind == "post":
        return f"post({prog()}, {sub()})"
    # image bodies stay unions of subspaces: atoms joined by | and &
    left, right = atom(), atom()
    body = f"({left}) {rng.choice('|&')} ({right})"
    return f"img({prog()}, {body})"


def test_symbolic_and_pointwise_agree():
    rng = random.Random(510)
    checked = 0
    while checked < 300:
        n = rng.randint(1, 2)
        fr = Frame(n)
        env = Environment(fr)
        f = parse_formula(coherent_formula(rng, n, rng.randint(1, 3)))
        region = eval_symbolic(env, f)
        for _ in range(3):
            s = rand_ray(rng, n)
            assert region.contains_ray(s) == check_state(env, s, f), str(f)
            checked += 1


# ----- spatial constructs at concrete states --------------------------------------


def test_separation_atom_at_states():
    fr = Frame(2)
    env = Environment(fr)
    top1 = parse_formula("T{1}")
    assert check_state(env, product_ray(fr, "01"), top1)
    assert check_state(env, fr.ray([1, 1, 2, 2]), top1)
    assert not check_state(env, fr.ray([1, 0, 0, 1]), top1)
    assert check_state(env, fr.ray([1, 0, 0, 1]), parse_formula("T{1,2}"))


def test_check_state_takes_a_one_dimensional_subspace():
    fr = Frame(2)
    env = Environment(fr)
    for sub in (fr.state_lift((1, 0), (1,)), Subspace.zero(fr.dim)):
        with pytest.raises(ValueError, match="one-dimensional"):
            check_state(env, sub, parse_formula("true"))


def test_component_formula_at_states():
    # the body of cmp{I} is written in the component's own coordinates,
    # so qubit 2's component is qubit 1 of a 1-qubit subframe
    fr = Frame(2)
    env = Environment(fr)
    f = parse_formula("cmp{2}(+_1)")
    assert check_state(env, product_ray(fr, "0+"), f)
    assert check_state(env, fr.ray([3, 3, 1, 1]), f)
    assert not check_state(env, product_ray(fr, "00"), f)
    assert not check_state(env, fr.ray([1, 0, 0, 1]), f)


def test_component_region_lifts_the_integer_row_of_its_state(monkeypatch):
    # the body's one state is lifted from its integer row: no scalar is
    # built, and the lift is the one state_lift makes from amplitudes
    fr = Frame(3)
    f = parse_formula("cmp{3,1}(-_1 & +_2)")
    want = fr.state_lift((1, 1, -1, -1), (1, 3))
    monkeypatch.setattr(Matrix, "entries", property(
        lambda m: pytest.fail("a Matrix built its scalar entries")))
    region = eval_symbolic(Environment(fr), f)
    assert [t.positive for t in region.terms] == [want]


def test_eqi_formula_at_states():
    fr = Frame(3)
    env = Environment(fr)
    f = parse_formula(
        "eqi{3}(img(id, +_1 & 0_2 & 0_3), img(X_3, vec{2,3}(0,1)))")
    assert check_valid(env, f) is None
    g = parse_formula("eqi{3}(img(id, +_3), img(id, -_3))")
    assert check_valid(env, g) is not None


def test_local_formula_and_program():
    fr = Frame(2)
    env = Environment(fr, {"p": fr.state_lift((1, 1), (1,))})
    assert check_valid(env, parse_formula("local{1}(p)")) is None
    assert check_valid(env, parse_formula("local{2}(p)")) is not None
    assert check_valid(env, parse_formula("localp{1}(X_1 + 0_1?)")) is None
    assert check_valid(env, parse_formula("localp{2}(X_1)")) is not None


def locality_tests(rng, fr):
    """Core tests f? whose closures are 0, everything, constants, named
    basis products, lifts of random part-states on each qubit set, Bell
    pairs, and S' (x) R with neither side a ray."""
    n = fr.n
    texts = ["false", "true"]
    texts += [f"{c}_{q}" for c in "01+-" for q in range(1, n + 1)]
    texts += ["vec{%s}(%s)" % (",".join(map(str, qs)),
                               ",".join(rng.choice("01+-") for _ in qs))
              for qs in itertools.combinations(range(1, n + 1), min(n, 2))]
    if n >= 2:
        texts += ["bell[0,1,1,2]", f"bell[1,1,{n},1]", "0_1 | 1_2"]
    if n >= 4:
        texts += ["(0_1 | 1_2) & (+_3 | 0_4)", "(0_1 | 1_2) & (+_3 | !+_3)"]
    tests = [desugar_program(parse_program(f"({t})?"), n) for t in texts]
    for qs in itertools.chain.from_iterable(
            itertools.combinations(range(1, n + 1), k) for k in range(1, n + 1)):
        tests.append(ast.Test(ast.RayF(qs, random_part_state(rng, len(qs)))))
    return tests


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_test_is_judged_local_as_its_projector_is(monkeypatch, n):
    # localp of a test on S reads S's product form and builds no projector;
    # the route it replaces denotes the test and compares P_S with the lift
    # of its block
    rng = random.Random(366 + n)
    fr = Frame(n)
    solves, solve = [], Matrix.solve
    monkeypatch.setattr(Matrix, "solve",
                        lambda m, rhs: solves.append(1) or solve(m, rhs))
    verdicts = set()
    for test in locality_tests(rng, fr):
        closed = eval_symbolic(Environment(fr), test.formula).closure()
        for size in range(n + 1):
            for inside in itertools.combinations(range(1, n + 1), size):
                env = Environment(fr)
                del solves[:]
                local = checker._program_is_local(env, test, inside)
                split = (closed.is_zero() or closed.is_full()
                         or fr.product_form(closed, inside) is not None)
                if split:
                    assert solves == [], (test, inside)
                denoted = all(pm.is_local(fr, inside)
                              for pm in checker._denote(Environment(fr), test))
                assert local == denoted, (test, inside)
                verdicts.add((local, split))
    # an entangled S is not split; from n = 3, neither is S' (x) H_rest
    # with both sides of dimension 2 or more, which is local
    assert verdicts == ({(True, True), (False, True)}
                        | ({(False, False)} if n >= 2 else set())
                        | ({(True, False)} if n >= 3 else set()))


@pytest.mark.parametrize("n, formula, valid", [
    (2, "local{1}(0_1)", True),
    (2, "local{1}(0_1 | 1_1)", True),
    (2, "local{1}(0_1 | (0_1 & +_2))", True),
    (2, "local{1}(false)", True),
    (3, "local{1,2}((0_1 & 1_2) | (1_1 & 0_2))", True),
    (2, "local{1}(true)", False),
    (2, "local{2}(true)", False),
    (2, "local{1}(1_2 | !1_2)", False),
    (3, "local{1,2}(0_1)", False),
    (2, "local{1}(0_2)", False),
    (2, "local{2}(0_2 | (0_1 & 1_2))", False),
    (3, "local{1,2}(0_1 | 0_3)", False),
])
def test_local_means_part_states_tensor_rest(n, formula, valid):
    # below N, I-local regions are S' (x) H_rest for a set S' of
    # part-states, so true and 0_1 on I = {1,2} at n = 3 are not local:
    # the atoms axiom of protocols needs that (test_protocols)
    env = Environment(Frame(n))
    assert (check_valid(env, parse_formula(formula)) is None) == valid


def test_eqi_and_local_read_both_product_forms():
    # on I = {1}: p is x (x) V, a ray on qubit 1 and anything on qubit 2;
    # q and r are V_I (x) y, anything on qubit 1 and + or - on qubit 2
    fr = Frame(2)
    env = Environment(fr, {
        "p": fr.state_lift((1, 2), (1,)),
        "q": Subspace.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]], 4),
        "r": Subspace.from_rows([[1, -1, 0, 0], [0, 0, 1, -1]], 4),
    })
    # p's one component against all of qubit 1
    assert check_valid(env, parse_formula("eqi{1}(p, q)")) is not None
    # q and r share the component V_I; on qubit 2 they differ
    assert check_valid(env, parse_formula("eqi{1}(q, r)")) is None
    assert check_valid(env, parse_formula("eqi{2}(q, r)")) is not None
    # a V_I (x) y term constrains qubit 2, so q is not 1-local but 2-local
    assert check_valid(env, parse_formula("local{1}(q)")) is not None
    assert check_valid(env, parse_formula("local{1}(p | q)")) is not None
    assert check_valid(env, parse_formula("local{2}(q | r)")) is None


def test_pointwise_recurses_through_deterministic_boxes():
    fr = Frame(2)
    env = Environment(fr)
    s = product_ray(fr, "00")
    # spatial atoms are fine under a box: the output states are checked
    # one by one
    assert check_state(env, s, parse_formula("[X_1](T{1} & 1_1)"))
    # but a measurement diamond needs the body as a region, which a
    # separation atom cannot provide
    with pytest.raises(CheckError):
        check_state(env, s, parse_formula("dia (T{1})"))


# ----- error taxonomy --------------------------------------------------------------


def test_unbound_variable():
    env = Environment(Frame(1))
    with pytest.raises(UnboundVariable):
        check_valid(env, parse_formula("p -> p"))


def test_ent_requires_deterministic_program():
    env = Environment(Frame(2))
    with pytest.raises(NonDeterministicProgram):
        eval_symbolic(env, parse_formula("ent[1,2](X_1 + Z_1)"))


def test_image_of_proper_cut_region_is_refused():
    env = Environment(Frame(1))
    # !0_1 denotes everything except a subspace: not a union of subspaces
    with pytest.raises(UnsupportedShape):
        eval_symbolic(env, parse_formula("img(X_1, !0_1)"))


def test_component_and_locality_refuse_cut_regions():
    env = Environment(Frame(2))
    for text, message in [
        ("eqi{1}(!0_1, 0_1)", "=_I compares unions of subspaces or states only"),
        ("eqi{1}(0_1, !0_1)", "=_I compares unions of subspaces or states only"),
        ("local{1}(!0_2)", "locality is judged on unions of subspaces only"),
    ]:
        with pytest.raises(UnsupportedShape) as exc:
            eval_symbolic(env, parse_formula(text))
        assert str(exc.value) == message, text


def test_separation_atom_is_not_symbolic():
    env = Environment(Frame(2))
    with pytest.raises(SpatialAtomInSymbolicMode):
        eval_symbolic(env, parse_formula("T{1}"))


def test_trivial_program_composition_is_refused():
    env = Environment(Frame(2))
    with pytest.raises(UnsupportedShape):
        denote_program(env, parse_program("T{1} ; X_1"))


def test_environment_coerces_subspaces():
    fr = Frame(1)
    env = Environment(fr, {"p": fr.state_lift((1, 0), (1,))})
    assert isinstance(env.lookup("p"), Region)
    assert check_valid(env, parse_formula("p -> [X_1]1_1")) is None


def test_a_double_negation_is_the_region_itself():
    # _eval reads !!f as f instead of complementing twice
    rng = random.Random(550)
    for _ in range(60):
        n = rng.randint(1, 2)
        env = Environment(Frame(n))
        f = parse_formula(coherent_formula(rng, n, rng.randint(1, 3)))
        region = eval_symbolic(env, f)
        assert eval_symbolic(env, ast.Not(ast.Not(f))).terms == region.terms
        assert same_rayset(region, region.complement().complement()), str(f)


# ----- remembered denotations and the action-by-action oracle --------------------------


def plain_branches(fr, prog):
    """The branch maps of a generated program by a plain fold of then,
    each test's projector built from its constant's state lift."""
    if isinstance(prog, ast.UnionP):
        return plain_branches(fr, prog.left) + plain_branches(fr, prog.right)
    if isinstance(prog, ast.SeqP):
        return [f.then(g) for f in plain_branches(fr, prog.left)
                for g in plain_branches(fr, prog.right)]
    if isinstance(prog, ast.Test):
        c = prog.formula
        return [PartialMap(fr.state_lift(LOCAL_STATES[c.char], (c.qubit,)).projector())]
    return [fr.gate(prog.kind, prog.targets)]


@pytest.mark.parametrize("n", [2, 3])
def test_warm_denotations_equal_cold_ones_and_a_plain_fold(n):
    rng = random.Random(520 + n)
    fr = Frame(n)
    warm = Environment(fr)
    for _ in range(40):
        prog = _random_program(rng, n, deterministic=rng.random() < 0.5)
        first = denote_program(warm, prog)
        assert denote_program(warm, prog) is first
        assert first == denote_program(Environment(fr), prog), prog
        assert list(first) == plain_branches(fr, prog), prog


def test_a_second_schematic_run_composes_no_maps(monkeypatch):
    template = parse_formula("q -> [w](dia q)")
    branches = {"a": parse_program("X_1 ; H_1 ; 0_1?"),
                "b": parse_program("+_1? ; Z_1 + id")}
    env = Environment(Frame(1))
    first = check_schematic(env, template, "q", (1,), branches,
                            rng=random.Random(7), samples=3)
    calls, then = [], PartialMap.then
    monkeypatch.setattr(PartialMap, "then",
                        lambda f, g: calls.append(1) or then(f, g))
    again = check_schematic(env, template, "q", (1,), branches,
                            rng=random.Random(7), samples=3)
    assert calls == []
    assert again == first
    cold = check_schematic(Environment(Frame(1)), template, "q", (1,),
                           branches, rng=random.Random(7), samples=3)
    assert cold == first
    assert calls != []


def test_a_gate_circuit_claim_eliminates_no_full_width_matrix(monkeypatch):
    # gate kernels are 0 from construction and a word of gates takes its
    # first gate's kernel, so no 64 x 64 map is eliminated for one; the
    # image of a ray is normalised without elimination
    rows, eliminate = [], linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda work, cols: rows.append(len(work))
                        or eliminate(work, cols))
    env = Environment(Frame(6))
    witness = check_valid(env, parse_formula("[CNOT_2_1 ; H_2 ; X_4 ; H_3]false"))
    assert witness is not None
    assert max(rows, default=0) <= 1


def test_a_box_over_a_gate_word_forms_no_product(monkeypatch):
    # [w]false reads only w's kernel, known when the word is built, and
    # the preimages under w ; adj(w) of the 16-dimensional 0_1 & +_2 are
    # taken through the gates: 16 rows times one gate at a time, and no
    # 64 x 64 product of the word is formed
    shapes, mul = [], Matrix.__mul__
    monkeypatch.setattr(Matrix, "__mul__", lambda a, b: shapes.append(
        (a.rows, a.cols, b.cols)) or mul(a, b))
    w = "CNOT_2_1 ; H_2 ; X_4 ; H_3 ; CNOT_5_6 ; H_6"
    witness = check_valid(Environment(Frame(6)), parse_formula(f"[{w}]false"))
    assert witness is not None
    assert shapes == []
    claim = f"0_1 & +_2 -> [{w} ; adj({w})](0_1 & +_2)"
    assert check_valid(Environment(Frame(6)), parse_formula(claim)) is None
    assert (16, 64, 64) in shapes
    assert all(rows < 64 for rows, _, _ in shapes), sorted(set(shapes))


def test_a_changed_valuation_answers_as_a_fresh_environment():
    rng = random.Random(530)
    fr = Frame(2)
    prog = parse_program("p? ; H_1 + (p | 0_2)?")
    claim = parse_formula("[p? ; H_1 + (p | 0_2)?]p")
    env = Environment(fr, {"p": _random_subspace(rng, fr, 3)})
    changed = 0
    for _ in range(10):
        before = denote_program(env, prog)
        check_valid(env, claim)
        p = _random_subspace(rng, fr, 3)
        env.valuation["p"] = Region.of_subspace(p)
        fresh = Environment(fr, {"p": p})
        after = denote_program(env, prog)
        assert after == denote_program(fresh, prog)
        assert check_valid(env, claim) == check_valid(fresh, claim)
        changed += before != after
    assert changed > 0


def test_the_memo_dies_with_its_environment():
    env = Environment(Frame(2))
    check_valid(env, parse_formula("[X_1 ; 0_1? + H_2]0_1"))
    assert env._denotations
    gone = weakref.ref(env)
    del env
    gc.collect()
    assert gone() is None


def test_a_test_runs_as_the_sasaki_projection():
    # (s v S^perp) ^ S is the ray of P_S s, and zero when s is orthogonal to S
    rng = random.Random(540)
    zeros = 0
    for n in (1, 2):
        fr = Frame(n)
        for _ in range(30):
            sub = _random_subspace(rng, fr)
            env = Environment(fr, {"p": sub})
            if sub.is_full() or rng.random() < 0.7:
                s = rand_ray(rng, n)
            else:
                s = sub.ortho().any_ray()
            [out] = _run(env, s, ast.Test(ast.Var("p")))
            assert out == PartialMap(sub.projector()).image_of(s)
            zeros += out.is_zero()
    assert zeros > 0


# ----- [f?]false read as the kernel of the test ---------------------------------------


def kernel_read_valuations(rng, fr):
    """Values for p: a subspace, a union of two, a term with a negative,
    and the zero and full spans."""
    sub = functools.partial(_random_subspace, rng, fr)
    plane = sub()
    while plane.dim < 2:
        plane = sub()
    yield Region.of_subspace(sub())
    yield Region.of_subspace(sub()).union(Region.of_subspace(sub()))
    yield Region(fr.dim, [make_term(plane, [plane.any_ray()])])
    yield Region.empty(fr.dim)
    yield Region.full(fr.dim)


def basis_rays(fr):
    return [fr.ray([int(k == j) for k in range(fr.dim)]) for j in range(fr.dim)]


def test_a_test_boxed_over_false_is_the_kernel_of_its_projector_map():
    # the region wp builds from the test's map, and the pointwise oracle,
    # which runs the test as a Sasaki projection, at basis rays and witnesses
    rng = random.Random(570)
    cases = 0
    for n in (1, 2, 3):
        fr = Frame(n)
        for value in kernel_read_valuations(rng, fr):
            env = Environment(fr, {"p": value})
            session = checker._Session(env)
            for f in (ast.Var("p"), ast.Not(ast.Var("p"))):
                # dia f is the complement of [f?]false; <f?>true boxes over
                # !true, not false, and keeps the general path
                none = ast.Box(ast.Test(f), ast.FalseF())
                dia = ast.Not(none)
                closed = checker._eval(env, f).closure()
                want = wp((PartialMap(closed.projector(), closed.ortho()),),
                          Region.empty(fr.dim))
                assert checker._eval(env, none).terms == want.terms
                # a session answers alike, cold and from its memo
                assert checker._eval(session, none).terms == want.terms
                assert checker._eval(session, none).terms == want.terms
                for core in (none, dia):
                    region = checker._eval(env, core)
                    rays = basis_rays(fr) + [
                        r for r in (region.witness(), region.complement().witness())
                        if r is not None]
                    for s in rays:
                        assert checker._holds(env, s, core) == region.contains_ray(s)
                        assert checker._holds(session, s, core) == \
                            region.contains_ray(s)
                cases += 1
    assert cases == 30
    # the test's formula is evaluated first and raises as it does under _denote
    env = Environment(Frame(2))
    with pytest.raises(UnboundVariable):
        checker._eval(env, ast.Box(ast.Test(ast.Var("v")), ast.FalseF()))
    with pytest.raises(SpatialAtomInSymbolicMode):
        checker._eval(env, ast.Box(ast.Test(ast.Top((1,))), ast.FalseF()))


def test_global_judgements_build_no_projector(monkeypatch):
    # Matrix.solve is the one elimination that builds a test's projector
    rng = random.Random(571)
    fr = Frame(2)
    solves, solve = [], Matrix.solve
    monkeypatch.setattr(Matrix, "solve",
                        lambda self, rhs: solves.append(1) or solve(self, rhs))
    for _ in range(10):
        env = env_pq(rng, fr)
        for text in ("leq(p, q)", "eqf(p, q)", "box p -> box p"):
            check_valid(env, parse_formula(text))
    assert solves == []
    # a test boxed over anything but false still denotes its map
    check_valid(env_pq(rng, fr), parse_formula("[p?]q -> [p?]q"))
    assert solves


def general_intersect(a, b):
    """Region.intersect's loop, over every pair of terms."""
    return Region(a.ambient, [make_term(x.positive.meet(y.positive),
                                        x.negatives + y.negatives)
                              for x in a.terms for y in b.terms])


def general_complement(a):
    """Region.complement's loop, from a full region built by make_term."""
    full = Subspace.full(a.ambient)
    result = Region(a.ambient, [make_term(full, [])])
    for t in a.terms:
        parts = [make_term(full, [t.positive])] + [make_term(b, []) for b in t.negatives]
        result = general_intersect(result, Region(a.ambient, parts))
    return result


def test_empty_and_full_operands_give_the_terms_of_the_general_loop():
    rng = random.Random(572)
    for n in (1, 2, 3):
        fr = Frame(n)
        assert Region.full(fr.dim) is Region.full(fr.dim)
        assert Region.empty(fr.dim) is Region.empty(fr.dim)
        assert Region.of_subspace(Subspace.zero(fr.dim)) is Region.empty(fr.dim)
        sub = _random_subspace(rng, fr)
        assert Region.of_subspace(sub).terms == (make_term(sub, []),)
        assert Region.full(fr.dim).terms == (make_term(Subspace.full(fr.dim), []),)
        values = list(kernel_read_valuations(rng, fr))
        # full built another way; the full positive part less a cut, and
        # every ray in two terms, which are not structurally full
        outside = Region.of_subspace(sub).complement()
        values += [Region.of_subspace(Subspace.full(fr.dim)), outside,
                   Region.of_subspace(sub).union(outside)]
        for a in values:
            assert a.complement().terms == general_complement(a).terms
            for b in values:
                assert a.intersect(b).terms == general_intersect(a, b).terms
                assert a.union(b).terms == Region(fr.dim, a.terms + b.terms).terms
                assert a.intersect(b).witness() == general_intersect(a, b).witness()


def box_of_box(g):
    """[(![g?]false)?]false."""
    none = ast.Box(ast.Test(g), ast.FalseF())
    return ast.Box(ast.Test(ast.Not(none)), ast.FalseF())


def test_a_box_of_a_box_is_an_emptiness_test():
    # the region the closure-ortho-complement tower builds, and the
    # pointwise oracle, at basis rays and witnesses
    rng = random.Random(573)
    cases = 0
    for n in (1, 2, 3):
        fr = Frame(n)
        for value in kernel_read_valuations(rng, fr):
            env = Environment(fr, {"p": value, "q": _random_region(rng, fr)})
            session = checker._Session(env)
            p, q = ast.Var("p"), ast.Var("q")
            for g in (p, ast.Not(p), ast.And(p, ast.Not(q))):
                core = box_of_box(g)
                kernel = Region.of_subspace(checker._eval(env, g).closure().ortho())
                tower = Region.of_subspace(kernel.complement().closure().ortho())
                assert checker._eval(env, core).terms == tower.terms
                # a session answers alike, cold and from its memo
                assert checker._eval(session, core).terms == tower.terms
                assert checker._eval(session, core).terms == tower.terms
                # a box over anything but false inside is the kernel read
                near = ast.Box(ast.Test(ast.Not(ast.Box(ast.Test(g), ast.TrueF()))),
                               ast.FalseF())
                assert checker._eval(env, near).terms == Region.full(fr.dim).terms
                for f in (core, ast.Not(core)):
                    region = checker._eval(env, f)
                    rays = basis_rays(fr) + [
                        r for r in (region.witness(), region.complement().witness())
                        if r is not None]
                    for s in rays:
                        assert checker._holds(env, s, f) == region.contains_ray(s)
                        assert checker._holds(session, s, f) == region.contains_ray(s)
                cases += 1
    assert cases == 45
    # box box x is the case g = !x; the global judgements desugar to a
    # Leq node, whose unfolding is that tower
    core = desugar_formula(parse_formula("box box p"), 2)
    assert core == box_of_box(core.prog.formula.body.prog.formula)
    assert isinstance(core.prog.formula.body.prog.formula, ast.Not)
    for text in ("leq(p, q)", "perpf(p, q)", "testable(p)"):
        core = desugar_formula(parse_formula(text), 2)
        assert isinstance(core, ast.Leq)
        tower = unfold_leq(core)
        assert tower == box_of_box(tower.prog.formula.body.prog.formula)
        assert isinstance(tower.prog.formula.body.prog.formula, ast.Not)
    # g is evaluated, and raises, as under the tower
    for env in (Environment(Frame(2)), checker._Session(Environment(Frame(2)))):
        with pytest.raises(UnboundVariable):
            checker._eval(env, box_of_box(ast.Var("v")))


def unfolded(node):
    """``node`` with every Leq replaced by its unfolding: the core tree
    desugaring built while Leq was no core node."""
    if type(node) is ast.Leq:
        node = unfold_leq(node)
    return ast.rebuild(node, [unfolded(part) for part in ast.parts(node)])


def charged(node, n):
    """The core tree of ``node``, or the class and message of the error
    that refuses it, with the rewrites and the nodes of the core tree
    charged to the budgets."""
    memo = desugar.DesugarMemo()
    budget = desugar._Desugaring(memo)
    try:
        tree = budget.core(node, n)
    except (CheckError, InputError) as exc:
        return (type(exc), str(exc)), MAX_NODES - budget.left, None
    return tree, MAX_NODES - budget.left, memo.sizes.get(id(tree), 1)


def nodes_in(tree):
    """The nodes of ``tree``, each use of a shared node counted."""
    return 1 + sum(map(nodes_in, ast.parts(tree)))


# The inputs of the budget tests: refused for their rewrites, for their
# core nodes, or accepted just below the node budget.
BUDGET_TEXTS = (["testable(" * 60 + "0_1" + ")" * 60]
                + ["eqf(0_1, " * k + "0_1" + ")" * k for k in (6, 8, 9, 10, 11, 40)]
                + ["perpf(" * 4 + "0_1" + ", leq(0_1, 1_1))" * 4])
BUDGET_FILLS = [(" & ".join(["[w]q"] * 8 + ["[v]q"]), 700),
                ("eqf(0_1, " * 6 + "[w]q" + ")" * 6, 70)]


def test_a_leq_node_decides_and_costs_as_its_unfolding(monkeypatch):
    # today's desugaring against the one that unfolds every Leq, which
    # the rules did before: the same charges, the same regions cold and
    # warm, and the pointwise oracle on the Leq agreeing with them
    def towers(d, f, n, rule):
        return unfolded(rule(d, f, n))

    rng = random.Random(575)
    cases = [(rand_formula(rng, rng.randint(1, 3)), 1 + k % 4) for k in range(240)]
    cases += [(parse_formula(text), 1) for text in BUDGET_TEXTS]
    # a box over T{I} and localp, whose T{I} the generator rarely makes
    # on every qubit of the frame
    cases.append((parse_formula("eqf([T{1,2}]p, q) -> leq(localp{1}(T{1}),"
                                " [T{1,2}](p | q))"), 2))
    cases += [(substitute(parse_formula(text), {"q": ast.VecC((1,), "0"),
                                                 "w": long_word(k)}), 1)
              for text, k in BUDGET_FILLS]
    seen, outcomes = set(), Counter()
    for node, n in cases:
        with monkeypatch.context() as m:
            for cls in (ast.Leq, ast.EqF, ast.PerpF, ast.Testable):
                m.setitem(desugar.RULES, cls,
                          functools.partial(towers, rule=desugar.RULES[cls]))
            tower, *want = charged(node, n)
        core, *got = charged(node, n)
        assert got == want, ast.pretty(node)
        if isinstance(tower, tuple):
            assert core == tower
            outcomes[tower[0].__name__] += 1
            continue
        assert unfolded(core) == tower and nodes_in(tower) == want[1]
        if want[1] > MAX_NODES:
            outcomes["past the node budget"] += 1
            continue
        fr = Frame(n)
        env = Environment(fr, {v: _random_region(rng, fr) for v in "pqr"})
        region = outcome(lambda: checker._eval(env, core))
        if isinstance(region, tuple):
            assert outcome(lambda: checker._eval(env, tower)) == region
            outcomes["refused"] += 1
            continue
        assert checker._eval(env, tower).terms == region.terms
        session = checker._Session(env)
        for _ in "cold", "warm":
            assert checker._eval(session, core).terms == region.terms
        rays = basis_rays(fr) + [r for r in (region.witness(),
                                             region.complement().witness()) if r]
        for s in rays:
            holds = outcome(lambda: checker._holds(env, s, core))
            assert holds == outcome(lambda: checker._holds(env, s, tower))
            if isinstance(holds, tuple):
                break
            assert holds == region.contains_ray(s), ast.pretty(node)
        else:
            seen |= {type(sub) for sub in subtrees(core)}
            outcomes["decided"] += 1
    assert seen == CORE
    assert min(outcomes.values()) >= 3, outcomes


# ----- schematic machinery -----------------------------------------------------------


def test_substitute_replaces_variables_everywhere():
    # one mapping fills a formula variable (Var) and a program variable
    # (PVar), also inside ent and adj
    template = parse_formula(
        "eqi{2}(img(q? ; w, q & ent[1,2](w)), img(adj(w), q))")
    filled = substitute(template, {"q": ast.Const("+", 1),
                                   "w": parse_program("X_1 ; Z_1")})
    assert filled == parse_formula(
        "eqi{2}(img(+_1? ; (X_1 ; Z_1), +_1 & ent[1,2](X_1 ; Z_1)),"
        " img(adj(X_1 ; Z_1), +_1))")
    # a variable the mapping does not name is left, and is unbound
    partly = substitute(template, {"q": ast.Const("+", 1)})
    assert partly.left.prog.right == partly.right.prog.prog == ast.PVar("w")
    with pytest.raises(UnboundVariable):
        check_valid(Environment(Frame(2)), partly)
    # a Var takes a formula and a PVar a program, checked as they are filled
    with pytest.raises(TypeError, match="variable 'p' takes a program"):
        substitute(parse_formula("[p]p"), {"p": ast.Const("0", 1)})
    with pytest.raises(TypeError, match="variable 'q' takes a formula"):
        substitute(template, {"q": parse_program("X_1")})


def test_ghz_and_gamma_desugar_to_their_rays():
    assert desugar_formula(ast.GHZ(3, 1, 2), 3) == ast.RayF(
        (3, 1, 2), (ONE,) + (ZERO,) * 6 + (ONE,))
    assert desugar_formula(ast.Gamma(1, 2), 2) == ast.RayF((1, 2), (ONE,) * 4)
    fr = Frame(3)
    ghz = eval_symbolic(Environment(fr), parse_formula("ghz[1,2,3]"))
    assert same_rayset(ghz, Region.of_subspace(fr.ray([1, 0, 0, 0, 0, 0, 0, 1])))
    gamma = eval_symbolic(Environment(fr), parse_formula("gamma[2,3]"))
    assert same_rayset(gamma, Region.of_subspace(
        fr.state_lift([1, 1, 1, 1], (2, 3))))


def test_schematic_claim_enumerates_and_corroborates():
    env = Environment(Frame(2))
    template = parse_formula("eqi{2}(img(mov[1,2](id), q), img(flip_1_2, q))")
    instances, corroborations = check_schematic(
        env, template, "q", (1,), rng=random.Random(99), samples=5)
    assert all(r.valid for r in instances + corroborations)
    assert len(corroborations) == 5
    assert [r.label for r in instances] == ["q=0", "q=1", "q=+"]


def test_schematic_claim_splits_union_branches():
    # [X_1 + Z_1](dia q) holds iff it holds through each branch, so each
    # branch is an instance of its own, labelled with its name
    env = Environment(Frame(1))
    template = parse_formula("q -> [w](dia q)")
    branches = {"flip": parse_program("X_1"), "phase": parse_program("Z_1")}
    instances, corroborations = check_schematic(
        env, template, "q", (1,), branches, rng=random.Random(99), samples=2)
    assert [r.label for r in instances] == [
        f"q={c} {name}" for c in "01+" for name in ("flip", "phase")]
    assert [r.valid for r in instances] == [
        False, True, False, True, True, False]
    assert len(corroborations) == 2
    # a corroboration fills w with the union of the branches
    rng = random.Random(99)
    for r in corroborations:
        state = ast.RayF((1,), random_part_state(rng, 1))
        union = parse_program("X_1 + Z_1")
        filled = substitute(template, {"q": state, "w": union})
        assert r.valid == (check_valid(env, filled) is None)


def test_schematic_failure_carries_confirmed_witness():
    env = Environment(Frame(1))
    template = parse_formula("eqf(img(Z_1, q), img(id, q))")
    instances, corroborations = check_schematic(
        env, template, "q", (1,), rng=random.Random(99), samples=0)
    assert corroborations == ()
    bad = [r for r in instances if not r.valid]
    assert [r.label for r in bad] == ["q=+"]
    assert bad[0].witness is not None
    # the witness refutes the instantiated claim pointwise
    filled = substitute(template, {"q": ast.Const("+", 1)})
    assert not check_state(env, bad[0].witness, filled)


# ----- schema sessions ---------------------------------------------------------------


def per_instance(env, template, var, qubits, branches=None, rng=None,
                 samples=20, real_only=False):
    """``check_schematic`` with each instance filled in one substitution
    and decided alone by ``check_valid``, as it was before sessions."""
    fills = [(f" {label}", {"w": prog})
             for label, prog in (branches or {}).items()] or [("", {})]
    instances = []
    for chars in itertools.product("01+", repeat=len(qubits)):
        state = ast.VecC(tuple(qubits), "".join(chars))
        for suffix, fill in fills:
            witness = check_valid(env, substitute(template, {var: state, **fill}))
            instances.append(InstanceResult(f"{var}={state.chars}{suffix}",
                                            witness is None, witness))
    union = {"w": functools.reduce(ast.UnionP, branches.values())} if branches else {}
    corroborations = []
    for k in range(samples if rng is not None else 0):
        state = ast.RayF(tuple(qubits), random_part_state(rng, len(qubits), real_only))
        witness = check_valid(env, substitute(template, {var: state, **union}))
        corroborations.append(
            InstanceResult(f"random state {k + 1}", witness is None, witness))
    return tuple(instances), tuple(corroborations)


def schematic_calls(monkeypatch, run):
    """The arguments of each ``check_schematic`` call that ``run`` makes
    through ``protocols``, its rng given as the state it started in."""
    calls, real = [], protocols.check_schematic

    def spy(env, template, var, qubits, branches=None, rng=None, **options):
        calls.append((env.frame, dict(env.valuation), template, var, qubits,
                      branches, rng and rng.getstate(), options))
        return real(env, template, var, qubits, branches, rng, **options)

    monkeypatch.setattr(protocols, "check_schematic", spy)
    run()
    monkeypatch.undo()
    return calls


# template texts over q, the program variable w and a region p; {i} and {j}
# are two distinct qubits, and w fills ent and mov with a one-qubit word
SESSION_SHAPES = [
    ("eqi{{{j}}}(img(q?, ent[{i},{j}](w)), img(mov[{i},{j}](w), q))", True),
    ("testable(q) -> eqi{{{j}}}(img(q?, ent[{i},{j}](w)), img(mov[{i},{j}](w), q))",
     True),
    ("eqf(img(adj(w), img(w, q)), q)", False),
    ("q -> [w ; adj(w)](dia q)", False),
    ("leq(post(adj(w), q), dia q) | [w](p -> q)", False),
    ("eqi{{{j}}}(img(w, q & bell[0,1,{i},{j}]), img(mov[{i},{j}](id), q))", False),
]


def random_schemas(rng, count):
    """Calls of ``check_schematic`` on random schemas at n = 2 and 3: an
    environment, the template and the rest of the arguments."""
    for _ in range(count):
        n = rng.randint(2, 3)
        fr = Frame(n)
        i, j = rng.sample(range(1, n + 1), 2)
        text, one_qubit = rng.choice(SESSION_SHAPES)
        # ent takes one map, so a corroboration's union of words must be one
        words = [_random_word(rng)] if one_qubit else [
            _random_program(rng, n, deterministic=rng.random() < 0.5)
            for _ in range(rng.randint(1, 3))]
        qubits = (i,) if one_qubit or rng.random() < 0.6 else (i, j)
        yield (fr, {"p": _random_region(rng, fr)},
               parse_formula(text.format(i=i, j=j)), "q", qubits,
               {f"w{k}": w for k, w in enumerate(words)},
               random.Random(rng.random()).getstate(), {"samples": 3})


def protocol_schemas(monkeypatch):
    runs = [lambda: protocols.teleportation(2026),
            lambda: protocols.teleportation(2026, drop_x=True),
            lambda: protocols.teleportation(2026, drop_z=True),
            lambda: protocols.quantum_secret_sharing(2026),
            lambda: protocols.quantum_secret_sharing(2026, omit_z=True),
            lambda: protocols.quantum_secret_sharing(2026, invert_sign=True),
            lambda: _ax_entanglement(random.Random(2026), 3)]
    return [call for run in runs for call in schematic_calls(monkeypatch, run)]


def test_a_session_decides_each_instance_as_check_valid_does(monkeypatch):
    calls = protocol_schemas(monkeypatch)
    assert len(calls) == 9
    calls += random_schemas(random.Random(560), 14)
    refuted = 0
    for fr, valuation, template, var, qubits, branches, state, options in calls:
        def rng():
            if state is None:
                return None
            r = random.Random()
            r.setstate(state)
            return r

        env = Environment(fr, valuation)
        want = per_instance(Environment(fr, valuation), template, var, qubits,
                            branches, rng(), **options)
        cold = check_schematic(env, template, var, qubits, branches, rng(), **options)
        warm = check_schematic(env, template, var, qubits, branches, rng(), **options)
        assert cold == want, ast.pretty(template)
        assert warm == want, ast.pretty(template)
        refuted += sum(not r.valid for r in cold[0] + cold[1])
    assert refuted > 0


def test_a_session_rewrites_each_shared_node_once(monkeypatch):
    # over teleportation's one session each branch program and the Bell
    # state are rewritten once, where each instance used to rewrite them
    watched, rewrites = {}, Counter()
    real, rebuild, bell_rule = (protocols.check_schematic, ast.rebuild,
                                desugar.RULES[ast.Bell])

    def spy(env, template, var, qubits, branches, **options):
        bell = template.left.body.right
        assert bell == ast.Bell(0, 0, 2, 3) and len(branches) == 4
        watched.update((id(node), node) for node in [bell, *branches.values()])
        return real(env, template, var, qubits, branches, **options)

    # a branch is rewritten part by part, the Bell state by its rule;
    # filling rebuilds the Bell state, but never a branch
    def counted_rebuild(node, parts):
        rewrites[id(node)] += isinstance(node, ast.Program) and id(node) in watched
        return rebuild(node, parts)

    def counted_bell(d, f, n):
        rewrites[id(f)] += id(f) in watched
        return bell_rule(d, f, n)

    monkeypatch.setattr(protocols, "check_schematic", spy)
    monkeypatch.setattr(ast, "rebuild", counted_rebuild)
    monkeypatch.setitem(desugar.RULES, ast.Bell, counted_bell)
    protocols.teleportation(2026)
    assert [rewrites[key] for key in watched] == [1] * 5


def test_a_session_dies_when_its_claim_is_decided(monkeypatch):
    sessions, decide = [], checker._decide
    monkeypatch.setattr(checker, "_decide", lambda env, core, oracle:
                        sessions.append(weakref.ref(env)) or decide(env, core, oracle))
    env = Environment(Frame(1))
    check_schematic(env, parse_formula("q -> [w](dia q)"), "q", (1,),
                    {"a": parse_program("X_1 ; H_1"), "b": parse_program("Z_1")},
                    rng=random.Random(7), samples=3)
    assert len(sessions) == 9 and env._denotations and env._nodes is None
    assert all(s() is sessions[0]() is not env for s in sessions)
    gc.collect()
    assert sessions[0]() is None


def test_a_region_a_session_remembers_wrongly_is_a_disagreement(monkeypatch):
    # the pointwise re-check keeps its own answers, so a wrong region in
    # the deciding session's memo is caught rather than confirmed
    decide = checker._decide

    def poisoned(env, core, oracle):
        assert oracle is not env and oracle._nodes is not env._nodes
        env._nodes[id(core.left)] = (core.left, Region.empty(env.frame.dim))
        return decide(env, core, oracle)

    monkeypatch.setattr(checker, "_decide", poisoned)
    with pytest.raises(RuntimeError, match="disagree"):
        check_schematic(Environment(Frame(1)), parse_formula("eqi{1}(q & q, q)"),
                        "q", (1,))


def unshared(node):
    """An equal copy of ``node``, rebuilt node by node, so that no two of
    its uses are one object."""
    return type(node)(*[unshared(v) if isinstance(v, ast.Node) else v
                        for v in (getattr(node, f) for f in node.FIELDS)])


def outcome(decide):
    """The witness ``decide()`` returns, or the class and message of what
    it raises."""
    try:
        return decide()
    except Exception as exc:
        return type(exc), str(exc)


def test_check_valid_of_a_shared_parse_decides_as_the_cold_route():
    # check_valid decides a parse, one node per distinct subterm, in a
    # session; the route it replaces decides an unshared copy, and each
    # use of a node, in a plain environment
    rng = random.Random(563)
    seen = Counter()
    for _ in range(200):
        n = rng.randint(1, 3)
        fr = Frame(n)
        valuation = env_pq(rng, fr).valuation
        a, b = (coherent_formula(rng, n, rng.randint(1, 3)) for _ in range(2))
        f = parse_formula(rng.choice([
            a, f"(p & ({a})) -> (({a}) | q)", f"eqf(({a}) & p, ({b}) | ({a}))",
            f"({a}) | img(H_1, p)"]))
        copy = unshared(f)
        ids, todo = [], [copy]
        while todo:
            node = todo.pop()
            ids.append(id(node))
            todo += ast.parts(node)
        assert copy == f and len(set(ids)) == len(ids)
        shared = outcome(lambda: check_valid(Environment(fr, valuation),
                                             parse_formula(ast.pretty(f))))
        env = Environment(fr, valuation)
        cold = outcome(lambda: checker._decide(env, desugar_formula(copy, n), env))
        if isinstance(cold, tuple):
            assert shared == cold, ast.pretty(f)
        else:
            assert shared is cold, ast.pretty(f)
        seen["valid" if cold is None else "refuted" if isinstance(cold, Subspace)
             else "raised"] += 1
    assert min(seen[k] for k in ("valid", "refuted", "raised")) >= 5, seen


def test_a_determinacy_claim_images_each_distinct_img_once(monkeypatch):
    # w1 and w2 are written out in every conjunct, and eqf uses each side
    # twice; the parse shares them, and the session images each img once
    w1, w2 = "H_1 ; CNOT_1_2", "Z_2 ; Z_2 ; H_1 ; CNOT_1_2"
    vecs = ["vec{1,2}(0,0)", "vec{1,2}(+,1)", "vec{1,2}(1,-)", "0_2", "+_1"]
    ante = " & ".join(f"eqf(img({w1}, {v}), img({w2}, {v}))" for v in vecs)
    f = parse_formula(f"{ante} -> eqf(img({w1}, p), img({w2}, p))")
    imaged, image_region = [], checker._image_region
    monkeypatch.setattr(checker, "_image_region", lambda env, g:
                        imaged.append(g) or image_region(env, g))
    fr = Frame(2)
    p = Region.of_subspace(_random_subspace(random.Random(564), fr, 2))
    assert check_valid(Environment(fr, {"p": p}), f) is None
    assert len(imaged) == len({id(g) for g in imaged}) == 2 * len(vecs) + 2
    assert len({id(g.prog) for g in imaged}) == 2


def long_word(k):
    """X_1 k times, as a balanced tree of ; of 2k - 1 nodes."""
    if k == 1:
        return ast.GateP("X", (1,))
    return ast.SeqP(long_word(k // 2), long_word(k - k // 2))


@pytest.mark.parametrize("text, k", [
    # eight uses of w: a session rewrites it once but charges eight times
    # its 1,399 rewrites, which crosses the rewrite budget before the
    # unbound v is reached
    (" & ".join(["[w]q"] * 8 + ["[v]q"]), 700),
    # eqf uses each part twice: 9,213 rewrites, but a core tree of 10,599
    # nodes, which crosses the node budget
    ("eqf(0_1, " * 6 + "[w]q" + ")" * 6, 70),
])
def test_a_fill_past_the_budget_is_refused_alike_in_a_session(text, k):
    # within the instance the session answers the later uses of a node
    # from its memo, and those answers must cost what their rewrites did
    env = Environment(Frame(1))
    template = parse_formula(text)
    with pytest.raises(InputError) as alone:
        check_valid(env, substitute(template, {"q": ast.VecC((1,), "0"),
                                               "w": long_word(k)}))
    with pytest.raises(InputError) as in_session:
        check_schematic(env, template, "q", (1,), {"long": long_word(k)})
    assert str(in_session.value) == str(alone.value) == \
        f"expression expands past {MAX_NODES} nodes"


def test_random_part_state_shapes():
    rng = random.Random(511)
    for n in (1, 2, 3):
        amps = random_part_state(rng, n)
        assert len(amps) == 2 ** n
        assert any(amps)
    real = random_part_state(rng, 2, real_only=True)
    assert all(a.im == 0 for a in real)
