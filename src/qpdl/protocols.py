"""Named, executable verification targets.

Protocol correctness (teleportation, quantum secret sharing), the lemma
library around entangled map-states, and the axiom-soundness suite.
Every target returns a Report whose rendered text is byte-identical for
a fixed seed.  Mutation switches (drop_x, drop_z, omit_z, invert_sign)
damage a protocol on purpose so tests can confirm the checker catches
the bug with a concrete witness.

Every claim is a template: text over variables (p, q, w, ...) written
at qubits 1, 2, ..., parsed once per process on first use, never at
import.  A case is built from it by ``ast.instantiate``, one walk that
moves qubit k to the k-th qubit the case draws and fills the variables
with formulas, program trees and random words as they are.  A family
whose qubit sets vary in size writes one template per size, and the
exhaustive tables one per row.  The protocols' branch programs are
parsed once per process too.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple
from functools import cache, reduce
from itertools import combinations

from . import ast
from .checker import (
    Environment,
    InstanceResult,
    check_schematic,
    check_state,
    check_valid,
    eval_symbolic,
    random_part_state,
)
from .frame import Frame, Subspace
from .linalg import Matrix
from .parser import parse_formula, parse_program
from .regions import Region

DEFAULT_SEED = 2026


class Report(namedtuple("Report", "name passed headline lines seed duration")):
    """Outcome of one verification target.

    lines has one entry per instance: target, instance id and verdict,
    tab-separated, with the witness appended on failures.  duration is
    not rendered, keeping output byte-stable across runs."""
    __slots__ = ()

    def render_text(self) -> str:
        out = [f"{self.name}: {self.headline}"]
        if self.seed is not None:
            out.append(f"{self.name}: seed {self.seed}")
        out.extend(self.lines)
        return "\n".join(out)


def _ray_text(ray: Subspace) -> str:
    n = (ray.ambient - 1).bit_length()
    parts = []
    for idx, a in enumerate(ray.basis.entries[0]):
        if a:
            parts.append(f"({a})|{format(idx, f'0{n}b')}>")
    return " + ".join(parts)


def _line(name: str, r: InstanceResult) -> str:
    text = f"{name}\t{r.label}\t{'PASS' if r.valid else 'FAIL'}"
    if r.witness is not None:
        text += f"\twitness={_ray_text(r.witness)}"
    return text


def _report(name: str, instances, seed, start, branches=None,
            corroborations=()) -> Report:
    """The headline counts the instances; corroborations are listed after
    them and must pass too."""
    ok = sum(r.valid for r in instances)
    passed = ok == len(instances) and all(r.valid for r in corroborations)
    unit = f"{ok}/{len(instances)} instances"
    if branches is not None:
        unit += f", {branches} branches"
    headline = f"{'PASS' if passed else 'FAIL'} ({unit})"
    lines = tuple(_line(name, r) for r in (*instances, *corroborations))
    return Report(name, passed, headline, lines, seed,
                  time.perf_counter() - start)


# ----- random material ---------------------------------------------------------


def _random_word(rng, tests: bool = True, qubit: int = 1) -> ast.Program:
    """A deterministic program on one qubit: a short gate word, sometimes
    with one basis test inserted."""
    steps = [ast.GateP(rng.choice("XZH"), (qubit,))
             for _ in range(rng.randint(1, 4))]
    if tests and rng.random() < 0.3:
        steps.insert(rng.randrange(len(steps) + 1),
                     ast.Test(ast.Const(rng.choice("01+-"), qubit)))
    return reduce(ast.SeqP, steps)


def _random_program(rng, n: int, qubits=None, deterministic: bool = True,
                    tests: bool = True) -> ast.Program:
    """A gate word of length <= 6 over the given qubits (default all)."""
    qs = sorted(qubits) if qubits else list(range(1, n + 1))
    steps = []
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if tests and roll < 0.15:
            steps.append(ast.Test(ast.Const(rng.choice("01+-"),
                                            rng.choice(qs))))
        elif roll < 0.35 and len(qs) >= 2:
            steps.append(ast.GateP("CNOT", tuple(rng.sample(qs, 2))))
        else:
            steps.append(ast.GateP(rng.choice("XZH"), (rng.choice(qs),)))
    word = reduce(ast.SeqP, steps)
    if not deterministic:
        word = ast.UnionP(word, _random_program(rng, n, qubits, True, tests))
    return word


def _random_subspace(rng, fr: Frame, max_dim: int | None = None) -> Subspace:
    while True:
        k = rng.randint(1, max_dim or fr.dim)
        rows = [[(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(fr.dim)]
                for _ in range(k)]
        sub = Subspace(Matrix.of_integers(rows), fr.dim)
        if not sub.is_zero():
            return sub


def _random_union_region(rng, fr: Frame) -> Region:
    """A union of subspaces: the shape images can be taken of."""
    region = Region.of_subspace(_random_subspace(rng, fr, fr.dim // 2))
    for _ in range(rng.randint(0, 1)):
        region = region.union(
            Region.of_subspace(_random_subspace(rng, fr, fr.dim // 2)))
    return region


def _random_region(rng, fr: Frame) -> Region:
    region = Region.of_subspace(_random_subspace(rng, fr))
    for _ in range(rng.randint(0, 2)):
        roll = rng.randrange(3)
        if roll == 0:
            region = region.union(Region.of_subspace(_random_subspace(rng, fr)))
        elif roll == 1:
            region = region.intersect(
                Region.of_subspace(_random_subspace(rng, fr)))
        else:
            region = region.complement()
    return region


def _random_ray(rng, fr: Frame, real_only: bool = False) -> Subspace:
    return fr.ray(random_part_state(rng, fr.n, real_only))


def _local_ray_formula(rng, qubit: int, real_only: bool = False) -> ast.Formula:
    return ast.RayF((qubit,), random_part_state(rng, 1, real_only))


# ----- claims -------------------------------------------------------------------


@cache
def _parsed(text: str, program: bool = False):
    """A claim or program text, parsed once per process."""
    return (parse_program if program else parse_formula)(text)


def _claim(text: str, qubits=(), **binding) -> ast.Formula:
    """The claim ``text``, written at qubits 1, 2, ..., with qubit k moved
    to ``qubits[k - 1]`` and each variable of ``binding`` filled; the text
    is parsed once per process (see ``ast.instantiate``)."""
    return ast.instantiate(_parsed(text), dict(enumerate(qubits, 1)), binding)


def _listed(qubits) -> str:
    return ",".join(map(str, qubits))


def _first(count: int, after: int = 0) -> str:
    """The qubits after+1 .. after+count as an index list: a set of
    ``count`` qubits as a claim text writes it, numbered in order."""
    return _listed(range(after + 1, after + count + 1))


# ----- protocols ----------------------------------------------------------------


def _teleport_branch(x: int, y: int, drop_x: bool, drop_z: bool) -> str:
    steps = ["CNOT_1_2", "H_1", f"({x}_1 & {y}_2)?"]
    if y and not drop_x:
        steps.append("X_3")
    if x and not drop_z:
        steps.append("Z_3")
    return " ; ".join(steps)


def teleportation(seed: int = DEFAULT_SEED, drop_x: bool = False,
                  drop_z: bool = False, samples: int = 20) -> Report:
    """Move an unknown qubit-1 state onto qubit 3 using a shared Bell
    pair and the two measurement bits: for every branch (x, y), the
    image of q_1 & bell00_23 has 3-component q.  drop_x / drop_z omit
    Bob's corrections and must make the claim fail."""
    start = time.perf_counter()
    branches = {f"x={x},y={y}":
                _parsed(_teleport_branch(x, y, drop_x, drop_z), program=True)
                for x in (0, 1) for y in (0, 1)}
    template = _parsed("eqi{3}(img(w, q & bell[0,0,2,3]), img(mov[1,3](id), q))")
    instances, corroborations = check_schematic(
        Environment(Frame(3)), template, "q", (1,), branches,
        rng=random.Random(seed), samples=samples)
    return _report("teleportation", instances, seed, start,
                   branches=len(branches), corroborations=corroborations)


def _qss_branch(x: int, y: int, z: int, omit_z: bool, signs: str) -> str:
    steps = [f"bell[{x},{y},1,2]?", f"{signs[z]}_3?"]
    if z and not omit_z:
        steps.append("Z_4")
    if y:
        steps.append("X_4")
    if x:
        steps.append("Z_4")
    return " ; ".join(steps)


def quantum_secret_sharing(seed: int = DEFAULT_SEED, omit_z: bool = False,
                           invert_sign: bool = False,
                           samples: int = 20) -> Report:
    """Split an unknown qubit-1 state across a GHZ triple on 2,3,4: a
    Bell measurement on 1,2 (bits x,y), a dual-basis measurement on 3
    (bit z), and the pooled correction Z^z;X^y;Z^x on 4 recover it.

    The z-th dual-basis outcome is + for z=0 and - for z=1; the claim
    fails under the opposite reading (invert_sign) and when the pooled
    bit is dropped (omit_z).  The report also checks the two
    intermediate facts: projecting qubit 3 of the GHZ state onto +/-
    leaves {2,4} in the Bell state bell[z,0,2,4]."""
    start = time.perf_counter()
    signs = "-+" if invert_sign else "+-"
    branches = {f"x={x},y={y},z={z}":
                _parsed(_qss_branch(x, y, z, omit_z, signs), program=True)
                for x in (0, 1) for y in (0, 1) for z in (0, 1)}
    template = _parsed("eqi{4}(img(w, q & ghz[2,3,4]), img(mov[1,4](id), q))")
    env = Environment(Frame(4))
    instances, corroborations = check_schematic(
        env, template, "q", (1,), branches, rng=random.Random(seed),
        samples=samples)
    extra = []
    for z in (0, 1):
        witness = check_valid(env, _parsed(
            f"eqi{{2,4}}(img({signs[z]}_3?, ghz[2,3,4]), bell[{z},0,2,4])"))
        extra.append(InstanceResult(f"ghz intermediate z={z}",
                                    witness is None, witness))
    return _report("qss", instances + tuple(extra), seed, start,
                   branches=len(branches), corroborations=corroborations)


# ----- lemma suite ---------------------------------------------------------------


def _valid(env: Environment, formula: ast.Formula, label: str) -> InstanceResult:
    witness = check_valid(env, formula)
    return InstanceResult(label, witness is None, witness)


def _lemma_teleportation_property(rng) -> list:
    """(sigma_jk? ; pi_ij?)(p_i) =_k (pi_ij ; sigma_jk)(p_i)."""
    env = Environment(Frame(3))
    out = []
    cases = [((1, 2, 3), ast.Id(), ast.Id(), ast.VecC((1,), "+"))]
    while len(cases) < 10:
        i, j, k = rng.sample([1, 2, 3], 3)
        cases.append(((i, j, k), _random_word(rng), _random_word(rng),
                      _local_ray_formula(rng, i)))
    for t, ((i, j, k), pi, sg, p) in enumerate(cases):
        claim = _claim("eqi{3}(img(ent[2,3](sg)? ; ent[1,2](pi)?, p),"
                       " img(mov[1,2](pi) ; mov[2,3](sg), p))",
                       (i, j, k), pi=pi, sg=sg, p=p)
        out.append(_valid(env, claim,
                          f"teleportation property #{t + 1} i={i},j={j},k={k}"))
    return out


def _lemma_corollary6(rng) -> list:
    """pi_ij?(p_i & sigma_jk) =_k (pi_ij ; sigma_jk)(p_i)."""
    env = Environment(Frame(3))
    out = []
    for t in range(8):
        i, j, k = rng.sample([1, 2, 3], 3)
        pi, sg = _random_word(rng), _random_word(rng)
        claim = _claim("eqi{3}(img(ent[1,2](pi)?, p & ent[2,3](sg)),"
                       " img(mov[1,2](pi) ; mov[2,3](sg), p))",
                       (i, j, k), pi=pi, sg=sg, p=_local_ray_formula(rng, i))
        out.append(_valid(env, claim, f"corollary 6 #{t + 1} i={i},j={j},k={k}"))
    return out


def _lemma_bell_measurement(rng) -> list:
    """(CNOT_ij ; H_i ; (x_i & y_j)?)(p) =_k bell[x,y,i,j]?(p)."""
    out = []
    for t in range(8):
        i, j, k = rng.sample([1, 2, 3], 3)
        x, y = rng.randrange(2), rng.randrange(2)
        fr = Frame(3)
        p = (Region.of_subspace(_random_ray(rng, fr))
             if t % 2 else Region.of_subspace(_random_subspace(rng, fr, 2)))
        env = Environment(fr, {"p": p})
        claim = _claim(f"eqi{{3}}(img(CNOT_1_2 ; H_1 ; ({x}_1 & {y}_2)?, p),"
                       f" img(bell[{x},{y},1,2]?, p))", (i, j, k))
        out.append(_valid(env, claim,
                          f"bell measurement #{t + 1} x={x},y={y},i={i},j={j}"))
    return out


def _lemma_bell_preparation(rng) -> list:
    """(H_i ; CNOT_ij)(x_i & y_j) equals the Bell formula."""
    env = Environment(Frame(3))
    out = []
    for i, j in ((1, 2), (2, 3)):
        for x in (0, 1):
            for y in (0, 1):
                claim = _claim(f"eqf(img(H_1 ; CNOT_1_2, {x}_1 & {y}_2),"
                               f" bell[{x},{y},1,2])", (i, j))
                out.append(_valid(env, claim,
                                  f"bell preparation x={x},y={y},i={i},j={j}"))
    return out


def _lemma_composition(rng) -> list:
    """Measuring j,k of two entangled pairs by a map-state composes the
    maps onto i,l, with the k-side local map adjointed."""
    env = Environment(Frame(4))
    out = []
    cases = [((1, 2, 3, 4), *[ast.Id()] * 5)]
    while len(cases) < 8:
        i, j, k, l = rng.sample([1, 2, 3, 4], 4)
        cases.append(((i, j, k, l),
                      *[_random_word(rng, tests=False) for _ in range(5)]))
    for t, ((i, j, k, l), pi, pi2, mid, sg, rho) in enumerate(cases):
        claim = _claim("ent[1,2](pi) & ent[3,4](pi2) ->"
                       " [mov[2,2](sg) ; mov[3,3](rho) ; ent[2,3](mid)?]"
                       " ent[1,4](pi ; sg ; mid ; adj(rho) ; pi2)",
                       (i, j, k, l), pi=pi, pi2=pi2, mid=mid, sg=sg, rho=rho)
        out.append(_valid(env, claim,
                          f"entanglement composition #{t + 1} "
                          f"i={i},j={j},k={k},l={l}"))
    return out


def _lemma_compatibility(rng) -> list:
    """Deterministic programs on disjoint qubit sets commute."""
    out = []
    sets = [({1}, {2}), ({1}, {2, 3}), ({2}, {3}), ({1, 2}, {3})]
    for t in range(8):
        one, two = sets[t % len(sets)]
        fr = Frame(3)
        a = _random_program(rng, 3, one)
        b = _random_program(rng, 3, two)
        env = Environment(fr, {"r": _random_union_region(rng, fr)})
        claim = _claim(f"localp{{{_first(len(one))}}}(a)"
                       f" & localp{{{_first(len(two), len(one))}}}(b) ->"
                       f" eqf(img(a ; b, r), img(b ; a, r))",
                       sorted(one) + sorted(two), a=a, b=b)
        out.append(_valid(
            env, claim, f"compatibility #{t + 1} "
                        f"I={{{_listed(sorted(one))}}},J={{{_listed(sorted(two))}}}"))
    return out


def _lemma_agreement(rng) -> list:
    """Same-domain I-local maps that separate the input agree outside I."""
    out = []
    for t in range(8):
        fr = Frame(3)
        if t == 7:
            test = ast.Test(ast.VecC((1, 2), "0+"))
            a = ast.SeqP(test, ast.GateP("CNOT", (1, 2)))
            b = ast.SeqP(ast.SeqP(test, ast.GateP("H", (1,))),
                         ast.GateP("H", (2,)))
            inside = [1, 2]
        else:
            c = rng.choice("01+-")
            i = rng.choice([1, 2, 3])
            test = ast.Test(ast.Const(c, i))
            a = ast.SeqP(test, _random_word(rng, tests=False, qubit=i))
            b = ast.SeqP(test, _random_word(rng, tests=False, qubit=i))
            inside = [i]
        outside = sorted({1, 2, 3} - set(inside))
        env = Environment(fr, {"p": _random_ray(rng, fr)})
        one, rest = _first(len(inside)), _first(len(outside), len(inside))
        claim = _claim(
            f"testable(p) & localp{{{one}}}(a) & localp{{{one}}}(b)"
            f" & eqf(dom(a), dom(b))"
            f" & eqi{{{one}}}(img(a, p), img(a, p))"
            f" & eqi{{{one}}}(img(b, p), img(b, p))"
            f" -> eqi{{{rest}}}(img(a, p), img(b, p))",
            inside + outside, a=a, b=b)
        out.append(_valid(env, claim, f"agreement #{t + 1} I={{{_listed(inside)}}}"))
    return out


def _lemma_dual_entanglement(rng) -> list:
    """T(q_j) -> q_j?(pi_ij) =_i adj(pi_ij)(q_j)."""
    env = Environment(Frame(3))
    out = []
    for t in range(8):
        i, j = rng.sample([1, 2, 3], 2)
        pi = _random_word(rng)
        q = (_local_ray_formula(rng, j, real_only=True)
             if t % 2 else ast.VecC((j,), rng.choice("01+-")))
        claim = _claim("testable(q) -> eqi{1}(img(q?, ent[1,2](pi)),"
                       " img(adj(mov[1,2](pi)), q))", (i, j), pi=pi, q=q)
        out.append(_valid(env, claim, f"dual entanglement #{t + 1} i={i},j={j}"))
    return out


def _lemma_preparation(rng) -> list:
    """pi_ij(p_i) perp q_j -> ent state perp (p_i & q_j)."""
    env = Environment(Frame(3))
    fr = env.frame
    out = []
    for t in range(10):
        i, j = rng.sample([1, 2, 3], 2)
        pi = _random_word(rng)
        p = _local_ray_formula(rng, i, real_only=True)
        image = (None if t % 2
                 else eval_symbolic(env, ast.Img(ast.Mov(i, j, pi), p)))
        if image is None or image.is_empty():
            q = _local_ray_formula(rng, j, real_only=True)
        else:
            # engineer q orthogonal to the image's j-component, making
            # the antecedent hold
            part = fr.product_form(image.closure().any_ray(), (j,))[0]
            comp = part.basis.entries[0]
            q = ast.RayF((j,), (comp[1].conj(), -comp[0].conj()))
        claim = _claim("perpf(img(mov[1,2](pi), p), q) ->"
                       " perpf(ent[1,2](pi), p & q)", (i, j), pi=pi, p=p, q=q)
        out.append(_valid(env, claim,
                          f"entanglement preparation #{t + 1} i={i},j={j}"))
    return out


def lemma_suite(seed: int = DEFAULT_SEED) -> Report:
    """The lemma library: map-state measurement and composition laws,
    commutation of disjoint-qubit programs, and agreement of same-domain
    local maps."""
    start = time.perf_counter()
    rng = random.Random(seed)
    instances = []
    instances += _lemma_teleportation_property(rng)
    instances += _lemma_corollary6(rng)
    instances += _lemma_bell_measurement(rng)
    instances += _lemma_bell_preparation(rng)
    instances += _lemma_composition(rng)
    instances += _lemma_compatibility(rng)
    instances += _lemma_agreement(rng)
    instances += _lemma_dual_entanglement(rng)
    instances += _lemma_preparation(rng)
    return _report("lemmas", instances, seed, start)


# ----- axiom suite ----------------------------------------------------------------


def _ax_dynamic(rng, count: int) -> list:
    """Modal axioms over arbitrary properties and programs at n=2."""
    fr = Frame(2)
    schemas = [
        ("kripke", "[w](p -> q) -> ([w]p -> [w]q)"),
        ("testability-axiom", "box p -> [q?]p"),
        ("partial-functionality", "!([p?]q) -> [p?](!q)"),
        ("adequacy", "p & q -> <p?>q"),
        ("proper-superpositions-41", "<w>(box box p) -> [w2]p"),
    ]
    out = []
    for t in range(count):
        env = Environment(fr, {"p": _random_region(rng, fr),
                               "q": _random_region(rng, fr)})
        w = _random_program(rng, 2, deterministic=bool(t % 2))
        w2 = _random_program(rng, 2)
        name, text = schemas[t % len(schemas)]
        out.append(_valid(env, _claim(text, w=w, w2=w2),
                          f"{name} #{t // len(schemas) + 1}"))
    return out


def _ax_unitary(rng, count: int) -> list:
    """Unitary functionality, bijectivity and the adjointness axiom."""
    fr = Frame(2)
    schemas = [
        ("unitary-functionality",
         "(!([u]q) -> [u](!q)) & ([u](!q) -> !([u]q))"),
        ("unitary-bijectivity-1", "(p -> [u ; adj(u)]p) & ([u ; adj(u)]p -> p)"),
        ("unitary-bijectivity-2", "(p -> [adj(u) ; u]p) & ([adj(u) ; u]p -> p)"),
        ("adjointness-axiom", "p -> [w](box <adj(w)> dia p)"),
    ]
    out = []
    for t in range(count):
        env = Environment(fr, {"p": _random_region(rng, fr),
                               "q": _random_region(rng, fr)})
        u = _random_program(rng, 2, tests=False)
        w = _random_program(rng, 2)
        name, text = schemas[t % len(schemas)]
        out.append(_valid(env, _claim(text, u=u, w=w),
                          f"{name} #{t // len(schemas) + 1}"))
    return out


def _ax_testable(rng, count: int) -> list:
    """Repeatability, testability closure, quantum modus ponens and weak
    modularity, over testable (subspace) valuations."""
    fr = Frame(2)
    schemas = [
        ("repeatability", "testable(p) -> [p?]p"),
        ("testability-closure",
         "testable(p & q) & testable([w]p) & testable(box p)"
         " & testable(~p) & testable(post(w, p))"),
        ("quantum-modus-ponens", "leq(p & [p?]q, q)"),
        ("weak-modularity", "leq(p & sqcup(~p, p & q), q)"),
    ]
    out = []
    for t in range(count):
        env = Environment(fr, {"p": _random_subspace(rng, fr),
                               "q": _random_subspace(rng, fr)})
        w = _random_program(rng, 2)
        name, text = schemas[t % len(schemas)]
        out.append(_valid(env, _claim(text, w=w),
                          f"{name} #{t // len(schemas) + 1}"))
    return out


def _ax_adjunction(rng, count: int) -> list:
    """Two paired-validity laws: the strongest-postcondition adjunction
    and the adjointness theorem, each over random deterministic maps."""
    fr = Frame(2)
    out = []
    for t in range(count):
        w = _random_program(rng, 2)
        if t % 2 == 0:
            env = Environment(fr, {"p": _random_region(rng, fr),
                                   "q": _random_subspace(rng, fr)})
            a = check_valid(env, _claim("leq(post(w, p), q)", w=w))
            b = check_valid(env, _claim("leq(p, [w]q)", w=w))
            name = "post-adjunction"
        else:
            env = Environment(fr, {"p": _random_subspace(rng, fr),
                                   "q": _random_subspace(rng, fr)})
            a = check_valid(env, _claim("perpf(p, post(w, q))", w=w))
            b = check_valid(env, _claim("perpf(post(adj(w), p), q)", w=w))
            name = "adjointness-theorem"
        agree = (a is None) == (b is None)
        out.append(InstanceResult(f"{name} #{t // 2 + 1}", agree,
                                  None if agree else a or b))
    return out


def _product_state(fr: Frame, qubits, part: tuple, rest: list) -> Subspace:
    """The product state of the amplitudes ``part`` on the listed qubits
    and, on the others in ascending order, the Kronecker product of the
    part-states ``rest``: one placed tensor."""
    def kron(x: Matrix, y: Matrix) -> Matrix:
        return x.tensor(y, [range(j * y.cols, (j + 1) * y.cols) for j in range(x.cols)])
    other = reduce(kron, [Matrix([amps]) for amps in rest], Matrix.identity(1))
    return Subspace(Matrix([part]).tensor(other, fr.layout(sorted(qubits))), fr.dim)


def _product_ray(rng, fr: Frame, cut=None) -> Subspace:
    """A product state across the given bipartition (default: fully
    product, one factor per qubit)."""
    if cut is None:
        factors = [random_part_state(rng, 1) for _ in range(fr.n)]
        return _product_state(fr, [1], factors[0], factors[1:])
    part = random_part_state(rng, len(cut))
    return _product_state(fr, cut, part, [random_part_state(rng, fr.n - len(cut))])


def _ax_separation(rng, count: int) -> list:
    """Every state is N-separated; I- and J-separation combine."""
    fr = Frame(3)
    env = Environment(fr)
    every = list(range(1, 4))
    out = []
    for t in range(count):
        size_i = rng.randint(1, 2)
        size_j = rng.randint(1, 2)
        I = frozenset(rng.sample(every, size_i))
        J = frozenset(rng.sample(every, size_j))
        rest = frozenset(every) - I
        formula = ast.Implies(
            ast.And(ast.Top(tuple(sorted(I))), ast.Top(tuple(sorted(J)))),
            ast.And(ast.Top(tuple(sorted(rest))),
                    ast.And(ast.Top(tuple(sorted(I | J))),
                            ast.Top(tuple(sorted(I & J))))))
        states = [_product_ray(rng, fr)]
        states.append(_product_ray(rng, fr, cut=I))
        states.append(_product_ray(rng, fr, cut=J))
        states.append(_random_ray(rng, fr))
        good = all(check_state(env, s, formula) for s in states)
        good = good and all(check_state(env, s, ast.Top((1, 2, 3)))
                            for s in states)
        out.append(InstanceResult(
            f"separation #{t + 1} I={sorted(I)},J={sorted(J)}", good, None))
    return out


def _ax_trivial_local(rng, count: int) -> list:
    """T{I} is an I-local program and the weakest one."""
    fr = Frame(3)
    out = []
    for t in range(count):
        qubits = sorted(rng.sample([1, 2, 3], rng.randint(1, 2)))
        one = _first(len(qubits))
        env = Environment(fr, {"p": _random_region(rng, fr)})
        ok = check_valid(env, _claim(f"localp{{{one}}}(T{{{one}}})", qubits)) is None
        weaker = _claim(f"<w>p -> <T{{{one}}}>p", qubits,
                        w=_random_program(rng, 3, qubits))
        states = [_random_ray(rng, fr) for _ in range(6)]
        states += [_product_ray(rng, fr, cut=frozenset(qubits))
                   for _ in range(2)]
        ok = ok and all(check_state(env, s, weaker) for s in states)
        out.append(InstanceResult(f"trivial-local #{t + 1} I={qubits}",
                                  ok, None))
    return out


# Testable local properties at I != N are atoms: any consistent I-local
# property below one equals it.
LOCAL_STATES_AXIOM = ("testable(p) & local{I}(p) & local{I}(q) & !eqf(q, false)"
                      " & leq(q, p) -> eqf(q, p)")


def _ax_local_states(rng, count: int) -> list:
    """Instances of LOCAL_STATES_AXIOM on three qubits, p the lift of a
    random part-state."""
    fr = Frame(3)
    out = []
    for t in range(count):
        qubits = sorted(rng.sample([1, 2, 3], rng.randint(1, 2)))
        p = fr.state_lift(random_part_state(rng, len(qubits)), qubits)
        roll = t % 4
        if roll == 0:
            q = p
        elif roll == 1:
            q = fr.state_lift(random_part_state(rng, len(qubits)), qubits)
        elif roll == 2:
            q = _random_subspace(rng, fr)
        else:
            q = Subspace.zero(fr.dim)
        env = Environment(fr, {"p": p, "q": q})
        at = "{" + _first(len(qubits)) + "}"
        claim = _claim(LOCAL_STATES_AXIOM.replace("{I}", at), qubits)
        out.append(_valid(env, claim, f"local-states #{t + 1} I={qubits}"))
    return out


def _ax_basic_testability(rng, count: int) -> list:
    """Basis constants and map-states are testable and local."""
    env = Environment(Frame(3))
    out = []
    for t in range(count):
        c = rng.choice("01+-")
        i, j = rng.sample([1, 2, 3], 2)
        qubits = sorted(rng.sample([1, 2, 3], rng.randint(1, 2)))
        chars = "".join(rng.choice("01+-") for _ in qubits)
        # numbered i, j, then the third qubit, which v may also name
        order = [i, j, 6 - i - j]
        v_at = _listed(sorted(order.index(q) + 1 for q in qubits))
        claim = _claim(f"testable(c) & local{{{v_at}}}(v) & testable(ent[1,2](w))"
                       " & local{1,2}(ent[1,2](w))", order,
                       c=ast.Const(c, i), v=ast.VecC(tuple(qubits), chars),
                       w=_random_word(rng))
        out.append(_valid(env, claim,
                          f"basic-testability #{t + 1} c={c},i={i},j={j}"))
    return out


def _ax_superpositions() -> list:
    """+ and - are proper superpositions of 0 and 1."""
    out = []
    for n in (2, 3):
        env = Environment(Frame(n))
        for i in range(1, n + 1):
            for c in "+-":
                out.append(_valid(
                    env, _claim(f"{c}_1 -> dia 0_1 & dia 1_1", (i,)),
                    f"proper-superpositions n={n} {c}_{i}"))
    return out


def _ax_determinacy(rng, count: int) -> list:
    """Deterministic maps agreeing on all {0,1,+} product states agree
    everywhere."""
    fr = Frame(2)
    vecs = [f"vec{{1,2}}({a},{b})" for a in "01+" for b in "01+"]
    texts = [" & ".join(f"eqf(img(w1, {v}), img({w2}, {v}))" for v in vecs)
             + f" -> eqf(img(w1, p), img({w2}, p))"
             for w2 in ("w1 ; X_1 ; X_1", "Z_2 ; Z_2 ; w1", "w2")]
    out = []
    for t in range(count):
        words = {"w1": _random_program(rng, 2)}
        if t % 3 == 2:
            words["w2"] = _random_program(rng, 2)
        env = Environment(fr, {"p": _random_union_region(rng, fr)})
        out.append(_valid(env, _claim(texts[t % 3], **words),
                          f"determinacy #{t + 1}"))
    return out


def _ax_entanglement(rng, words: int) -> list:
    """T(p_i) -> p_i?(ent state of w) =_j (w moved to i,j)(p_i),
    schematically over p with real random corroborations."""
    out = []
    for t in range(words):
        i, j = rng.sample([1, 2, 3], 2)
        template = _claim("testable(p) -> eqi{2}(img(p?, ent[1,2](w)),"
                          " img(mov[1,2](w), p))", (i, j), w=_random_word(rng))
        instances, corroborations = check_schematic(
            Environment(Frame(3)), template, "p", (i,), rng=rng, samples=2,
            real_only=True)
        for r in instances + corroborations:
            out.append(InstanceResult(
                f"entanglement-axiom word {t + 1} i={i},j={j}: {r.label}",
                r.valid, r.witness))
    return out


def _ax_gate_locality() -> list:
    """The gate constants affect only their target qubits."""
    out = []
    for n in (2, 3):
        env = Environment(Frame(n))
        for i in range(1, n + 1):
            for g in "XZH":
                out.append(_valid(env, _claim(f"localp{{1}}({g}_1)", (i,)),
                                  f"gate-locality n={n} {g}_{i}"))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    out.append(_valid(
                        env, _claim("localp{1,2}(CNOT_1_2)", (i, j)),
                        f"gate-locality n={n} CNOT_{i}_{j}"))
    return out


def _ax_characteristic_single() -> list:
    """The nine defining transitions of X, Z and H."""
    rows = [("X", "0", "1"), ("X", "1", "0"), ("X", "+", "+"),
            ("Z", "0", "0"), ("Z", "1", "1"), ("Z", "+", "-"),
            ("H", "0", "+"), ("H", "1", "-"), ("H", "+", "0")]
    out = []
    for n in (2, 3):
        env = Environment(Frame(n))
        for i in range(1, n + 1):
            for g, pre, post in rows:
                out.append(_valid(
                    env, _claim(f"{pre}_1 -> [{g}_1]{post}_1", (i,)),
                    f"characteristic n={n} {pre}_{i}->[{g}_{i}]{post}_{i}"))
    return out


def _cnot_rows(i: int, j: int) -> list:
    """The rows (pre, post) of the CNOT transition table at control i and
    target j."""
    rows = [(f"0_{i} & {c}_{j}", f"{c}_{j}") for c in "01+-"]
    rows += [(f"1_{i} & 0_{j}", f"1_{j}"),
             (f"1_{i} & 1_{j}", f"0_{j}"),
             (f"1_{i} & +_{j}", f"+_{j}"),
             (f"+_{i} & 0_{j}", f"bell[0,0,{i},{j}]"),
             (f"+_{i} & 1_{j}", f"bell[0,1,{i},{j}]"),
             (f"+_{i} & +_{j}", f"gamma[{i},{j}]")]
    return rows


def _ax_characteristic_cnot() -> list:
    """The CNOT transition table, including the entangling rows."""
    claims = [f"{pre} -> [CNOT_1_2]{post}" for pre, post in _cnot_rows(1, 2)]
    out = []
    for n in (2, 3):
        env = Environment(Frame(n))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                for claim, (pre, post) in zip(claims, _cnot_rows(i, j)):
                    out.append(_valid(env, _claim(claim, (i, j)),
                                      f"cnot n={n} {pre} -> {post}"))
    return out


def _bell_characteristic(x: int, y: int, i: int, j: int) -> str:
    yt = 1 - y
    s = "+" if x == 0 else "-"
    return (f"<0_{i}?>{y}_{j} & <1_{i}?>{yt}_{j} & <+_{i}?>{s}_{j}")


def _ax_characterizations() -> list:
    """Bell, GHZ and gamma states match their test-based descriptions,
    and the four Bell rays satisfy exactly their own formulas."""
    out = []
    for n, (i, j) in ((2, (1, 2)), (3, (2, 3))):
        env = Environment(Frame(n))
        for x in (0, 1):
            for y in (0, 1):
                out.append(_valid(
                    env,
                    _claim(f"eqf(bell[{x},{y},1,2],"
                           f" {_bell_characteristic(x, y, 1, 2)})", (i, j)),
                    f"bell characterization n={n} x={x},y={y}"))
    env2 = Environment(Frame(2))
    out.append(_valid(env2, _claim("eqf(vec{1,2}(0,0), <0_1?>0_2 & [1_1?]false)"),
                      "basis-state characterization |00>"))
    # the test-based description of gamma is strictly weaker than the ray
    # (any product psi x + with nonzero basis projections satisfies it),
    # so only the forward direction and the axiom row hold
    out.append(_valid(env2,
                      _claim("leq(gamma[1,2], <0_1?>+_2 & <1_1?>+_2 & <+_1?>+_2)"),
                      "gamma description"))
    out.append(_valid(
        env2,
        _claim("+_1 & +_2 -> [CNOT_1_2](<0_1?>+_2 & <1_1?>+_2 & <+_1?>+_2)"),
        "gamma axiom row"))
    env3 = Environment(Frame(3))
    out.append(_valid(
        env3,
        _claim("eqf(ghz[1,2,3],"
               " <0_1?>(0_2 & 0_3) & <1_1?>(1_2 & 1_3) & <+_1?>bell[0,0,2,3])"),
        "ghz characterization"))
    fr = Frame(2)
    bells = {(0, 0): [1, 0, 0, 1], (0, 1): [0, 1, 1, 0],
             (1, 0): [1, 0, 0, -1], (1, 1): [0, 1, -1, 0]}
    for (sx, sy), amps in bells.items():
        ray = fr.ray(amps)
        for (fx, fy) in bells:
            holds = check_state(env2, ray, ast.Bell(fx, fy, 1, 2))
            expected = (sx, sy) == (fx, fy)
            out.append(InstanceResult(
                f"bell table state {sx}{sy} vs formula {fx}{fy}",
                holds == expected, None))
    return out


def _ax_derived(rng, count: int) -> list:
    """Derived propositions: the orthocomplement of T{I} is empty,
    locality is preserved by the stated connectives and program forms,
    local programs act locally, systems with identical parts are
    identical, and orthogonality to a separated state only sees the
    component."""
    out = []
    for n in (2, 3):
        env = Environment(Frame(n))
        for size in range(1, n + 1):
            for I in combinations(range(1, n + 1), size):
                out.append(_valid(env, _claim(f"eqf(~T{{{_first(size)}}}, false)", I),
                                  f"ortho-trivial n={n} I={list(I)}"))
    fr = Frame(3)
    for t in range(count):
        qubits = sorted(rng.sample([1, 2, 3], rng.randint(1, 2)))
        one = _first(len(qubits))
        other = sorted(set([1, 2, 3]) - set(qubits))
        p = fr.state_lift(random_part_state(rng, len(qubits)), qubits)
        q = fr.state_lift(random_part_state(rng, len(qubits)), qubits)
        r = fr.state_lift(random_part_state(rng, len(other)), other)
        w = _random_program(rng, 3, qubits)
        env = Environment(fr, {"p": p, "q": q, "r": r})
        claim = _claim(f"local{{{one}}}(p | q) & local{{{one}}}(p & !q)"
                       f" & local{{{one}}}(p & [w]q) & local{{1,2,3}}(p & r)"
                       f" & localp{{{one}}}(w + w) & localp{{{one}}}(p?)"
                       f" & localp{{{one}}}(T{{{one}}})", qubits + other, w=w)
        out.append(_valid(env, claim, f"locality-closure #{t + 1} I={qubits}"))
    for t in range(count):
        i = rng.choice([1, 2, 3])
        rest = sorted({1, 2, 3} - {i})
        shared = random_part_state(rng, 1)
        factors = [(random_part_state(rng, 1), random_part_state(rng, 1))
                   for _ in rest]
        pv = _product_state(fr, (i,), shared, [x for x, _ in factors])
        qv = _product_state(fr, (i,), shared, [y for _, y in factors])
        w = _random_program(rng, 3, [i])
        env = Environment(fr, {"p": pv, "q": qv})
        # a test inside w can annihilate p, emptying the image; the law
        # presupposes the program applies, so guard on nonemptiness
        claim = _claim("localp{1}(w) & eqi{1}(p, q)"
                       " & !eqf(img(w, p), false) & !eqf(img(w, q), false) ->"
                       " eqi{2,3}(p, img(w, p))"
                       " & eqi{1}(img(w, p), img(w, q))", [i] + rest, w=w)
        out.append(_valid(env, claim, f"act-locally #{t + 1} i={i}"))
        out.append(_valid(
            env,
            _claim("eqi{1}(p, q) & eqi{2,3}(p, q) -> eqi{1,2,3}(p, q)", [i] + rest),
            f"identical-parts #{t + 1} i={i}"))
    for t in range(count):
        i = rng.choice([1, 2, 3])
        rest = sorted({1, 2, 3} - {i})
        comp = random_part_state(rng, 1, real_only=True)
        qv = _product_state(fr, (i,), comp,
                            [random_part_state(rng, 1) for _ in rest])
        env = Environment(fr, {"q": qv})
        both = _claim("(perpf(p, q) -> perpf(p, c)) & (perpf(p, c) -> perpf(p, q))",
                      p=_local_ray_formula(rng, i, real_only=True),
                      c=ast.RayF((i,), comp))
        out.append(_valid(env, both, f"perp-component #{t + 1} i={i}"))
    return out


def axiom_suite(seed: int = DEFAULT_SEED) -> Report:
    """Soundness of the axiom schemas: random instances of each, with
    exhaustive tables where the schema has finitely many instances."""
    start = time.perf_counter()
    rng = random.Random(seed)
    instances = []
    instances += _ax_dynamic(rng, 50)
    instances += _ax_unitary(rng, 52)
    instances += _ax_testable(rng, 52)
    instances += _ax_adjunction(rng, 50)
    instances += _ax_separation(rng, 50)
    instances += _ax_trivial_local(rng, 50)
    instances += _ax_local_states(rng, 52)
    instances += _ax_basic_testability(rng, 50)
    instances += _ax_superpositions()
    instances += _ax_determinacy(rng, 51)
    instances += _ax_entanglement(rng, 17)
    instances += _ax_gate_locality()
    instances += _ax_characteristic_single()
    instances += _ax_characteristic_cnot()
    instances += _ax_characterizations()
    instances += _ax_derived(rng, 50)
    return _report("axioms", instances, seed, start)


# ----- target registry ------------------------------------------------------------


TARGETS: dict = {
    "teleportation": teleportation,
    "qss": quantum_secret_sharing,
    "lemmas": lemma_suite,
    "axioms": axiom_suite,
}


def run_target(name: str, seed: int = DEFAULT_SEED) -> list:
    """Reports for one named target, or all of them."""
    if name == "all":
        return [fn(seed=seed) for fn in TARGETS.values()]
    if name not in TARGETS:
        raise KeyError(name)
    return [TARGETS[name](seed=seed)]
