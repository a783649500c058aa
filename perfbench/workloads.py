"""Seeded inputs for the three benchmark workloads.

Every input is plain data (formula text, qubit lists, integer or
"p/q" rational entries), generated from ``random.Random`` seeded with a
string, so the same (workload, seed, block) gives the same inputs in any
process.  A block has the same shape for every seed: the same families,
sizes and qubit counts in the same order; only the random content
differs.  That keeps block times comparable across seeds.

``worker.prepare`` turns a claim into objects of the checker through
public names only (``qpdl.__all__``); the protocol workload's items are
arguments for ``qpdl.cli.main`` and the public targets of
``qpdl.protocols``.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

WORKLOADS = ("axioms", "circuits", "protocols")


def block_rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{block}")


def generate(workload: str, seed: int, blocks: int) -> list:
    """The first ``blocks`` blocks of a workload, each a list of items."""
    make = {"axioms": axioms_block, "circuits": circuits_block,
            "protocols": protocols_block}[workload]
    return [make(block_rng(workload, seed, b), seed, b) for b in range(blocks)]


def fingerprint(blocks: list) -> str:
    """Hash of the generated inputs, to compare commits on equal inputs."""
    text = json.dumps(blocks, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----- random material ----------------------------------------------------------


def _rational(rng) -> str:
    return str(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))


def _part_state(rng, nqubits: int, real_only: bool = False) -> list:
    """[re, im] rational strings per basis index, never all zero."""
    while True:
        amps = [[_rational(rng), "0" if real_only else _rational(rng)]
                for _ in range(2 ** nqubits)]
        if any(a != ["0", "0"] for a in amps):
            return amps


def _subspace(rng, n: int, dim: int) -> list:
    """Spec of a random subspace spanned by ``dim`` Gaussian-integer rows."""
    while True:
        rows = [[[rng.randint(-4, 4), rng.randint(-4, 4)] for _ in range(2 ** n)]
                for _ in range(dim)]
        if any(x != [0, 0] for row in rows for x in row):
            return ["sub", rows]


def _off_plane(rng, n: int) -> list:
    """The rays outside a random plane: a region with a cut."""
    return ["region", _subspace(rng, n, 2), [["complement"]]]


def _regions(rng, n: int) -> dict:
    """p: the rays outside a plane; q: a union of two lines."""
    return {"p": _off_plane(rng, n),
            "q": ["region", _subspace(rng, n, 1), [["union", _subspace(rng, n, 1)]]]}


def _union_region(rng, n: int) -> list:
    return ["union", [_subspace(rng, n, 2), _subspace(rng, n, 2)]]


def _lift(rng, n: int, qubits, real_only: bool = False) -> list:
    return ["lift", _part_state(rng, len(qubits), real_only), sorted(qubits)]


def _word(rng, qubits, length: int = 3, tests: bool = True) -> str:
    """A gate word over the given qubits, drawn like the axiom suite's but
    of a fixed length, so that its cost varies less with the seed."""
    qs = sorted(qubits)
    parts = []
    for _ in range(length):
        roll = rng.random()
        if tests and roll < 0.15:
            parts.append(f"{rng.choice('01+-')}_{rng.choice(qs)}?")
        elif roll < 0.35 and len(qs) >= 2:
            a, b = rng.sample(qs, 2)
            parts.append(f"CNOT_{a}_{b}")
        else:
            parts.append(f"{rng.choice('XZH')}_{rng.choice(qs)}")
    return " ; ".join(parts)


def _item(family: str, n: int, formula: str, expect: str, vals=None) -> dict:
    return {"family": family, "n": n, "formula": formula, "expect": expect,
            "vals": vals or {}}


# ----- axioms: the paper's axiom schemas, all sound, so always VALID ------------


def axioms_block(rng, seed: int, block: int) -> list:
    """One instance of each schema the axiom suite draws from the
    dynamic, unitary, testable, adjunction, local-states, determinacy and
    derived families, at n=2 and n=3."""
    items = []
    two = [1, 2]
    w, w2 = _word(rng, two), _word(rng, two)
    wn = f"({_word(rng, two, 2)}) + ({_word(rng, two, 2)})"
    for family, text in [
            ("kripke", f"[{wn}](p -> q) -> ([{wn}]p -> [{wn}]q)"),
            ("testability-axiom", "box p -> [q?]p"),
            ("partial-functionality", "!([p?]q) -> [p?](!q)"),
            ("adequacy", "p & q -> <p?>q"),
            ("proper-superpositions", f"<{w}>(box box p) -> [{w2}]p")]:
        items.append(_item(family, 2, text, "VALID", _regions(rng, 2)))

    u, w = _word(rng, two, tests=False), _word(rng, two)
    for family, text in [
            ("unitary-functionality",
             f"(!([{u}]q) -> [{u}](!q)) & ([{u}](!q) -> !([{u}]q))"),
            ("unitary-bijectivity-1",
             f"(p -> [{u} ; adj({u})]p) & ([{u} ; adj({u})]p -> p)"),
            ("unitary-bijectivity-2",
             f"(p -> [adj({u}) ; {u}]p) & ([adj({u}) ; {u}]p -> p)"),
            ("adjointness-axiom", f"p -> [{w}](box <adj({w})> dia p)")]:
        items.append(_item(family, 2, text, "VALID", _regions(rng, 2)))

    w = _word(rng, two)
    for family, text in [
            ("repeatability", "testable(p) -> [p?]p"),
            ("testability-closure",
             f"testable(p & q) & testable([{w}]p) & testable(box p)"
             f" & testable(~p) & testable(post({w}, p))"),
            ("quantum-modus-ponens", "leq(p & [p?]q, q)"),
            ("weak-modularity", "leq(p & sqcup(~p, p & q), q)")]:
        items.append(_item(family, 2, text, "VALID",
                           {"p": _subspace(rng, 2, 2), "q": _subspace(rng, 2, 2)}))

    # The adjunction laws pair two validity questions; their agreement is
    # one valid formula, since leq and perpf are global judgements.
    w = _word(rng, two)
    a, b = f"leq(post({w}, p), q)", f"leq(p, [{w}]q)"
    items.append(_item("post-adjunction", 2, f"({a} -> {b}) & ({b} -> {a})",
                       "VALID", {"p": _off_plane(rng, 2), "q": _subspace(rng, 2, 2)}))
    w = _word(rng, two)
    a, b = f"perpf(p, post({w}, q))", f"perpf(post(adj({w}), p), q)"
    items.append(_item("adjointness-theorem", 2,
                       f"({a} -> {b}) & ({b} -> {a})", "VALID",
                       {"p": _subspace(rng, 2, 2), "q": _subspace(rng, 2, 2)}))

    three = [1, 2, 3]
    for roll in range(4):
        qubits = sorted(rng.sample(three, rng.randint(1, 2)))
        txt = ",".join(str(q) for q in qubits)
        p = _lift(rng, 3, qubits)
        if roll == 0:
            q = p
        elif roll == 1:
            q = _lift(rng, 3, qubits)
        else:
            q = _subspace(rng, 3, 4) if roll == 2 else ["zero"]
        items.append(_item(
            "local-states", 3,
            f"testable(p) & local{{{txt}}}(p) & local{{{txt}}}(q)"
            f" & !eqf(q, false) & leq(q, p) -> eqf(q, p)",
            "VALID", {"p": p, "q": q}))

    vecs = [f"vec{{1,2}}({x},{y})" for x in "01+" for y in "01+"]
    for roll in range(3):
        w1 = _word(rng, two)
        if roll == 0:
            w2 = f"{w1} ; X_1 ; X_1"
        else:
            w2 = f"Z_2 ; Z_2 ; {w1}" if roll == 1 else _word(rng, two)
        ante = " & ".join(f"eqf(img({w1}, {v}), img({w2}, {v}))" for v in vecs)
        items.append(_item("determinacy", 2,
                           f"{ante} -> eqf(img({w1}, p), img({w2}, p))",
                           "VALID", {"p": _union_region(rng, 2)}))

    items.extend(_derived(rng))
    return items


def _derived(rng) -> list:
    three = [1, 2, 3]
    items = []
    qs = ",".join(str(q) for q in sorted(rng.sample(three, rng.randint(1, 3))))
    items.append(_item("ortho-trivial", 3, f"eqf(~T{{{qs}}}, false)", "VALID"))

    qubits = sorted(rng.sample(three, rng.randint(1, 2)))
    other = sorted(set(three) - set(qubits))
    txt = ",".join(str(q) for q in qubits)
    w = _word(rng, qubits)
    items.append(_item(
        "locality-closure", 3,
        f"local{{{txt}}}(p | q) & local{{{txt}}}(p & !q)"
        f" & local{{{txt}}}(p & [{w}]q) & local{{1,2,3}}(p & r)"
        f" & localp{{{txt}}}(({w}) + ({w})) & localp{{{txt}}}(p?)"
        f" & localp{{{txt}}}(T{{{txt}}})",
        "VALID", {"p": _lift(rng, 3, qubits), "q": _lift(rng, 3, qubits),
                  "r": _lift(rng, 3, other)}))

    # p and q share their qubit-i component; the other qubits are random
    i = rng.choice(three)
    rest = sorted(set(three) - {i})
    rest_txt = ",".join(str(q) for q in rest)
    shared = _part_state(rng, 1)
    p = ["meet", [["lift", shared, [i]]] + [_lift(rng, 3, [q]) for q in rest]]
    q = ["meet", [["lift", shared, [i]]] + [_lift(rng, 3, [q]) for q in rest]]
    w = _word(rng, [i])
    # a test inside w can annihilate p; the law presupposes the program
    # applies, so it is guarded on nonempty images
    items.append(_item(
        "act-locally", 3,
        f"localp{{{i}}}({w}) & eqi{{{i}}}(p, q)"
        f" & !eqf(img({w}, p), false) & !eqf(img({w}, q), false) ->"
        f" eqi{{{rest_txt}}}(p, img({w}, p))"
        f" & eqi{{{i}}}(img({w}, p), img({w}, q))",
        "VALID", {"p": p, "q": q}))
    items.append(_item(
        "identical-parts", 3,
        f"eqi{{{i}}}(p, q) & eqi{{{rest_txt}}}(p, q) -> eqi{{1,2,3}}(p, q)",
        "VALID", {"p": p, "q": q}))

    i = rng.choice(three)
    rest = sorted(set(three) - {i})
    comp = _part_state(rng, 1, real_only=True)
    q = ["meet", [["lift", comp, [i]]] + [_lift(rng, 3, [k]) for k in rest]]
    items.append(_item(
        "perp-component", 3,
        "(perpf(r, q) -> perpf(r, c)) & (perpf(r, c) -> perpf(r, q))",
        "VALID", {"q": q, "c": ["lift", comp, [i]],
                  "r": _lift(rng, 3, [i], real_only=True)}))
    return items


# ----- circuits: gate-circuit claims at n = 4..6, true or false by construction --


def _unitary_word(rng, qubits, length: int, hadamards: int) -> str:
    """A gate word with a fixed count of H gates on distinct qubits, so its
    dense fill-in does not vary with the seed; the rest is X, Z and CNOT."""
    qs = sorted(qubits)
    gates = [f"H_{q}" for q in rng.sample(qs, min(hadamards, len(qs)))]
    while len(gates) < length:
        if len(qs) >= 2 and rng.random() < 0.4:
            a, b = rng.sample(qs, 2)
            gates.append(f"CNOT_{a}_{b}")
        else:
            gates.append(f"{rng.choice('XZ')}_{rng.choice(qs)}")
    rng.shuffle(gates)
    return " ; ".join(gates)


def _constants(rng, qubits) -> str:
    return " & ".join(f"{rng.choice('01+-')}_{q}" for q in qubits)


def _circuit(rng, family: str, n: int) -> dict:
    every = list(range(1, n + 1))
    if family == "roundtrip":
        # w ; adj(w) is the identity, so p -> [w ; adj(w)]p holds
        w = _unitary_word(rng, every, 4, 2)
        p = _constants(rng, rng.sample(every, 2))
        return _item(family, n, f"{p} -> [{w} ; adj({w})]({p})", "VALID")
    if family == "ghz":
        # after H_a and a CNOT chain from a, qubit a is in superposition,
        # so 0_a never holds afterwards
        chain = rng.sample(every, 3)
        steps = [f"H_{chain[0]}"] + [f"CNOT_{x}_{y}"
                                     for x, y in zip(chain, chain[1:])]
        k = rng.choice(chain[1:])
        return _item(family, n, f"0_{chain[0]} -> [{' ; '.join(steps)}]"
                                f"!(0_{chain[0]} & 1_{k})", "VALID")
    if family == "nowhere":
        # a unitary is defined everywhere, so [w]false fails at every state
        w = _unitary_word(rng, every, 4, 2)
        return _item(family, n, f"[{w}]false", "REFUTED")
    if family == "flip":
        # w leaves qubit i alone and the last gate flips its basis state
        i = rng.choice(every)
        c = rng.choice("01+-")
        flip = "X" if c in "01" else "Z"
        rest = [q for q in every if q != i]
        w = _unitary_word(rng, rest, 3, 1)
        j = rng.choice(rest)
        return _item(family, n,
                     f"{c}_{i} & {rng.choice('01+-')}_{j} -> [{w} ; {flip}_{i}]"
                     f"{c}_{i}", "REFUTED")
    raise ValueError(family)


CIRCUIT_SHAPE = (
    [(4, f) for f in ("roundtrip", "ghz", "nowhere", "flip")]
    + [(5, f) for f in ("roundtrip", "ghz", "nowhere", "flip")]
    + [(6, "nowhere")])


def circuits_block(rng, seed: int, block: int) -> list:
    """Four claims at n=4, four at n=5 and one refuted claim at n=6.

    One n=6 claim per block keeps a block near 7 s, so a run holds
    several blocks; ``nowhere`` is the cheapest n=6 family that still
    composes and eliminates 64-wide maps.  No claim is at n=7: one would
    take longer than the rest of a block."""
    return [_circuit(rng, family, n) for n, family in CIRCUIT_SHAPE]


# ----- protocols: the user-facing verify path -----------------------------------


def protocols_block(rng, seed: int, block: int) -> list:
    """``qpdl verify`` on three targets, plus two teleportation mutants.

    Block 0 runs at the benchmark seed itself; later blocks at seeds
    drawn from it."""
    s = seed if block == 0 else rng.randrange(1, 10 ** 6)

    def verify(target):
        return {"family": target, "call": "cli", "expect": "PASS",
                "args": ["verify", target, "--seed", str(s)]}

    def mutant(switch):
        return {"family": switch, "call": "teleportation", "expect": "FAIL",
                "kwargs": {"seed": s, switch: True}}

    return [verify("teleportation"), mutant("drop_x"), mutant("drop_z"),
            verify("qss"), verify("lemmas")]
