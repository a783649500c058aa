"""The two evaluators and the schematic claims decided through them.

Symbolic: formula -> Region, for everything whose meaning is a finite
boolean combination of subspaces.  Pointwise: formula at one concrete
state, a one-dimensional subspace, which additionally covers the
separation constructs.  A schematic claim is a schema with one state
variable and an optional program variable ``w``: it is decided by
filling the state variable with {0,1,+} per qubit and ``w`` with each
branch in turn, and corroborated on random rational states.

A program denotes a nonempty tuple of partial maps, one per branch:
``;`` composes branch by branch and ``+`` concatenates.  T{I} stands for
every I-local map at once, which no tuple holds, so it is read only
alone under a box, by reachability, or in localp; anywhere else it is
UnsupportedShape.  An environment remembers each tuple it denotes,
keyed on meanings rather than syntax (see ``_denote``), so the branches
of a protocol are composed once however many claims and input states
use them.  The one-qubit program of ``ent[i,j]`` is denoted in a
one-qubit environment that lives with the caller's, and its 2x2 matrix
is read there.  [f?]false, which box, dia and dom(f?) desugar to, is
read as the kernel of the test, closure(f)^perp, without denoting it: a
test's projector is built only when the test is composed, imaged or
boxed over a body other than false, or judged by localp{I} where its
closure has no product form on I.  A test on ![g?]false is read one
step further: [(![g?]false)?]false, which is box box x with g = !x, is
every state when g is empty and none otherwise, with no closure, ortho
or complement.  Leq(a, b), which leq, eqf, perpf and testable desugar
to, is box box (a -> b) and is read the same way, as every state when
a & !b is empty and none otherwise; the pointwise side runs its
unfolding, built by ``desugar.unfold_leq``, state by state.

A counterexample found symbolically is re-checked pointwise before it
is reported; the two evaluators share no interpretation code for the
connectives, so agreement is meaningful.  Under a box the pointwise
side composes no map: it runs each branch on the state one action at a
time, a gate as the image of the state and a test on S as the Sasaki
projection (s v S^perp) ^ S, the test semantics of Baltag and Smets'
quantum actions, so a map composed wrongly shows as a disagreement.

Every ``check_valid`` call decides its formula in a session, a private
environment that lives for that one call and remembers the region of
each core formula and the maps of each core program by node identity,
so a node that the formula names more than once (a part of eqf or
testable, or a subterm that a parse shares) is evaluated once.  Its
counterexample is re-checked pointwise in the caller's environment,
which remembers no region.

``check_schematic`` decides all of its instances in one session.  It
fills the state first and the branch second, so a subtree without ``w``
is one object across branches, and it remembers by node identity: the
core tree of each filled node it desugars, charged to the budgets again
at each use, and the region of each core formula and the maps of each
core program, for the whole call.  An answer keyed on syntax holds only
while the valuation does, so the session takes a copy of the caller's
valuation, which nothing can change during the call; it shares the
caller's memo of denotations, which is keyed on meanings, so it stays
warm across calls.  A counterexample is re-checked pointwise in a second
session, which remembers only what the re-checks computed, so a region
that the deciding session remembers wrongly shows as a disagreement
rather than being confirmed; programs under a box still run one action
at a time.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import reduce

from . import ast
from .desugar import DesugarMemo, desugar_formula, desugar_program, unfold_leq
from .errors import (
    NonDeterministicProgram,
    SpatialAtomInSymbolicMode,
    UnboundVariable,
    UnsupportedNesting,
    UnsupportedShape,
)
from .frame import Frame, PartialMap, Subspace
from .linalg import GaussianRational, Matrix
from .regions import Region, make_term, wp


class Environment:
    """Evaluation context: a frame plus a valuation for variables.

    Valuation values may be given as Subspace or Region; they are held
    as Regions.  The environment also holds the memo of the programs it
    has denoted (see ``_denote``), and, once ``ent`` needs it, the
    one-qubit environment in which the programs of ``ent`` are denoted;
    both die with it.
    """

    __slots__ = ("frame", "valuation", "_denotations", "_one_qubit",
                 "__weakref__")

    def __init__(self, frame: Frame, valuation=None):
        self.frame = frame
        self._denotations = {}
        self._one_qubit = None
        self.valuation = {}
        for name, value in dict(valuation or {}).items():
            if isinstance(value, Subspace):
                value = Region.of_subspace(value)
            self.valuation[name] = value

    # a session's answers by node identity (see ``_Session``); none here
    _nodes = None

    def lookup(self, name: str) -> Region:
        try:
            return self.valuation[name]
        except KeyError:
            raise UnboundVariable(name) from None

    def one_qubit(self) -> "Environment":
        """The environment of one qubit, with no valuation, in which the
        one-qubit programs of ``ent`` are denoted; made on first use."""
        if self._one_qubit is None:
            self._one_qubit = Environment(Frame(1))
        return self._one_qubit


class _Session(Environment):
    """An environment in which ``check_valid`` decides its formula, or
    ``check_schematic`` decides or re-checks all of its instances: the
    caller's frame, a copy of its valuation, its memo of denotations,
    and ``_nodes``, answers keyed on node identity: the region of each
    core formula and the maps of each core program.  Each node is held
    beside its answer, so its id is not reused while the session lives.
    It denotes the programs of ``ent`` in its caller's one-qubit
    environment."""

    __slots__ = ("_nodes",)

    def __init__(self, env: Environment):
        super().__init__(env.frame, env.valuation)
        self._denotations = env._denotations
        self._one_qubit = env.one_qubit()
        self._nodes = {}


# ----- program denotation ----------------------------------------------------


def denote_program(env: Environment, prog: ast.Program) -> tuple:
    """The branches of a surface program: one partial map each, in order."""
    return _denote(env, desugar_program(prog, env.frame.n))


def _denote(env: Environment, prog: ast.Program) -> tuple:
    """The branch maps of a core program, remembered per environment.

    The memo is keyed on what each part means, never on its syntax: a
    gate on its (kind, targets), ``id`` on one constant, a test on the
    closure of its formula (an interned subspace, so one object per
    span; of a state atom, its subspace, with no region built), and
    ``;`` or ``+`` on its type and the ids of the remembered tuples of
    its two sides, which the memo keeps alive.  A key names
    the same maps under any valuation, so the memo never goes stale.

    A map takes the kernel that is known when it is built: 0 for a gate
    and ``id``, S^perp for a test on S, and through ``PartialMap.then``
    the first map's kernel for a composite ending in gates.  Gates and
    ``id`` are also marked unitary, and so is a word of them.  A
    composite forms its matrix only when it is read (see ``PartialMap``).
    A session also answers by node identity."""
    nodes = env._nodes
    if nodes is not None:
        known = nodes.get(id(prog))
        if known is not None:
            return known[1]
    if isinstance(prog, ast.GateP):
        key = (prog.kind, prog.targets)
    elif isinstance(prog, ast.Id):
        key = ast.Id
    elif isinstance(prog, ast.Test):
        test = prog.formula
        # an atom's subspace is its own closure, with no region to build
        key = (_atom_subspace(env, test)
               if isinstance(test, (ast.Const, ast.RayF, ast.Ent))
               else _eval(env, test).closure())
    elif isinstance(prog, (ast.SeqP, ast.UnionP)):
        left, right = _denote(env, prog.left), _denote(env, prog.right)
        key = (type(prog), id(left), id(right))
    elif isinstance(prog, ast.TopP):
        # every I-local map at once: no finite union of maps
        raise UnsupportedShape("T{I} may only stand alone under a box or in localp")
    else:
        raise TypeError(f"not a core program node: {prog!r}")
    maps = env._denotations.get(key)
    if maps is None:
        if isinstance(prog, ast.GateP):
            maps = (env.frame.gate(prog.kind, prog.targets),)
        elif isinstance(prog, ast.Id):
            maps = (PartialMap(Matrix.identity(env.frame.dim),
                               Subspace.zero(env.frame.dim), unitary=True),)
        elif isinstance(prog, ast.Test):
            # the projector onto S is undefined exactly on S^perp
            maps = (PartialMap(key.projector(), key.ortho()),)
        elif isinstance(prog, ast.SeqP):
            maps = tuple(f.then(g) for f in left for g in right)
        else:
            maps = left + right
        env._denotations[key] = maps
    if nodes is not None:
        nodes[id(prog)] = (prog, maps)
    return maps


def _atom_subspace(env: Environment, f: ast.Formula) -> Subspace:
    """The subspace named by one of the state atoms."""
    fr = env.frame
    if isinstance(f, ast.Const):
        return fr.named_lift(f.char, f.qubit)
    if isinstance(f, ast.RayF):
        return fr.state_lift(f.amps, f.qubits)
    if isinstance(f, ast.Ent):
        # the program acts on qubit 1 alone, so in the n-qubit frame its
        # map is g (x) I: g is its 2x2 map in the one-qubit environment,
        # read there with no 2^n-wide product formed
        maps = _denote(env.one_qubit(), f.prog)
        if len(maps) != 1:
            raise NonDeterministicProgram(
                "ent encodes one linear map, not a union")
        return fr.map_to_state(maps[0].matrix, f.i, f.j)
    raise TypeError(f"not a state atom: {f!r}")


# ----- symbolic evaluation ----------------------------------------------------


def eval_symbolic(env: Environment, f: ast.Formula) -> Region:
    """Region of a surface formula; raises SpatialAtomInSymbolicMode when
    its meaning is not a finite boolean combination of subspaces."""
    return _eval(env, desugar_formula(f, env.frame.n))


def _eval(env: Environment, f: ast.Formula) -> Region:
    """The region of a core formula; a session also answers by node
    identity."""
    nodes = env._nodes
    if nodes is not None:
        known = nodes.get(id(f))
        if known is not None:
            return known[1]
    dim = env.frame.dim
    # the commonest classes first; no node class has a subclass
    cls = type(f)
    if cls is ast.And:
        region = _eval(env, f.left).intersect(_eval(env, f.right))
    elif cls is ast.Not:
        if type(f.body) is ast.Not:
            # a double complement is the region itself, without the cost
            region = _eval(env, f.body.body)
        else:
            region = _eval(env, f.body).complement()
    elif cls is ast.Leq:
        # box box (a -> b): every state when a meets !b in no ray, else
        # none; !b of a b that is !x is x itself
        inside, right = _eval(env, f.left), f.right
        outside = (_eval(env, right.body) if type(right) is ast.Not
                   else _eval(env, right).complement())
        region = (Region.full(dim) if inside.intersect(outside).is_empty()
                  else Region.empty(dim))
    elif isinstance(f, ast.Var):
        region = env.lookup(f.name)
    elif isinstance(f, ast.TrueF):
        region = Region.full(dim)
    elif isinstance(f, ast.FalseF):
        region = Region.empty(dim)
    elif isinstance(f, (ast.Const, ast.RayF, ast.Ent)):
        region = Region.of_subspace(_atom_subspace(env, f))
    elif isinstance(f, ast.Top):
        env.frame.check_qubits(f.qubits)
        if f.qubits and len(f.qubits) != env.frame.n:
            raise SpatialAtomInSymbolicMode(
                "T{I} membership is state-by-state; use a concrete state")
        region = Region.full(dim)
    elif isinstance(f, ast.Ortho):
        if isinstance(f.body, ast.Top):
            # basis states are I-separated for every I, so T{I} spans the
            # whole space and its orthocomplement is zero
            env.frame.check_qubits(f.body.qubits)
            region = Region.empty(dim)
        else:
            region = Region.of_subspace(_eval(env, f.body).ortho())
    elif isinstance(f, ast.Box):
        if isinstance(f.prog, ast.TopP):
            env.frame.check_qubits(f.prog.qubits)
            if len(f.prog.qubits) != env.frame.n:
                raise SpatialAtomInSymbolicMode(
                    "[T{I}] needs a concrete state")
            valid = _eval(env, f.body).complement().is_empty()
            region = Region.full(dim) if valid else Region.empty(dim)
        elif isinstance(f.prog, ast.Test) and isinstance(f.body, ast.FalseF):
            inner = _untested(f.prog.formula)
            if inner is not None:
                # [(![g?]false)?]false: every state when g is empty, else none
                region = (Region.full(dim) if _eval(env, inner).is_empty()
                          else Region.empty(dim))
            else:
                # [S?]false is the kernel S^perp of the test: no projector
                region = Region.of_subspace(_eval(env, f.prog.formula).closure().ortho())
        else:
            region = wp(_denote(env, f.prog), _eval(env, f.body))
    elif isinstance(f, ast.EqI):
        same = eq_component(env, _eval(env, f.left), _eval(env, f.right),
                            f.qubits)
        region = Region.full(dim) if same else Region.empty(dim)
    elif isinstance(f, ast.Component):
        region = _component_region(env, f)
    elif isinstance(f, ast.LocalF):
        ok = _region_is_local(env, _eval(env, f.body), f.qubits)
        region = Region.full(dim) if ok else Region.empty(dim)
    elif isinstance(f, ast.LocalP):
        ok = _program_is_local(env, f.prog, f.qubits)
        region = Region.full(dim) if ok else Region.empty(dim)
    elif isinstance(f, ast.Img):
        region = _image_region(env, f)
    else:
        raise TypeError(f"not a core formula node: {f!r}")
    if nodes is not None:
        nodes[id(f)] = (f, region)
    return region


def _untested(f: ast.Formula) -> ast.Formula | None:
    """g when ``f`` is ![g?]false, else None.

    [g?]false is closure(g)^perp, so ![g?]false has closure 0 when g is
    empty and the whole space otherwise: [(![g?]false)?]false, the kernel
    of a test on it, is every state or none."""
    if isinstance(f, ast.Not):
        body = f.body
        if (isinstance(body, ast.Box) and isinstance(body.prog, ast.Test)
                and isinstance(body.body, ast.FalseF)):
            return body.prog.formula
    return None


def _component_region(env: Environment, f: ast.Component) -> Region:
    """cmp{I}(g) is symbolic only when g denotes a single part-state:
    the lift of that state is λ s . s_I = g, a subspace."""
    sub_env = Environment(Frame(len(f.qubits)))
    inner = _eval(sub_env, f.body)
    if inner.is_empty():
        return Region.empty(env.frame.dim)
    closed = inner.closure()
    if closed.dim != 1:
        raise SpatialAtomInSymbolicMode(
            "cmp{I} of anything but a single state needs a concrete state")
    return Region.of_subspace(env.frame.row_lift(closed.basis, f.qubits))


def _image_region(env: Environment, f: ast.Img) -> Region:
    maps = _denote(env, f.prog)
    inner = _eval(env, f.body)
    images = []
    for t in inner.terms:
        if t.negatives:
            raise UnsupportedShape(
                "images are taken of unions of subspaces only")
        images += (make_term(pm.image_of(t.positive), ()) for pm in maps)
    return Region(env.frame.dim, images)


# ----- component and locality judgements --------------------------------------


def _product_forms(env: Environment, region: Region, qubits, what: str):
    """The product form of every term of the region, or None when some
    term is not a product; a term with negatives is refused with ``what``."""
    forms = []
    for t in region.terms:
        if t.negatives:
            raise UnsupportedShape(what)
        form = env.frame.product_form(t.positive, qubits)
        if form is None:
            return None
        forms.append(form)
    return forms


def _component_profile(env: Environment, region: Region, qubits):
    """The I-components occurring in the region, as a set of part
    subspaces, or None when some ray of the region is not I-separated.

    Every term must be a plain subspace.  A subspace whose rays are all
    I-separated factors as x_I (x) V (one shared component, a single ray
    being its one-dimensional span) or V_I (x) y (components = the rays of
    V_I); anything else contains an entangled superposition, which
    settles the answer.
    """
    forms = _product_forms(env, region, qubits,
                           "=_I compares unions of subspaces or states only")
    return None if forms is None else frozenset(part for part, _ in forms)


def eq_component(env: Environment, left: Region, right: Region, qubits) -> bool:
    """Whether the two regions have identical sets of I-components, all
    rays on both sides being I-separated."""
    lp = _component_profile(env, left, qubits)
    if lp is None:
        return False
    rp = _component_profile(env, right, qubits)
    if rp is None:
        return False
    return lp == rp


def _region_is_local(env: Environment, region: Region, qubits) -> bool:
    """Whether the region constrains only the named qubits, i.e. equals
    S' x H_rest for some set S' of part-states."""
    inside = env.frame.check_qubits(qubits)
    if len(inside) == env.frame.n:
        return True
    forms = _product_forms(env, region, inside,
                           "locality is judged on unions of subspaces only")
    if forms is None:
        return False
    covered = {part for part, rest in forms if rest.is_full()}
    return all(part in covered for part, _ in forms)


def _program_is_local(env: Environment, prog: ast.Program, qubits) -> bool:
    """Whether every branch map factors as a map on the qubits tensor the
    identity.  A test on S denotes the projector P_S, which does exactly
    when S is 0, everything, or S' (x) H_rest: when ``product_form``
    splits S, its rest is full.  Only a test that it does not split
    (S' (x) R with neither side a ray, say) is denoted for its projector."""
    inside = env.frame.check_qubits(qubits)
    if isinstance(prog, ast.TopP):
        return set(env.frame.check_qubits(prog.qubits)) <= set(inside)
    if isinstance(prog, ast.Test):
        closed = _eval(env, prog.formula).closure()
        if closed.is_zero() or closed.is_full():
            return True
        form = env.frame.product_form(closed, inside)
        if form is not None:
            return form[1].is_full()
    return all(pm.is_local(env.frame, inside) for pm in _denote(env, prog))


# ----- pointwise evaluation ----------------------------------------------------


def check_state(env: Environment, s: Subspace, f: ast.Formula) -> bool:
    """Whether the concrete state, a one-dimensional subspace, satisfies
    the surface formula."""
    if s.dim != 1:
        raise ValueError(f"a state is one-dimensional, not of dimension {s.dim}")
    return _holds(env, s, desugar_formula(f, env.frame.n))


def _symbolic_here(env: Environment, f: ast.Formula) -> Region:
    try:
        return _eval(env, f)
    except SpatialAtomInSymbolicMode as err:
        raise UnsupportedNesting(
            f"separation construct where a testable formula is needed: {err}"
        ) from None


def _run(env: Environment, s: Subspace, prog: ast.Program) -> list:
    """The image of the state s under each branch of a core program, in
    order, zero where the branch is undefined at s.  The program runs
    one action at a time on s: no map is composed and no projector
    built, so this shares no program semantics with ``_denote``."""
    if isinstance(prog, ast.GateP):
        return [env.frame.gate(prog.kind, prog.targets).image_of(s)]
    if isinstance(prog, ast.Id):
        return [s]
    if isinstance(prog, ast.Test):
        # the Sasaki projection (s v S^perp) ^ S of s onto S
        closed = _eval(env, prog.formula).closure()
        return [s.join(closed.ortho()).meet(closed)]
    if isinstance(prog, ast.SeqP):
        # a loop, not a comprehension, so a level costs one stack frame
        outs = []
        for mid in _run(env, s, prog.left):
            outs += _run(env, mid, prog.right)
        return outs
    if isinstance(prog, ast.UnionP):
        return _run(env, s, prog.left) + _run(env, s, prog.right)
    if isinstance(prog, ast.TopP):
        raise UnsupportedShape("T{I} may only stand alone under a box or in localp")
    raise TypeError(f"not a core program node: {prog!r}")


def _holds(env: Environment, s: Subspace, f: ast.Formula) -> bool:
    fr = env.frame
    if isinstance(f, ast.Var):
        return env.lookup(f.name).contains_ray(s)
    if isinstance(f, ast.TrueF):
        return True
    if isinstance(f, ast.FalseF):
        return False
    if isinstance(f, (ast.Const, ast.RayF, ast.Ent)):
        return _atom_subspace(env, f).contains_subspace(s)
    if isinstance(f, ast.Top):
        return fr.product_form(s, f.qubits) is not None
    if isinstance(f, ast.Not):
        return not _holds(env, s, f.body)
    if isinstance(f, ast.And):
        return _holds(env, s, f.left) and _holds(env, s, f.right)
    if isinstance(f, ast.Leq):
        # the definition, box box (a -> b), run state by state
        return _holds(env, s, unfold_leq(f))
    if isinstance(f, ast.Ortho):
        if isinstance(f.body, ast.Top):
            fr.check_qubits(f.body.qubits)
            return False
        return _symbolic_here(env, f.body).ortho().contains_subspace(s)
    if isinstance(f, ast.Box):
        if isinstance(f.prog, ast.TopP):
            reach = Region.of_subspace(fr.reachable(s, f.prog.qubits))
            bad = _symbolic_here(env, ast.Not(f.body))
            return reach.intersect(bad).is_empty()
        for out in _run(env, s, f.prog):
            if not out.is_zero() and not _holds(env, out, f.body):
                return False
        return True
    if isinstance(f, ast.EqI):
        return eq_component(env, _symbolic_here(env, f.left),
                            _symbolic_here(env, f.right), f.qubits)
    if isinstance(f, ast.Component):
        form = fr.product_form(s, f.qubits)
        if form is None:
            return False
        return _holds(Environment(Frame(len(f.qubits))), form[0], f.body)
    if isinstance(f, ast.LocalF):
        return _region_is_local(env, _symbolic_here(env, f.body), f.qubits)
    if isinstance(f, ast.LocalP):
        return _program_is_local(env, f.prog, f.qubits)
    if isinstance(f, ast.Img):
        return _eval(env, f).contains_ray(s)
    raise TypeError(f"not a core formula node: {f!r}")


# ----- validity ----------------------------------------------------------------


def check_valid(env: Environment, f: ast.Formula) -> Subspace | None:
    """None when the formula holds at every state; otherwise a
    counterexample state, re-verified pointwise.

    The formula is decided in a session of its own, so a core node that
    the formula names more than once, as the derived judgements and a
    parse's shared subterms do, is evaluated once.  The counterexample
    is re-verified in ``env`` itself, which remembers no region."""
    return _decide(_Session(env), desugar_formula(f, env.frame.n), env)


def _decide(env: Environment, core: ast.Formula,
            oracle: Environment) -> Subspace | None:
    """``check_valid`` of a core formula, decided in ``env`` and any
    counterexample re-verified pointwise in ``oracle``, which holds the
    same valuation and none of the answers that ``env`` remembers."""
    witness = _eval(env, ast.Not(core)).witness()
    if witness is None:
        return None
    if _holds(oracle, witness, core):
        raise RuntimeError(
            "symbolic and pointwise evaluation disagree on the witness")
    return witness


# ----- schematic claims ---------------------------------------------------------


# One decided instance of a schematic claim; witness is None when it is valid.
InstanceResult = namedtuple("InstanceResult", "label valid witness")


def substitute(node, mapping: dict):
    """Fill a schema: each named Var by a formula, each named PVar by a program."""
    return ast.instantiate(node, {}, mapping)


def random_part_state(rng, nqubits: int, real_only: bool = False) -> tuple:
    """Amplitudes of a random rational part-state, never the zero vector."""
    while True:
        amps = []
        for _ in range(2 ** nqubits):
            re = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            im = Fraction(0) if real_only else Fraction(rng.randint(-6, 6),
                                                        rng.randint(1, 3))
            amps.append(GaussianRational(re, im))
        if any(amps):
            return tuple(amps)


def check_schematic(env: Environment, template: ast.Formula, var: str, qubits,
                    branches: dict | None = None, rng=None, samples: int = 20,
                    real_only: bool = False) -> tuple:
    """(instances, corroborations) of a schema claimed for every state of
    ``var`` on ``qubits``.

    An instance fills ``var`` with a product of 0, 1 and + per qubit and,
    when ``branches`` maps labels to programs, the program variable ``w``
    with one branch: [p + q]f is [p]f & [q]f, and an image through a
    union is the union of the branch images, so =_I against a fixed
    right side must hold branch by branch.  A corroboration fills ``var``
    with a random rational state and ``w`` with the union of every
    branch."""
    fills = [(f" {label}", {"w": prog})
             for label, prog in (branches or {}).items()] or [("", {})]
    cores, session, oracle = DesugarMemo(), _Session(env), _Session(env)

    def decide(f):
        return _decide(session, cores.desugar(f, env.frame.n), oracle)

    instances = []
    for chars in itertools.product("01+", repeat=len(qubits)):
        state = ast.VecC(tuple(qubits), "".join(chars))
        filled = substitute(template, {var: state})
        for suffix, fill in fills:
            witness = decide(substitute(filled, fill))
            instances.append(InstanceResult(f"{var}={state.chars}{suffix}",
                                            witness is None, witness))
    union = {"w": reduce(ast.UnionP, branches.values())} if branches else {}
    corroborations = []
    if rng is not None:
        for k in range(samples):
            state = ast.RayF(tuple(qubits),
                             random_part_state(rng, len(qubits), real_only))
            witness = decide(substitute(substitute(template, {var: state}), union))
            corroborations.append(
                InstanceResult(f"random state {k + 1}", witness is None, witness))
    return tuple(instances), tuple(corroborations)
