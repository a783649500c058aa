"""Command-line front end.

Exit codes: 0 for valid / PASS / TRUE, 1 for a refuted claim (the
witness is printed), 2 for usage, syntax and other input errors
(``InputError``), unbound variables and I/O errors, 3 for formulas
outside the fragment the symbolic evaluator decides, 4 for an internal
error (a crash, or the two evaluators disagreeing), which is never
reported as a verdict.
"""

from __future__ import annotations

import argparse
import sys
from functools import reduce

from .ast import TopP, pretty
from .checker import (
    Environment,
    check_state,
    check_valid,
    denote_program,
    eval_symbolic,
)
from .desugar import desugar_program
from .errors import CheckError, InputError, UnboundVariable
from .frame import Frame, Subspace, format_state, parse_state
from .parser import ParseError, parse_formula, parse_program
from .protocols import DEFAULT_SEED, TARGETS, run_target

# Maps and subspaces are sparse integer rows, but every subspace is stored
# at full width over all 2^n basis states, so meets and joins of subspaces
# of dimension 2^(n-1) grow with 2^n: past 10 qubits a small claim takes
# seconds to minutes instead of answering in well under a second.
MAX_QUBITS = 10


def _load_state(path: str, n: int) -> Subspace:
    with open(path, encoding="ascii") as fh:
        k, state = parse_state(fh.read())
    if k != n:
        raise InputError(f"{path} holds a {k}-qubit state, expected n={n}")
    return state


def _bindings(pairs, n: int) -> dict:
    """-b name=@file binds a state (a ray's span); -b name=span:@f1,@f2 the
    span of several."""
    out = {}
    for raw in pairs or ():
        name, eq, rhs = raw.partition("=")
        if not eq or not name.isidentifier():
            raise InputError(f"bad binding {raw!r}, expected name=@file")
        if rhs.startswith("span:"):
            states = []
            for part in rhs[len("span:"):].split(","):
                if not part.startswith("@"):
                    raise InputError(f"bad binding {raw!r}, span needs @files")
                states.append(_load_state(part[1:], n))
            out[name] = reduce(Subspace.join, states)
        elif rhs.startswith("@"):
            out[name] = _load_state(rhs[1:], n)
        else:
            raise InputError(f"bad binding {raw!r}, expected @file or span:")
    return out


def _environment(args) -> Environment:
    """The -n qubit frame with the -b bindings; no frame above MAX_QUBITS."""
    if args.n > MAX_QUBITS:
        raise InputError(f"-n {args.n} exceeds the limit of {MAX_QUBITS} qubits")
    return Environment(Frame(args.n), _bindings(args.bind, args.n))


def _ray_lines(amps: tuple) -> str:
    return " + ".join(f"({a})e{idx}" for idx, a in enumerate(amps) if a)


def _cmd_parse(args) -> int:
    try:
        node, kind = parse_formula(args.expr), "formula"
    except ParseError as formula_error:
        try:
            node, kind = parse_program(args.expr), "program"
        except ParseError as program_error:
            # the reading that got further explains the text; a tie is
            # read as a formula
            raise max(formula_error, program_error,
                      key=lambda e: (e.line, e.col)) from None
    print(f"{kind}: {pretty(node)}")
    return 0


def _cmd_valid(args) -> int:
    env = _environment(args)
    witness = check_valid(env, parse_formula(args.formula))
    if witness is None:
        print("VALID")
        return 0
    print("COUNTEREXAMPLE:")
    sys.stdout.write(format_state(args.n, witness))
    return 1


def _cmd_holds(args) -> int:
    env = _environment(args)
    state = _load_state(args.state, args.n)
    if check_state(env, state, parse_formula(args.formula)):
        print("TRUE")
        return 0
    print("FALSE")
    return 1


def _cmd_denote(args) -> int:
    env = _environment(args)
    prog = desugar_program(parse_program(args.program), args.n)
    if isinstance(prog, TopP):
        qs = ",".join(str(q) for q in prog.qubits)
        print(f"trivial local program on qubits {{{qs}}}")
        return 0
    for k, branch in enumerate(denote_program(env, prog), start=1):
        print(f"branch {k}:")
        print(branch.matrix)
    return 0


def _cmd_eval(args) -> int:
    env = _environment(args)
    region = eval_symbolic(env, parse_formula(args.formula))
    if region.is_empty():
        print("EMPTY")
        return 0
    if region.complement().is_empty():
        print("FULL")
        return 0
    for k, term in enumerate(region.terms, start=1):
        print(f"term {k}: span of dimension {term.positive.dim}")
        for row in term.positive.basis.entries:
            print(f"  {_ray_lines(row)}")
        for cut in term.negatives:
            print(f"  minus span of dimension {cut.dim}")
            for row in cut.basis.entries:
                print(f"    {_ray_lines(row)}")
    return 0


def _cmd_verify(args) -> int:
    reports = run_target(args.target, seed=args.seed)
    failed = False
    for rep in reports:
        print(rep.render_text())
        failed = failed or not rep.passed
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qpdl",
        description="Exact model checker for a dynamic logic of "
                    "quantum programs.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse an expression and print it back")
    p.add_argument("expr")
    p.set_defaults(run=_cmd_parse)

    def add_frame_flags(cmd):
        cmd.add_argument("-n", type=int, required=True, metavar="QUBITS")
        cmd.add_argument("-b", "--bind", action="append", metavar="VAR=@FILE",
                         help="bind a variable to a state file's span, or to "
                              "span:@f1,@f2 for a joined span")

    p = sub.add_parser("valid", help="decide validity over the n-qubit frame")
    add_frame_flags(p)
    p.add_argument("formula")
    p.set_defaults(run=_cmd_valid)

    p = sub.add_parser("holds", help="check a formula at one state")
    add_frame_flags(p)
    p.add_argument("--state", required=True, metavar="FILE")
    p.add_argument("formula")
    p.set_defaults(run=_cmd_holds)

    p = sub.add_parser("denote", help="print a program's branch matrices")
    add_frame_flags(p)
    p.add_argument("program")
    p.set_defaults(run=_cmd_denote)

    p = sub.add_parser("eval", help="print the region a formula denotes")
    add_frame_flags(p)
    p.add_argument("formula")
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("verify", help="run a named verification target")
    p.add_argument("target", choices=sorted(TARGETS) + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(run=_cmd_verify)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except (InputError, UnboundVariable, OSError) as exc:
        # before CheckError: an unbound variable is a CheckError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 4
