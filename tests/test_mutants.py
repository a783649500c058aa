"""A mutation table: each row breaks one routine on purpose and names the
check that must fail because of it.

A row is (name, patch, check).  The patch is Python source that replaces
one attribute of a qpdl module or class with a faulty copy; it writes no
file and rewrites no source.  The check is a pytest node id.  Each row
runs in a fresh process, which applies the patch and then runs the check,
and the row passes when the check fails there.  A fast path that lands
adds its mutants here as rows.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Applies the patch in argv[1], then runs the pytest node id in argv[2].
RUNNER = """\
import sys
import pytest
exec(sys.argv[1], {})
sys.exit(pytest.main([sys.argv[2], "-q", "-p", "no:cacheprovider"]))
"""

MUTANTS = [
    ("apply drops the imaginary cross term", """
        from qpdl.linalg import Matrix

        def apply(self, vectors):
            den = self.den * vectors.den
            out = []
            for x in vectors.triples:
                dense = [(0, 0)] * self.cols
                for c, a, b in x:
                    dense[c] = (a, b)
                y = []
                for i, row in enumerate(self.triples):
                    re = im = 0
                    for j, mr, mi in row:
                        xr, xi = dense[j]
                        re += mr * xr - mi * xi
                        im += mr * xi  # lost: + mi * xr
                    if re or im:
                        y.append((i, re, im))
                out.append((y, den))
            return Matrix.from_parts(out, self.rows)

        Matrix.apply = apply
        """,
     "tests/test_linalg.py::test_apply_matches_the_replaced_routine_and_fractions"),
    ("from_parts skips the gcd", """
        from math import lcm
        from qpdl.linalg import Matrix

        def from_parts(rows, cols):
            den = lcm(*(s for _, s in rows))
            return Matrix._of(tuple(tuple((c, a * (den // s), b * (den // s))
                                          for c, a, b in row) for row, s in rows),
                              den, cols)

        Matrix.from_parts = staticmethod(from_parts)
        """,
     "tests/test_linalg.py::test_from_parts_matches_the_replaced_routine_and_fractions"),
    ("ent reads the transposed map", """
        from qpdl import ast, checker

        atom_subspace = checker._atom_subspace

        def transposed(env, f):
            if isinstance(f, ast.Ent):
                (pm,) = checker._denote(env.one_qubit(), f.prog)
                return env.frame.map_to_state(pm.matrix.transpose(), f.i, f.j)
            return atom_subspace(env, f)

        checker._atom_subspace = transposed
        """,
     "tests/test_checker.py::test_ent_reads_the_one_qubit_map_as_the_block_did"),
    ("a lift projector is placed with swapped table rows", """
        from qpdl import frame
        from qpdl.linalg import Matrix

        projector = frame.Subspace.projector

        def swapped(self):
            if self._local is None or self._projector is not None:
                return projector(self)
            n, qubits, part = self._local
            table = frame._layout(n, qubits)
            self._projector = part.projector().tensor(
                Matrix.identity(len(table[0])), table, table[::-1])
            return self._projector

        frame.Subspace.projector = swapped
        """,
     "tests/test_frame.py::test_a_lift_projector_is_its_parts_placed_by_the_layout"),
    ("a disjoint row basis is left in row order", """
        from math import lcm
        from qpdl.linalg import Matrix, _lead_one, _rref

        def row_basis(self):
            rows = [row for row in self.triples if row]
            if len(rows) > 1 and (len({c for row in rows for c, _, _ in row})
                                  < sum(map(len, rows))):
                return Matrix.from_parts(_rref(self._work(), self.cols)[0], self.cols)
            rows = [_lead_one(row) for row in rows]  # lost: sorted(rows)
            d = lcm(*[s for _, s in rows])
            return Matrix._of(tuple([tuple(x) if s == d else
                                     tuple([(c, a * (d // s), b * (d // s)) for c, a, b in x])
                                     for x, s in rows]), d, self.cols)

        Matrix.row_basis = row_basis
        """,
     "tests/test_linalg.py::test_disjoint_row_basis_matches_rref_and_fractions"),
    ("disjointness compares leading columns only", """
        from math import lcm
        from qpdl.linalg import Matrix, _lead_one, _rref

        def row_basis(self):
            rows = [row for row in self.triples if row]
            # lost: every column, not just the first of each row
            if len(rows) > 1 and len({row[0][0] for row in rows}) < len(rows):
                return Matrix.from_parts(_rref(self._work(), self.cols)[0], self.cols)
            rows = [_lead_one(row) for row in sorted(rows)]
            d = lcm(*[s for _, s in rows])
            return Matrix._of(tuple([tuple(x) if s == d else
                                     tuple([(c, a * (d // s), b * (d // s)) for c, a, b in x])
                                     for x, s in rows]), d, self.cols)

        Matrix.row_basis = row_basis
        """,
     "tests/test_linalg.py::test_a_shared_column_is_eliminated"),
    ("the null-space read-off drops the pivot entries", """
        from qpdl.linalg import Matrix

        def kernel_of_rref(self):
            pivots = {row[0][0] for row in self.triples}
            # lost: - x_r[f] at each pivot p_r
            return Matrix.from_parts([([(f, 1, 0)], 1) for f in range(self.cols)
                                      if f not in pivots], self.cols)

        Matrix.kernel_of_rref = kernel_of_rref
        """,
     "tests/test_linalg.py::test_kernel_of_rref_spans_the_kernel_basis_with_no_elimination"),
    ("the null-space read-off keeps x_r[f] unnegated", """
        from qpdl.linalg import Matrix

        def kernel_of_rref(self):
            rows, den = self.triples, self.den
            pivots = [row[0][0] for row in rows]
            vectors = []
            for f in range(self.cols):
                if f not in pivots:
                    # lost: the sign of x_r[f]
                    v = [(p, a, b) for row, p in zip(rows, pivots)
                         for j, a, b in row if j == f]
                    vectors.append((sorted(v + [(f, den, 0)]), 1))
            return Matrix.from_parts(vectors, self.cols)

        Matrix.kernel_of_rref = kernel_of_rref
        """,
     "tests/test_frame.py::"
     "test_containment_meets_and_preimages_match_the_ortho_route_cold_and_warm"),
    ("the perp rows are read off the conjugated basis", """
        from qpdl import frame

        def _perp_rows(self):
            if self._perp is None:
                # lost: ker B is conj(B^perp); this is B^perp itself
                self._perp = self.basis.conj().kernel_of_rref()
            return self._perp

        frame.Subspace._perp_rows = _perp_rows
        """,
     "tests/test_frame.py::"
     "test_containment_meets_and_preimages_match_the_ortho_route_cold_and_warm"),
    ("an intern callback pops unconditionally", """
        from qpdl import frame

        def _unintern(ref, pop=frame._INTERNED.pop):
            pop(ref.key, None)  # lost: only while the entry is ref

        frame._unintern = _unintern
        """,
     "tests/test_frame.py::test_rebuilding_a_basis_never_loses_its_live_entry"),
    ("an intern callback never pops", """
        from qpdl import frame

        frame._unintern = lambda ref: None
        """,
     "tests/test_frame.py::test_a_dropped_subspace_leaves_the_intern_table"),
    ("leq decides b and not a", """
        from qpdl import ast, checker
        from qpdl.regions import Region

        evaluate = checker._eval

        def swapped(env, f):
            if type(f) is not ast.Leq:
                return evaluate(env, f)
            # lost: a meets !b; this is b meets !a
            outside = evaluate(env, f.left).complement()
            inside = evaluate(env, f.right)
            dim = env.frame.dim
            return (Region.full(dim) if inside.intersect(outside).is_empty()
                    else Region.empty(dim))

        checker._eval = swapped
        """,
     "tests/test_checker.py::test_a_leq_node_decides_and_costs_as_its_unfolding"),
    ("leq is charged one node less than its unfolding", """
        from qpdl import desugar

        desugar._LEQ_NODES -= 1
        """,
     "tests/test_checker.py::test_a_leq_node_decides_and_costs_as_its_unfolding"),
]


@pytest.mark.parametrize("name, patch, check", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_the_mutant_is_killed_by_its_check(name, patch, check):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", RUNNER, textwrap.dedent(patch), check],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    # exit 1: the check ran and failed; a patch that raises, or a node id
    # that names no test, exits otherwise
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout, proc.stdout
