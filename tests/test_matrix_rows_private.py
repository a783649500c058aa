"""Only ``linalg`` reads or writes a matrix's integer rows; every other
module builds and reads matrices through its operations."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qpdl"


def row_access(path):
    """(file, line, what) for each use of Matrix's integer-row form:
    ``from_parts``, ``Matrix._of``, ``.den``, the sparse rows ``.triples``
    read in any way, and ``.re``/``.im`` indexed or zipped as rows (the
    dense parts form it replaced, should one come back)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr in ("from_parts", "den", "triples") or (
                    node.attr == "_of" and isinstance(node.value, ast.Name)
                    and node.value.id == "Matrix"):
                yield path.name, node.lineno, node.attr
        elif isinstance(node, ast.Subscript):
            if isinstance(node.value, ast.Attribute) and node.value.attr in ("re", "im"):
                yield path.name, node.lineno, node.value.attr + "[]"
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "zip":
                for arg in node.args:
                    if isinstance(arg, ast.Attribute) and arg.attr in ("re", "im"):
                        yield path.name, node.lineno, "zip(" + arg.attr + ")"


def test_only_linalg_touches_matrix_integer_rows():
    files = [f for f in sorted(SRC.rglob("*.py")) if f.name != "linalg.py"]
    assert len(files) >= 10
    assert [use for f in files for use in row_access(f)] == []
    # the scan sees the form where it is used
    assert len(list(row_access(SRC / "linalg.py"))) > 20
