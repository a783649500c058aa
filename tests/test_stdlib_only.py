"""The runtime package imports nothing outside the standard library."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qpdl"


def absolute_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_runtime_imports_only_stdlib():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) >= 10
    outside = {(f.name, name) for f in files for name in absolute_imports(f)
               if name.split(".")[0] not in sys.stdlib_module_names}
    assert outside == set()


def test_import_pulls_in_neither_dataclasses_nor_inspect():
    # A fresh interpreter without site, so that no .pth file of the
    # environment imports either module first.
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "import qpdl, qpdl.cli, qpdl.protocols; "
             "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC.parent)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
