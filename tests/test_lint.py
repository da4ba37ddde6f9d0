"""Source-level checks on the library itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bezreach"


def test_no_assert_statements_in_library():
    # `python -O` strips assert statements, so no check on the soundness
    # path may be one; raise a typed error instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert list(SRC.glob("*.py")), f"no library sources under {SRC}"
    assert not found, f"assert statements in the library: {found}"


def test_library_does_not_import_scipy():
    # NumPy is the only runtime dependency; SciPy serves the tests only.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert not found, f"scipy imports in the library: {found}"
