"""Every function and class that ``src/tsicl`` defines has a caller in ``src/tsicl``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tsicl"
ENTRY_POINTS = ["experiment.run_seed"]  # the in-memory pipeline, which scripts and tests run


def test_every_definition_has_a_caller_in_the_package():
    """A definition counts as called where the package reads its name, as a name or an attribute; a docstring or
    comment that mentions it does not count, and Python calls the dunder methods itself. Only the entry points
    have no caller, and each of them has none."""
    defined, read = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("__"):
                    defined.append((path.stem, node.name))
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert [f"{module}.{name}" for module, name in defined if name not in read] == ENTRY_POINTS
