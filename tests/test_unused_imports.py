"""No module under src/offdetect, scripts or tests imports a name it never uses.

A stdlib stand-in for a linter's unused-import rule (F401): an imported
name counts as used when it appears anywhere in the module as a name, or
is listed in ``__all__``.  An import statement carrying ``# noqa: F401``
is exempt, as the package's re-exports are.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path for folder in ("src/offdetect", "scripts", "tests") for path in (ROOT / folder).glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """``line: name`` of each imported name that ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            statement = lines[node.lineno - 1 : node.end_lineno]
            if any("# noqa: F401" in line for line in statement):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", FILES, ids=[f"{p.parent.name}/{p.name}" for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_flags_unused_and_honours_noqa():
    source = (
        "import os\nimport os.path as osp\nfrom json import dumps, loads\n"
        "from re import compile  # noqa: F401\nfrom math import (  # noqa: F401\n    pi,\n)\n"
        "__all__ = ['loads']\nprint(os.sep)\n"
    )
    assert unused_imports(source) == ["2: osp", "3: dumps"]
