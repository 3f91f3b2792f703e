"""The runtime dependencies in pyproject.toml are exactly the third-party
modules that src/offdetect imports.

Imports are found by walking each module's syntax tree, so an import made
inside a function counts too.  ``sys.stdlib_module_names`` stands for the
standard library.  The dependency list is read as plain text, because
Python 3.10 has no ``tomllib``.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules ``source`` imports, relative imports aside."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def runtime_dependencies(pyproject: str) -> set[str]:
    """Distribution names in the ``[project]`` table's ``dependencies`` list."""
    block = re.search(r"^dependencies = \[(.*?)^\]", pyproject, re.MULTILINE | re.DOTALL)
    entries = re.findall(r'"([^"]+)"', block.group(1))
    return {re.match(r"[A-Za-z0-9._-]+", entry).group(0).lower() for entry in entries}


def test_runtime_dependencies_are_the_imported_third_party_modules():
    sources = [path.read_text(encoding="utf-8") for path in (ROOT / "src").rglob("*.py")]
    imported = set().union(*map(imported_modules, sources))
    third_party = imported - set(sys.stdlib_module_names) - {"offdetect"}
    declared = runtime_dependencies((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert declared == third_party == {"numpy"}


def test_check_reads_nested_imports_and_version_specifiers():
    source = (
        "import os.path\nfrom numpy import linalg\nfrom . import errors\n"
        "def solve():\n    import scipy.linalg\n"
    )
    assert imported_modules(source) == {"os", "numpy", "scipy"}
    pyproject = (
        '[project]\ndependencies = [\n    "numpy>=1.24",\n    "SciPy >= 1.10",\n]\n\n'
        '[project.optional-dependencies]\ntest = [\n    "pytest",\n]\n'
    )
    assert runtime_dependencies(pyproject) == {"numpy", "scipy"}
