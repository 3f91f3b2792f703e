"""No module under src/offdetect, scripts or tests imports a name it never uses,
no public name of the package is stale, and the package holds no dead
private code.

A stdlib stand-in for a linter's unused-import rule (F401): an imported
name counts as used when it appears anywhere in the module as a name, or
is listed in ``__all__``.  An import statement carrying ``# noqa: F401``
is exempt, as the package's re-exports are.  Every name in a module's
``__all__`` and every package re-export must exist, since tools that wrap
a module's public functions look each one up.  A module-level
``_``-prefixed function, class or constant of the package is dead when no
statement of the package other than its own definition mentions it.
"""

import ast
import importlib
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


PACKAGE = ROOT / "src" / "offdetect"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if not path.stem.startswith("__"))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"offdetect.{name}")
    public = getattr(module, "__all__", ())
    assert [attr for attr in public if not hasattr(module, attr)] == []


def test_every_package_reexport_resolves():
    package = importlib.import_module("offdetect")
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    names = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert names
    assert [name for name in names if not hasattr(package, name)] == []



def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module: name`` of each module-level ``_``-prefixed function, class
    or constant (dunder names aside) of the modules that ``sources`` maps to
    their text, when no top-level statement of any of them mentions it but
    its own definition.  A statement mentions a name that it reads, reads as
    an attribute or imports."""
    defined: list[tuple[str, str]] = []
    used: set[str] = set()
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = {statement.name}
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
                own = {target.id for target in targets if isinstance(target, ast.Name)}
            else:
                own = set()
            defined += [(module, name) for name in sorted(own) if name[0] == "_" and name[-2:] != "__"]
            mentions = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    mentions.add(node.id)
                elif isinstance(node, ast.Attribute):
                    mentions.add(node.attr)
                elif isinstance(node, ast.alias):
                    mentions.add(node.name)
            used |= mentions - own
    return [f"{module}: {name}" for module, name in defined if name not in used]


def test_package_holds_no_dead_private_code():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_dead_code_check_counts_mentions_outside_the_definition_only():
    sources = {
        "a": (
            "_LIMIT = 3\n_UNUSED = 4\n__all__ = []\n"
            "def _loop(n):\n    return _loop(n - 1) if n else 0\n"
            "def _helper():\n    return _LIMIT\n"
            "class _Dead:\n    pass\n"
        ),
        "b": "from .a import _helper\nimport a\nprint(_helper(), a._other)\n_other = 1\n",
    }
    assert dead_private_names(sources) == ["a: _UNUSED", "a: _loop", "a: _Dead"]
