"""No module under src/offdetect, scripts or tests imports a name it never uses,
no public name of the package is stale, and the package holds no dead
private code.

A stdlib stand-in for a linter's unused-import rule (F401): an imported
name counts as used when it appears anywhere in the module as a name, or
is listed in ``__all__``.  An import statement carrying ``# noqa: F401``
is exempt, as the package's re-exports are.  Every name in a module's
``__all__`` and every package re-export must exist, since tools that wrap
a module's public functions look each one up.  A module-level
``_``-prefixed function, class or constant of the package, or such a
method or attribute of a module-level class, is dead when no statement of
the package other than its own definition mentions it.  Exactly one ``except``
clause of the package names ``MemoryError``: the one in ``cli.main``.
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



def _defines(statement: ast.stmt) -> set[str]:
    """The names that ``statement`` defines: a function, a class, or the
    plain names it assigns."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return {target.id for target in targets if isinstance(target, ast.Name)}
    return set()


def _statements(tree: ast.Module):
    """(owner prefix, names defined, nodes) of each top-level statement of
    ``tree``; a class stands as its header (decorators, bases) and one
    statement per member, each member's names prefixed by the class's."""
    for statement in tree.body:
        if isinstance(statement, ast.ClassDef):
            header = [*statement.decorator_list, *statement.bases, *statement.keywords]
            yield "", {statement.name}, header
            for member in statement.body:
                yield f"{statement.name}.", _defines(member), [member]
        else:
            yield "", _defines(statement), [statement]


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module: name`` of each module-level ``_``-prefixed function, class
    or constant (dunder names aside) of the modules that ``sources`` maps to
    their text, and ``module: Class.name`` of each such method or attribute
    of a module-level class, when no statement of any of them (a class
    member counting as a statement) mentions it but its own definition.  A
    statement mentions a name that it reads, reads as an attribute or
    imports."""
    defined: list[tuple[str, str, str]] = []
    used: set[str] = set()
    for module, source in sources.items():
        for prefix, own, nodes in _statements(ast.parse(source)):
            defined += [(module, prefix, name) for name in sorted(own) if name[0] == "_" and name[-2:] != "__"]
            mentions = set()
            for node in (node for top in nodes for node in ast.walk(top)):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    mentions.add(node.id)
                elif isinstance(node, ast.Attribute):
                    mentions.add(node.attr)
                elif isinstance(node, ast.alias):
                    mentions.add(node.name)
            used |= mentions - own
    return [f"{module}: {prefix}{name}" for module, prefix, name in defined if name not in used]


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
            "class Kept(_Base):\n"
            "    _SIZE = 2\n"
            "    def run(self):\n        return self._step() + self._SIZE\n"
            "    def _step(self):\n        return 1\n"
            "    def _again(self):\n        return self._again()\n"
            "    def _called_elsewhere(self):\n        pass\n"
            "    def __len__(self):\n        return 0\n"
        ),
        "b": (
            "from .a import _helper\nimport a\nprint(_helper(), a._other, a.Kept()._called_elsewhere())\n"
            "_other = 1\nclass _Base:\n    pass\n"
        ),
    }
    assert dead_private_names(sources) == ["a: _UNUSED", "a: _loop", "a: _Dead", "a: Kept._again"]


def memory_error_handlers(sources: dict[str, str]) -> list[str]:
    """``module: function`` of each ``except`` clause of the modules that
    ``sources`` maps to their text which names ``MemoryError``, alone or in
    a tuple; ``function`` is the innermost enclosing function, or
    ``<module>``."""
    def visit(node, function):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(isinstance(name, ast.Name) and name.id == "MemoryError" for name in names):
                yield function
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    return [
        f"{module}: {function}"
        for module, source in sources.items()
        for function in visit(ast.parse(source), "<module>")
    ]


def test_memory_error_is_mapped_in_main_only():
    # one boundary maps a failed allocation to its exit code, so every
    # allocation of every command fails the same way
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert memory_error_handlers(sources) == ["cli: main"]


def test_memory_error_check_finds_each_handler():
    sources = {
        "a": (
            "try:\n    pass\nexcept MemoryError:\n    pass\n"
            "def f():\n    try:\n        pass\n    except (OSError, MemoryError):\n        pass\n"
            "    except ValueError:\n        pass\n"
        ),
        "b": "class C:\n    def g(self):\n        try:\n            pass\n        except MemoryError as e:\n            pass\n",
    }
    assert memory_error_handlers(sources) == ["a: <module>", "a: f", "b: g"]
