"""Only ``corpus.text_lines`` splits or decodes input text under src/offdetect.

Every input (config, tweet TSV, label CSV, stopwords, ``.vec`` and
precomputed tables) reads through that one generator, so one line rule
holds for all of them: a line ends at ``\\n``, ``\\r\\n`` or a lone ``\\r``.
No other function may name ``splitlines``, ``decode``, ``read_text``,
``TextIOWrapper`` or ``StringIO``, save the allowlisted ones below, which
read no input lines.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "offdetect"
TEXT_READERS = {"splitlines", "decode", "read_text", "TextIOWrapper", "StringIO"}

ALLOWED = [
    "corpus.text_lines: decode",
    "corpus.text_lines: splitlines",
    # the whole-file decode, so that its error keeps the path:line: form
    "experiment.parse_config: decode",
    # the hyperparameter JSON and the generator id of a binary model file
    "model_io.load_model: decode",
    "model_io._read_map_recipe: decode",
]


def text_readers(source: str, module: str) -> list[str]:
    """``module.function: name`` of each use of a TEXT_READERS name in
    ``source``, under the innermost enclosing named function."""
    found: list[str] = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if isinstance(node, (ast.Attribute, ast.Name)) and name in TEXT_READERS:
            found.append(f"{module}.{scope}: {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def test_only_text_lines_reads_input_text():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += text_readers(path.read_text(encoding="utf-8"), path.stem)
    assert sorted(found) == sorted(ALLOWED)


def test_check_flags_every_reader():
    source = (
        "import io\nfrom io import StringIO\n"
        "def f(data):\n    return data.decode().splitlines()\n"
        "def g(stream):\n    def inner():\n        return io.TextIOWrapper(stream)\n    return StringIO(inner())\n"
        "TEXT = open('x').read().split()\n"
    )
    assert text_readers(source, "m") == [
        "m.f: splitlines",
        "m.f: decode",
        "m.inner: TextIOWrapper",
        "m.g: StringIO",
    ]
