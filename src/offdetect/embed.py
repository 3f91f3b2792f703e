"""Vector tables, averaged sentence vectors, and per-tweet signals.

Word vectors (a ``.vec`` file keyed by token) and precomputed sentence
vectors (e.g. from an external encoder, keyed by tweet id) both load into a
VectorTable: the vectors as the rows of one matrix, and an index from key
to row.  A tweet is featurized either as the mean of its token vectors or
as the full dim x L array of its token vectors in order (one column per
token), which downstream decomposition treats as a multi-channel signal.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .corpus import text_lines
from .errors import DataError

__all__ = [
    "VectorTable",
    "load_vec_table",
    "average_embedding",
    "token_matrix",
    "load_precomputed",
]

# The widest header dim: numpy holds one row of float64 values as one item
# (see load_vec_table's np.fromiter), whose size must fit in a C int.
_MAX_VEC_DIM = (1 << 28) - 1


@dataclass
class VectorTable:
    """Vectors as the rows of one (V, dim) matrix; ``index`` maps each key
    (a token or a tweet id) to its row."""

    matrix: np.ndarray
    index: dict[str, int]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def rows(self, tokens: list[str]) -> np.ndarray:
        """Row numbers of the in-vocabulary tokens, in token order, as an
        ``np.intp`` array."""
        index = self.index
        return np.array([index[tok] for tok in tokens if tok in index], dtype=np.intp)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def __len__(self) -> int:
        return len(self.index)


def load_vec_table(source, vocab_filter: set[str] | None = None) -> VectorTable:
    """Parse a ``.vec`` text table: header ``count dim``, then
    ``token v1 ... v_dim`` per line, space-separated.

    The header's dim must lie in [1, _MAX_VEC_DIM], and a header that
    declares one vector or more must be followed by a vector line; each
    refusal is a DataError naming line 1.  The count is otherwise not
    checked, so a header of count 0 alone loads as a (0, dim) table.
    ``vocab_filter`` keeps only the listed tokens.  Rows whose width
    differs from the header dim, and kept rows with a non-numeric or
    non-finite (nan, inf) value, raise DataError naming the line.  Kept
    rows are parsed in blocks (see ``_parsed_rows``).
    """
    lines = text_lines(source, "vec file")
    try:
        _, header = next(lines)
    except StopIteration:
        raise DataError("vec file: empty (missing header)") from None
    parts = header.split()
    if len(parts) != 2:
        raise DataError(f"vec file line 1: expected header 'count dim', got {header!r}")
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise DataError(f"vec file line 1: non-integer header {header!r}") from None
    if dim <= 0:
        raise DataError(f"vec file line 1: dimension must be positive, got {dim}")
    if dim > _MAX_VEC_DIM:
        raise DataError(f"vec file line 1: dimension must be at most {_MAX_VEC_DIM}, got {dim}")
    lines = ((lineno, line) for lineno, line in lines if line.strip())
    first = next(lines, None)
    if first is None and count > 0:
        raise DataError(
            f"vec file line 1: header declares {count} vector(s), but no vector line follows"
        )
    lines = itertools.chain([first] if first else [], lines)

    tokens: list[str] = []

    def kept_rows():
        for lineno, line in lines:
            # trailing-space tolerance seen in common .vec exports
            body = line[:-1] if line.endswith(" ") else line
            width = body.count(" ")
            if width != dim:
                raise DataError(f"vec file line {lineno}: expected {dim} values, got {width}")
            token, _, values = body.partition(" ")
            if vocab_filter is not None and token not in vocab_filter:
                continue
            tokens.append(token)
            yield lineno, values

    # rows go straight into one growing buffer, never all held twice
    rows = _parsed_rows(kept_rows(), dim, " ", "vec file")
    matrix = np.fromiter(rows, dtype=np.dtype((np.float64, dim)))
    # a repeated token maps to its last row
    return VectorTable(matrix=matrix, index={tok: i for i, tok in enumerate(tokens)})


# Rows parsed at a time by numpy's C parser: enough to amortise the call, few
# enough that a block's text and values stay small.
_BLOCK_ROWS = 256


def _parsed_rows(rows, width: int, delimiter: str | None, what: str):
    """The parsed values, row by row, of the ``(lineno, text)`` pairs that
    ``rows`` yields, parsed ``_BLOCK_ROWS`` at a time by ``_parse_block``.

    When ``rows`` raises at a bad line, the rows held from earlier lines are
    parsed first, so that a bad value on an earlier line is the error
    reported, as in a line-by-line parse.
    """
    held: list[tuple[int, str]] = []
    try:
        for row in rows:
            held.append(row)
            if len(held) == _BLOCK_ROWS:
                block, held = held, []
                yield from _parse_block(block, width, delimiter, what)
    except Exception:
        if held:
            _parse_block(held, width, delimiter, what)
        raise
    if held:
        yield from _parse_block(held, width, delimiter, what)


def _parse_block(
    rows: list[tuple[int, str]], width: int, delimiter: str | None, what: str
) -> np.ndarray:
    """The values of ``rows``, ``(lineno, text)`` pairs, as a (len(rows),
    width) array.  A row of another width, or with a non-numeric or
    non-finite (nan, inf) value, raises DataError naming the first line that
    holds one.

    numpy's C parser reads the block in one call.  It accepts less than
    ``float()`` does (no ``_`` digit separators, no non-ASCII digits, no line
    break inside a row), reads what it accepts to the same value, and splits
    as ``str.split(delimiter)`` does; when it refuses a row or finds another
    width, the block is parsed again line by line with ``float()``.
    """
    try:
        with warnings.catch_warnings():
            # a block of blank rows only: "input contained no data"
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(
                [text for _, text in rows],
                dtype=np.float64,
                delimiter=delimiter,
                comments=None,
                ndmin=2,
            )
    except ValueError:
        values = None
    # it skips blank rows, which a line-by-line parse rejects
    if values is None or values.shape != (len(rows), width):
        return np.array([
            _parse_row(text.split(delimiter), width, f"{what} line {lineno}")
            for lineno, text in rows
        ])
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise DataError(f"{what} line {rows[int(np.argmin(finite))][0]}: non-finite value")
    return values


def _parse_row(fields: list[str], width: int, where: str) -> np.ndarray:
    if len(fields) != width:
        raise DataError(f"{where}: expected {width} values, got {len(fields)}")
    try:
        vec = np.array([float(value) for value in fields], dtype=np.float64)
    except ValueError:
        raise DataError(f"{where}: non-numeric value") from None
    if not np.isfinite(vec).all():
        raise DataError(f"{where}: non-finite value")
    return vec


def average_embedding(rows: np.ndarray, table: VectorTable) -> np.ndarray:
    """Mean token vectors, (G, dim), of G tweets given as a (G, L) array of
    table rows; zeros when L is 0.  Summed in token order, then divided by
    L, each mean has the bits of its own (L, dim) mean."""
    if rows.shape[1] == 0:
        return np.zeros((len(rows), table.dim))
    total = table.matrix[rows[:, 0]]
    for column in rows.T[1:]:
        total += table.matrix[column]
    return total / rows.shape[1]


def token_matrix(rows: np.ndarray, table: VectorTable) -> np.ndarray:
    """Token vectors of G tweets given as a (G, L) array of table rows: a
    C-ordered (G, dim, L) stack, one column per token in order."""
    return np.ascontiguousarray(table.matrix[rows].transpose(0, 2, 1))


def load_precomputed(source) -> VectorTable:
    """Parse ``id v1 ... v_dim`` lines; dim inferred from the first row.

    Duplicate ids, rows of inconsistent width and non-numeric or
    non-finite (nan, inf) values raise DataError naming the line.  An empty
    file yields a (0, 0) table.  Rows are parsed in blocks (see
    ``_parsed_rows``).
    """
    index: dict[str, int] = {}  # id -> row, in file order

    def checked_rows():
        for lineno, line in text_lines(source, "precomputed file"):
            parts = line.split(None, 1)
            if not parts:
                continue
            if len(parts) < 2:
                raise DataError(f"precomputed file line {lineno}: expected 'id v1 ... v_dim'")
            tweet_id, values = parts
            if tweet_id in index:
                raise DataError(f"precomputed file line {lineno}: duplicate id {tweet_id!r}")
            index[tweet_id] = len(index)
            yield lineno, values

    rows = checked_rows()
    first = next(rows, None)
    if first is None:
        return VectorTable(matrix=np.zeros((0, 0)), index={})
    dim = len(first[1].split())
    rows = _parsed_rows(itertools.chain([first], rows), dim, None, "precomputed file")
    return VectorTable(matrix=np.fromiter(rows, dtype=np.dtype((np.float64, dim))), index=index)
