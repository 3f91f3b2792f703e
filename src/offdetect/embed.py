"""Word-vector tables, averaged sentence vectors, and per-tweet signals.

A tweet is featurized either as the mean of its token vectors or as the
full n x (m+1) matrix of token vectors in order (one column per token),
which downstream decomposition treats as a multi-channel signal.
Precomputed sentence vectors (e.g. from an external encoder) are ingested
from a plain-text table keyed by tweet id.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "WordVectorTable",
    "EmbeddingSequence",
    "PrecomputedTable",
    "load_vec_table",
    "average_embedding",
    "token_matrix",
    "load_precomputed",
]


@dataclass
class WordVectorTable:
    """Word vectors as the rows of one (V, dim) matrix; ``index`` maps each
    token to its row."""

    matrix: np.ndarray
    index: dict[str, int]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def rows(self, tokens: list[str]) -> list[int]:
        """Row numbers of the in-vocabulary tokens, in token order."""
        index = self.index
        return [index[tok] for tok in tokens if tok in index]

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def __len__(self) -> int:
        return len(self.index)


@dataclass
class EmbeddingSequence:
    """Word vectors of one tweet as columns, in token order: shape (dim, m+1)."""

    values: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]


@dataclass
class PrecomputedTable:
    """tweet id -> sentence vector; dim is fixed by the first row loaded."""

    dim: int | None
    vectors: dict[str, np.ndarray]

    def lookup(self, tweet_id: str) -> np.ndarray:
        if tweet_id not in self.vectors:
            raise DataError(f"precomputed table: no vector for id {tweet_id!r}")
        return self.vectors[tweet_id]

    def __len__(self) -> int:
        return len(self.vectors)


def _lines(source):
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, str):
        return source.splitlines()
    return (raw.decode("utf-8") if isinstance(raw, bytes) else raw for raw in source)


def load_vec_table(source, vocab_filter: set[str] | None = None) -> WordVectorTable:
    """Parse a ``.vec`` text table: header ``count dim``, then
    ``token v1 ... v_dim`` per line, space-separated.

    ``vocab_filter`` keeps only the listed tokens.  Rows whose width differs
    from the header dim, and kept rows with a non-numeric or non-finite
    (nan, inf) value, raise DataError naming the line.  Kept rows are parsed
    in blocks (see ``_parsed_blocks``).
    """
    lines = iter(_lines(source))
    try:
        header = next(lines)
    except StopIteration:
        raise DataError("vec file: empty (missing header)") from None
    parts = header.split()
    if len(parts) != 2:
        raise DataError(f"vec file line 1: expected header 'count dim', got {header!r}")
    try:
        _count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise DataError(f"vec file line 1: non-integer header {header!r}") from None
    if dim <= 0:
        raise DataError(f"vec file line 1: dimension must be positive, got {dim}")

    tokens: list[str] = []

    def kept_rows():
        for lineno, line in enumerate(lines, start=2):
            if not line.strip():
                continue
            body = line.rstrip("\n")
            # trailing-space tolerance seen in common .vec exports
            if body.endswith(" "):
                body = body[:-1]
            width = body.count(" ")
            if width != dim:
                raise DataError(f"vec file line {lineno}: expected {dim} values, got {width}")
            token, _, values = body.partition(" ")
            if vocab_filter is not None and token not in vocab_filter:
                continue
            tokens.append(token)
            yield lineno, values

    def parse(rows: list[tuple[int, str]]) -> np.ndarray:
        values = _parse_block(rows, dim, " ", "vec file")
        if values is None:
            values = np.array(
                [_parse_row(text.split(" "), f"vec file line {lineno}") for lineno, text in rows]
            )
        return values

    # rows go straight into one growing buffer, never all held twice
    rows = (row for block in _parsed_blocks(kept_rows(), parse) for row in block)
    matrix = np.fromiter(rows, dtype=np.dtype((np.float64, dim)))
    # a repeated token maps to its last row
    return WordVectorTable(matrix=matrix, index={tok: i for i, tok in enumerate(tokens)})


# Rows parsed at a time by numpy's C parser: enough to amortise the call, few
# enough that a block's text and values stay small.
_BLOCK_ROWS = 256


def _parsed_blocks(rows, parse):
    """``parse(block)`` for each run of up to ``_BLOCK_ROWS`` consecutive
    ``(lineno, text)`` pairs that ``rows`` yields.

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
                yield parse(block)
    except Exception:
        if held:
            parse(held)
        raise
    if held:
        yield parse(held)


def _parse_block(
    rows: list[tuple[int, str]], width: int, delimiter: str | None, what: str
) -> np.ndarray | None:
    """The values of ``rows``, ``(lineno, text)`` pairs, as a (len(rows),
    width) array parsed by numpy's C parser, or None when it refuses a row or
    finds another width.  A non-finite value raises DataError naming the
    first line that holds one.

    The C parser accepts less than ``float()`` does (no ``_`` digit
    separators, no non-ASCII digits, no line break inside a row), reads what
    it accepts to the same value, and splits as ``str.split(delimiter)``
    does; the caller parses a refused block again line by line.
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
        return None
    # it skips blank rows, which a line-by-line parse rejects
    if values.shape != (len(rows), width):
        return None
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise DataError(f"{what} line {rows[int(np.argmin(finite))][0]}: non-finite value")
    return values


def _parse_row(fields: list[str], where: str) -> np.ndarray:
    try:
        vec = np.array([float(value) for value in fields], dtype=np.float64)
    except ValueError:
        raise DataError(f"{where}: non-numeric value") from None
    if not np.isfinite(vec).all():
        raise DataError(f"{where}: non-finite value")
    return vec


def average_embedding(tokens: list[str], table: WordVectorTable) -> np.ndarray:
    """Mean of in-vocabulary token vectors; zero vector if none are known."""
    rows = table.rows(tokens)
    if not rows:
        return np.zeros(table.dim, dtype=np.float64)
    return table.matrix[rows].mean(axis=0)


def token_matrix(tokens: list[str], table: WordVectorTable) -> EmbeddingSequence:
    """In-vocabulary token vectors as ordered columns; OOV tokens skipped."""
    return EmbeddingSequence(values=table.matrix[table.rows(tokens)].T)


def load_precomputed(source) -> PrecomputedTable:
    """Parse ``id v1 ... v_dim`` lines; dim inferred from the first row.

    Duplicate ids, rows of inconsistent width and non-numeric or
    non-finite (nan, inf) values raise DataError naming the line.  An empty
    file yields an empty table whose lookups fail.  Rows are parsed in
    blocks (see ``_parsed_blocks``).
    """
    ids: dict[str, int] = {}  # id -> line, in file order
    dim: int | None = None

    def checked_rows():
        nonlocal dim
        for lineno, line in enumerate(_lines(source), start=1):
            parts = line.split(None, 1)
            if not parts:
                continue
            if len(parts) < 2:
                raise DataError(f"precomputed file line {lineno}: expected 'id v1 ... v_dim'")
            tweet_id, values = parts
            if tweet_id in ids:
                raise DataError(f"precomputed file line {lineno}: duplicate id {tweet_id!r}")
            if dim is None:
                dim = len(values.split())
            ids[tweet_id] = lineno
            yield lineno, values

    def parse(rows: list[tuple[int, str]]) -> np.ndarray:
        values = _parse_block(rows, dim, None, "precomputed file")
        if values is None:
            parsed = []
            for lineno, text in rows:
                fields = text.split()
                if len(fields) != dim:
                    raise DataError(
                        f"precomputed file line {lineno}: expected {dim} values, got {len(fields)}"
                    )
                parsed.append(_parse_row(fields, f"precomputed file line {lineno}"))
            values = np.array(parsed)
        return values

    blocks = list(_parsed_blocks(checked_rows(), parse))
    rows = (row for block in blocks for row in block)
    return PrecomputedTable(dim=dim, vectors=dict(zip(ids, rows)))
