"""Word-vector tables, averaged sentence vectors, and per-tweet signals.

A tweet is featurized either as the mean of its token vectors or as the
full n x (m+1) matrix of token vectors in order (one column per token),
which downstream decomposition treats as a multi-channel signal.
Precomputed sentence vectors (e.g. from an external encoder) are ingested
from a plain-text table keyed by tweet id.
"""

from __future__ import annotations

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
    (nan, inf) value, raise DataError naming the line.
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
            fields = line.rstrip("\n").split(" ")
            # trailing-space tolerance seen in common .vec exports
            if fields and fields[-1] == "":
                fields = fields[:-1]
            token = fields[0]
            if len(fields) - 1 != dim:
                raise DataError(
                    f"vec file line {lineno}: expected {dim} values, got {len(fields) - 1}"
                )
            if vocab_filter is not None and token not in vocab_filter:
                continue
            row = _parse_row(fields[1:], f"vec file line {lineno}")
            tokens.append(token)
            yield row

    # rows go straight into one growing buffer, never all held twice
    matrix = np.fromiter(kept_rows(), dtype=np.dtype((np.float64, dim)))
    # a repeated token maps to its last row
    return WordVectorTable(matrix=matrix, index={tok: i for i, tok in enumerate(tokens)})


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
    file yields an empty table whose lookups fail.
    """
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    for lineno, line in enumerate(_lines(source), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) < 2:
            raise DataError(f"precomputed file line {lineno}: expected 'id v1 ... v_dim'")
        tweet_id = fields[0]
        if tweet_id in vectors:
            raise DataError(f"precomputed file line {lineno}: duplicate id {tweet_id!r}")
        if dim is None:
            dim = len(fields) - 1
        elif len(fields) - 1 != dim:
            raise DataError(
                f"precomputed file line {lineno}: expected {dim} values, got {len(fields) - 1}"
            )
        vectors[tweet_id] = _parse_row(fields[1:], f"precomputed file line {lineno}")
    return PrecomputedTable(dim=dim, vectors=vectors)
