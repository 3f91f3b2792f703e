"""OLID-format tweet loading and the two text-preprocessing regimes.

Two cleaning paths feed the feature extractors:

* ``normalize_social`` collapses social markup (#tags, @-mentions, URLs) into
  fixed placeholder tokens and leaves everything else untouched.  This is the
  regime used to prepare text for external sentence encoders.
* ``tokenize_clean`` strips URLs, hashtags, mentions, numbers and punctuation,
  lowercases, and drops stopwords.  This is the regime for word-vector
  features.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from importlib import resources

from .errors import DataError

__all__ = [
    "TweetRecord",
    "LabeledCorpus",
    "LABELS",
    "LABEL_TO_SIGN",
    "SIGN_TO_LABEL",
    "load_olid_tsv",
    "load_label_csv",
    "normalize_social",
    "tokenize_clean",
    "load_stopwords",
    "default_stopwords",
]

LABELS = ("OFF", "NOT")
LABEL_TO_SIGN = {"OFF": +1, "NOT": -1}
SIGN_TO_LABEL = {+1: "OFF", -1: "NOT"}


@dataclass(frozen=True)
class TweetRecord:
    """One tweet: unique id, raw text, optional binary label (OFF/NOT)."""

    id: str
    text: str
    label: str | None = None


@dataclass
class LabeledCorpus:
    """Ordered tweet records plus the split they belong to."""

    records: list[TweetRecord]
    split: str = "train"

    def __len__(self) -> int:
        return len(self.records)

    def label_counts(self) -> dict[str, int]:
        counts = {label: 0 for label in LABELS}
        for rec in self.records:
            if rec.label is not None:
                counts[rec.label] += 1
        return counts

    def ids(self) -> list[str]:
        return [rec.id for rec in self.records]


def _check_label(value: str, where: str) -> str:
    if value not in LABELS:
        raise DataError(f"{where}: unknown label {value!r} (expected OFF or NOT)")
    return value


def load_label_csv(source) -> dict[str, str]:
    """Parse an ``id,label`` CSV (no header) into an id -> label map."""
    labels: dict[str, str] = {}
    for lineno, raw in enumerate(_text_lines(source), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DataError(f"label csv line {lineno}: expected 'id,label', got {raw!r}")
        tweet_id, label = parts[0].strip(), parts[1].strip()
        if not tweet_id:
            raise DataError(f"label csv line {lineno}: empty id")
        if tweet_id in labels:
            raise DataError(f"label csv line {lineno}: duplicate id {tweet_id!r}")
        labels[tweet_id] = _check_label(label, f"label csv line {lineno}")
    return labels


def _text_lines(source):
    if isinstance(source, str):
        return io.StringIO(source)
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8"))
    if isinstance(source, io.TextIOBase):
        return source
    return io.TextIOWrapper(source, encoding="utf-8")


def load_olid_tsv(tweet_source, label_source=None, split: str = "train") -> LabeledCorpus:
    """Load an OLID-style TSV (header ``id<TAB>tweet[<TAB>subtask_a...]``).

    Labels come from the ``subtask_a`` column when present; a separate
    ``id,label`` CSV (the test-set convention) overrides them.  Records keep
    file order.  Rows with the wrong column count, unknown labels, or
    duplicate ids raise DataError naming the offending line.
    """
    reader = csv.reader(_text_lines(tweet_source), delimiter="\t", quoting=csv.QUOTE_NONE)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("tweet tsv: missing header row") from None
    columns = {name.strip(): idx for idx, name in enumerate(header)}
    for required in ("id", "tweet"):
        if required not in columns:
            raise DataError(f"tweet tsv header: missing column {required!r}")
    id_col = columns["id"]
    text_col = columns["tweet"]
    label_col = columns.get("subtask_a")

    overrides = load_label_csv(label_source) if label_source is not None else None

    records: list[TweetRecord] = []
    seen: set[str] = set()
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise DataError(
                f"tweet tsv line {lineno}: expected {len(header)} columns, got {len(row)}"
            )
        tweet_id = row[id_col].strip()
        if not tweet_id:
            raise DataError(f"tweet tsv line {lineno}: empty id")
        if tweet_id in seen:
            raise DataError(f"tweet tsv line {lineno}: duplicate id {tweet_id!r}")
        seen.add(tweet_id)
        label: str | None = None
        if label_col is not None and row[label_col].strip():
            label = _check_label(row[label_col].strip(), f"tweet tsv line {lineno}")
        records.append(TweetRecord(id=tweet_id, text=row[text_col], label=label))

    if overrides is not None:
        unknown = set(overrides) - seen
        if unknown:
            raise DataError(
                f"label csv: {len(unknown)} id(s) not present in tweet tsv, "
                f"e.g. {sorted(unknown)[0]!r}"
            )
        records = [
            TweetRecord(rec.id, rec.text, overrides.get(rec.id, rec.label)) for rec in records
        ]

    return LabeledCorpus(records=records, split=split)


# --- social-markup normalization ------------------------------------------

HASHTAG_TOKEN = "#TAG"
MENTION_TOKEN = "@MENTION"
URL_TOKEN = "URLS"

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_HASHTAG_RUN_RE = re.compile(r"#\w+(?:\s+#\w+)*")
_MENTION_RUN_RE = re.compile(r"@\w+(?:\s+@\w+)*")


def normalize_social(text: str) -> str:
    """Collapse URLs, @-mention runs, and #tag runs into placeholder tokens.

    URLs (http://, https://, www. prefixes, matched case-insensitively)
    become ``URLS``; each maximal whitespace-separated run of @-mentions
    becomes ``@MENTION``; each run of hashtags becomes ``#TAG``.  Everything
    else is untouched; in particular case is preserved, since the sentence
    encoders this regime feeds take raw-cased text.  Idempotent: the
    placeholders themselves re-normalize to themselves.
    """
    text = _URL_RE.sub(URL_TOKEN, text)
    text = _MENTION_RUN_RE.sub(MENTION_TOKEN, text)
    text = _HASHTAG_RUN_RE.sub(HASHTAG_TOKEN, text)
    return text


# --- word-token cleaning ---------------------------------------------------

_MENTION_STRIP_RE = re.compile(r"@\w+")
_HASHTAG_STRIP_RE = re.compile(r"#\w+")
# candidate runs: word characters other than digits and "_", apostrophes
# between them.  A superset of _is_word_char, so every token lies inside one
# run and every run edge separates tokens.
_CANDIDATE_RUN_RE = re.compile(r"[^\W\d_]+(?:'[^\W\d_]+)*")


def _is_word_char(ch: str) -> bool:
    # letters that still read as uppercase after str.lower() (math-style
    # alphabets without case mappings) count as separators, keeping the
    # all-lowercase output guarantee exact
    return ch.isalpha() and not ch.isupper()


def _letter_runs(text: str) -> list[str]:
    """Maximal runs of Unicode letters, apostrophes allowed between letters."""
    tokens: list[str] = []
    current: list[str] = []
    last = len(text) - 1
    for i, ch in enumerate(text):
        if _is_word_char(ch):
            current.append(ch)
        elif ch == "'" and current and i < last and _is_word_char(text[i + 1]):
            current.append(ch)
        else:
            if current:
                tokens.append("".join(current))
                current = []
    if current:
        tokens.append("".join(current))
    return tokens


def tokenize_clean(text: str, stopwords: frozenset[str] | set[str]) -> list[str]:
    """Lowercased word tokens with URLs, #tags, @-mentions, digits,
    punctuation, and stopwords removed.

    Tokens are maximal runs of Unicode letters with internal apostrophes;
    anything else acts as a separator.  May return an empty list.
    """
    text = _URL_RE.sub(" ", text)
    text = _MENTION_STRIP_RE.sub(" ", text)
    text = _HASHTAG_STRIP_RE.sub(" ", text)
    # lowercase before extraction: case folding can introduce combining
    # marks, which must act as separators rather than land inside tokens
    tokens: list[str] = []
    for run in _CANDIDATE_RUN_RE.findall(text.lower()):
        # an ASCII run is lowercase letters and inner apostrophes: one token
        if run.isascii():
            tokens.append(run)
        else:
            tokens.extend(_letter_runs(run))
    return [tok for tok in tokens if tok not in stopwords]


def load_stopwords(source) -> frozenset[str]:
    """Read a one-token-per-line stopword file."""
    words = [line.strip() for line in _text_lines(source)]
    return frozenset(word for word in words if word)


def default_stopwords() -> frozenset[str]:
    """The English stopword list shipped with the package (179 entries)."""
    text = resources.files("offdetect.assets").joinpath("stopwords.txt").read_text("utf-8")
    return load_stopwords(text)
