#!/usr/bin/env python3
"""Seeded OLID-scale synthetic corpus for the benchmark.

Writes, for one seed, the inputs every workload reads:

* ``train.tsv`` - 13,240 tweets (4,400 OFF / 8,840 NOT), labels in the
  ``subtask_a`` column, as in the OLID training file;
* ``test.tsv`` + ``test_labels.csv`` - 860 tweets (240 OFF / 620 NOT), the
  labels in a separate ``id,label`` file, as in the OLID test release;
* ``vectors.vec`` - a 5,000-word x 300-dim word-vector table;
* ``precomputed.txt`` - a 512-dim sentence vector for every tweet id.

Each tweet has 8-30 whitespace tokens: class-biased vocabulary words drawn
with a Zipf-like frequency, stopwords, out-of-vocabulary words, digits,
capitalised words, @-mention runs, #tag runs, URLs and punctuation.  Part
of the vocabulary never occurs, so the vocabulary filter of the word-vector
loader drops rows.  The same seed always writes byte-identical files.

    python3 bench/gen_corpus.py --seed 1 --out .bench_work/corpus-1
"""

from __future__ import annotations

import argparse
import hashlib
from pathlib import Path

import numpy as np

N_TRAIN = (1100, 2210)  # (OFF, NOT)
N_TEST = (240, 620)
VOCAB = 5000
USED_VOCAB = 4300  # words that can occur in tweets; the rest only sit in the table
HOSTILE = 700  # of the used words, the ones biased towards OFF tweets
OOV_WORDS = 400
VEC_DIM = 300
PRE_DIM = 512
MIN_TOKENS, MAX_TOKENS = 8, 30
# class signal: hostile words sit SHIFT along one direction (per-axis scatter
# is 0.3), and are drawn for a share P_OFF of the words of an OFF tweet
# (0.06 for NOT), which keeps both the avg and the hodmd predictors away
# from the all-NOT answer
SHIFT = 3.0
P_OFF = 0.6

FILES = ("train.tsv", "test.tsv", "test_labels.csv", "vectors.vec", "precomputed.txt")

_STOPWORDS = ("the", "is", "you", "so", "a", "to", "and", "this", "of", "are", "they", "was")
_PUNCT = ("!", "!!", "?", "...", "!?", ".", ",")
_ONSETS = "b c d f g h j k l m n p r s t v w z br cl dr fl gr kr pl sk sl st tr".split()
_VOWELS = "a e i o u ai ea oo ou".split()


def _words(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    """Distinct pronounceable lowercase pseudo-words (2-4 syllables) not in ``taken``."""
    out: list[str] = []
    while len(out) < count:
        n_syl = int(rng.integers(2, 5))
        word = "".join(
            _ONSETS[int(rng.integers(len(_ONSETS)))] + _VOWELS[int(rng.integers(len(_VOWELS)))]
            for _ in range(n_syl)
        )
        if rng.random() < 0.4:
            word += _ONSETS[int(rng.integers(14))]  # single-letter coda
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _tweet(rng: np.random.Generator, offensive: bool, hostile, neutral, oov, hostile_cdf,
           neutral_cdf) -> str:
    n_tokens = int(rng.integers(MIN_TOKENS, MAX_TOKENS + 1))
    parts: list[str] = []
    if rng.random() < 0.3:
        parts.extend(f"@user{k}" for k in rng.integers(1000, size=int(rng.integers(1, 4))))
    tail: list[str] = []
    if rng.random() < 0.3:
        tail.extend(f"#{hostile[k]}" for k in rng.integers(40, size=int(rng.integers(1, 3))))
    if rng.random() < 0.2:
        tail.append(f"https://t.co/{int(rng.integers(1 << 30)):x}")
    n_words = max(1, n_tokens - len(parts) - len(tail))
    kind, pick, style = rng.random((3, n_words))
    hostile_k = np.searchsorted(hostile_cdf, rng.random(n_words))
    neutral_k = np.searchsorted(neutral_cdf, rng.random(n_words))
    p_hostile = P_OFF if offensive else 0.06
    for j in range(n_words):
        roll = kind[j]
        if roll < 0.12:
            word = _STOPWORDS[int(pick[j] * len(_STOPWORDS))]
        elif roll < 0.16:
            word = oov[int(pick[j] * len(oov))]
        elif roll < 0.18:
            word = str(10 + int(pick[j] * 9990))
        elif pick[j] < p_hostile:
            word = hostile[hostile_k[j]]
        else:
            word = neutral[neutral_k[j]]
        if style[j] < 0.05:
            word = word.upper()
        elif style[j] < 0.15:
            word = word.capitalize()
        parts.append(word)
    parts.extend(tail)
    text = " ".join(parts)
    if rng.random() < 0.35:
        text += _PUNCT[int(rng.integers(len(_PUNCT)))]
    return text


def _zipf_cdf(n: int) -> np.ndarray:
    """Cumulative Zipf-like (exponent 0.8) word frequencies over n ranks."""
    cdf = np.cumsum(1.0 / np.arange(1, n + 1) ** 0.8)
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    return cdf


def _rows(ids: list[str], values: np.ndarray, decimals: int) -> str:
    fmt = " ".join([f"%.{decimals}f"] * values.shape[1])
    return "".join(f"{key} {fmt % tuple(row)}\n" for key, row in zip(ids, values.tolist()))


def generate(seed: int, out: Path) -> dict[str, str]:
    """Write the corpus for ``seed`` into ``out``; return {file name: sha256}."""
    rng = np.random.default_rng([20200110, seed])
    out.mkdir(parents=True, exist_ok=True)

    taken = set(_STOPWORDS) | {"user", "https"}
    vocab = _words(rng, VOCAB, taken)
    oov = _words(rng, OOV_WORDS, taken)
    hostile, neutral = vocab[:HOSTILE], vocab[HOSTILE:USED_VOCAB]
    hostile_cdf, neutral_cdf = _zipf_cdf(len(hostile)), _zipf_cdf(len(neutral))

    def split(n_off: int, n_not: int, first_id: int) -> list[tuple[str, str, str]]:
        labels = np.array(["OFF"] * n_off + ["NOT"] * n_not)
        rng.shuffle(labels)
        ids = first_id + rng.choice(90000, size=len(labels), replace=False)
        return [
            (str(i), _tweet(rng, lab == "OFF", hostile, neutral, oov, hostile_cdf, neutral_cdf),
             str(lab))
            for i, lab in zip(ids.tolist(), labels.tolist())
        ]

    train = split(*N_TRAIN, first_id=10000)
    test = split(*N_TEST, first_id=910000)

    with open(out / "train.tsv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id\ttweet\tsubtask_a\n")
        fh.writelines(f"{i}\t{text}\t{lab}\n" for i, text, lab in train)
    with open(out / "test.tsv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id\ttweet\n")
        fh.writelines(f"{i}\t{text}\n" for i, text, _ in test)
    with open(out / "test_labels.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{i},{lab}\n" for i, _, lab in test)

    # word vectors: hostile words lean along one direction, every word has
    # its own scatter, so averaged and DMD features both carry the label
    direction = rng.standard_normal(VEC_DIM)
    direction /= np.linalg.norm(direction)
    vectors = rng.normal(0.0, 0.3, size=(VOCAB, VEC_DIM))
    vectors[:HOSTILE] += SHIFT * direction
    order = rng.permutation(VOCAB)
    with open(out / "vectors.vec", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{VOCAB} {VEC_DIM}\n")
        fh.write(_rows([vocab[k] for k in order], vectors[order], 4))

    # precomputed sentence vectors: a weak class shift on a few axes plus noise
    rows = train + test
    signs = np.array([1.0 if lab == "OFF" else -1.0 for _, _, lab in rows])
    pre = rng.normal(0.0, 1.0, size=(len(rows), PRE_DIM))
    pre[:, :24] += 0.25 * signs[:, None]
    with open(out / "precomputed.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_rows([i for i, _, _ in rows], pre, 4))

    return {name: sha256(out / name) for name in FILES}


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for name, digest in generate(args.seed, args.out).items():
        print(f"{digest}  {name}")


if __name__ == "__main__":
    main()
