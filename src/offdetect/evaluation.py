"""Confusion-matrix metrics (macro-averaged, percent), evaluation driver,
sweep tables, and report rendering.

Conventions: per-class precision/recall/F1 substitute 0 whenever a
denominator is 0, the macro average is the unweighted mean over the two
classes, and values stay full precision internally; rounding to two
decimals (half-up) happens only at render time.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Iterable, Sequence

import numpy as np

from .corpus import LABEL_TO_SIGN, LabeledCorpus
from .errors import DataError
from .learn import predict

__all__ = [
    "ConfusionMatrix",
    "MetricsReport",
    "macro_metrics",
    "evaluate",
    "labels_to_signs",
    "sweep_csv_lines",
    "format_pct",
    "render_report",
]

_CLASS_ORDER = ("OFF", "NOT")


@dataclass
class ConfusionMatrix:
    """2x2 counts indexed (gold, predicted) in class order (OFF, NOT)."""

    counts: np.ndarray

    @classmethod
    def from_pairs(cls, gold: Iterable[str], predicted: Iterable[str]) -> "ConfusionMatrix":
        counts = np.zeros((2, 2), dtype=np.int64)
        index = {label: i for i, label in enumerate(_CLASS_ORDER)}
        gold = list(gold)
        predicted = list(predicted)
        if len(gold) != len(predicted):
            raise DataError(f"{len(gold)} gold labels vs {len(predicted)} predictions")
        for g, p in zip(gold, predicted):
            if g not in index or p not in index:
                raise DataError(f"unknown label in pair ({g!r}, {p!r})")
            counts[index[g], index[p]] += 1
        return cls(counts=counts)

    @classmethod
    def from_counts(cls, off_off: int, off_not: int, not_off: int, not_not: int):
        return cls(counts=np.array([[off_off, off_not], [not_off, not_not]], dtype=np.int64))

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass
class MetricsReport:
    """Accuracy and macro precision/recall/F1 as percentages."""

    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.accuracy, self.macro_precision, self.macro_recall, self.macro_f1)


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def macro_metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Unweighted two-class mean of per-class precision/recall/F1, percent."""
    total = cm.total
    if total == 0:
        raise DataError("empty confusion matrix")
    precisions = []
    recalls = []
    f1s = []
    for i in range(2):
        tp = float(cm.counts[i, i])
        fp = float(cm.counts[1 - i, i])
        fn = float(cm.counts[i, 1 - i])
        p = _safe_div(tp, tp + fp)
        r = _safe_div(tp, tp + fn)
        precisions.append(p)
        recalls.append(r)
        f1s.append(_safe_div(2.0 * p * r, p + r))
    accuracy = float(np.trace(cm.counts)) / total
    return MetricsReport(
        accuracy=100.0 * accuracy,
        macro_precision=100.0 * float(np.mean(precisions)),
        macro_recall=100.0 * float(np.mean(recalls)),
        macro_f1=100.0 * float(np.mean(f1s)),
    )


def labels_to_signs(corpus: LabeledCorpus) -> np.ndarray:
    """Gold labels as a +-1 vector; unlabeled records are an error."""
    signs = []
    for rec in corpus.records:
        if rec.label is None:
            raise DataError(f"record {rec.id!r} has no label; cannot evaluate/train on it")
        signs.append(LABEL_TO_SIGN[rec.label])
    return np.array(signs, dtype=np.float64)


def evaluate(model, corpus: LabeledCorpus, features: np.ndarray) -> MetricsReport:
    """Predict -> confusion -> macro metrics, from ``features``, the (n, dim)
    array of ``corpus``'s tweets in record order."""
    labels_to_signs(corpus)  # reject unlabeled records up front, naming the id
    gold = [rec.label for rec in corpus.records]
    predictions = predict(model, features)
    cm = ConfusionMatrix.from_pairs(gold, [label for label, _ in predictions])
    return macro_metrics(cm)


def sweep_csv_lines(rows: Sequence[tuple[float, float]], value_name: str = "C") -> list[str]:
    """Plot-data CSV lines: header ``<value_name>,accuracy`` then one row each.

    A value is written in ``:g`` form when that reads back to it, else as
    its ``repr``, so no two values share a label.
    """
    lines = [f"{value_name},accuracy"]
    for value, accuracy in rows:
        text = f"{value:g}"
        if float(text) != value:
            text = repr(value)
        lines.append(f"{text},{format_pct(accuracy)}")
    return lines


def format_pct(value: float) -> str:
    """Percentage with exactly two decimals, half-up on the decimal reading."""
    return str(Decimal(repr(float(value))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def render_report(reports: Sequence[tuple[str, MetricsReport]]) -> tuple[str, str]:
    """TSV and aligned-text tables (columns: name, acc, prec, recall, f1)."""
    if not reports:
        raise DataError("nothing to render: empty report list")
    header = ("name", "acc", "prec", "recall", "f1")
    rows = [
        (name, *(format_pct(v) for v in report.as_tuple())) for name, report in reports
    ]
    tsv_lines = ["\t".join(header)] + ["\t".join(row) for row in rows]
    widths = [max(len(r[i]) for r in [header, *rows]) for i in range(5)]
    text_lines = []
    for row in [header, *rows]:
        cells = [row[0].ljust(widths[0])] + [row[i].rjust(widths[i]) for i in range(1, 5)]
        text_lines.append("  ".join(cells).rstrip())
    return "\n".join(tsv_lines) + "\n", "\n".join(text_lines) + "\n"
