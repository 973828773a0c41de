"""Classification metrics: confusion matrix, per-class precision/recall/F1,
macro and support-weighted aggregation, and report rendering.

Conventions: all rates are fractions in [0, 1]; any metric whose denominator
is zero is reported as 0.0 (the conservative choice, stated again in the
JSON report so downstream consumers see it).  The text report rounds to
three decimals; the JSON twin carries full precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LABEL_NAMES
from .errors import InputError, MetricError, ParameterError

__all__ = [
    "ConfusionMatrix",
    "ClassReport",
    "confusion",
    "accuracy",
    "precision_recall_f1",
    "aggregate",
    "classification_report",
    "render_report",
]

_NUM_CLASSES = len(LABEL_NAMES)


@dataclass
class ConfusionMatrix:
    """3x3 integer counts; rows are the true class, columns the prediction,
    both in ``LABEL_NAMES`` order."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.shape != (_NUM_CLASSES, _NUM_CLASSES):
            raise InputError(f"confusion counts must be 3x3, got {counts.shape}")
        if np.any(counts < 0):
            raise InputError("confusion counts must be non-negative")
        self.counts = counts.astype(np.int64)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def row_sums(self) -> np.ndarray:
        """Per-true-class sample counts (the class supports)."""
        return self.counts.sum(axis=1)

    def col_sums(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    def to_csv(self) -> str:
        """The matrix as CSV with labeled rows/columns (rows = true class)."""
        lines = ["true\\pred," + ",".join(LABEL_NAMES)]
        for k, name in enumerate(LABEL_NAMES):
            lines.append(name + "," + ",".join(str(int(v)) for v in self.counts[k]))
        return "\n".join(lines) + "\n"


def confusion(pred, truth) -> ConfusionMatrix:
    """Tally predicted-vs-true class ids into a confusion matrix."""
    pred = list(pred)
    truth = list(truth)
    if len(pred) != len(truth):
        raise InputError(
            f"pred and truth lengths differ: {len(pred)} vs {len(truth)}"
        )
    counts = np.zeros((_NUM_CLASSES, _NUM_CLASSES), dtype=np.int64)
    for i, (p, t) in enumerate(zip(pred, truth)):
        p, t = int(p), int(t)
        if not (0 <= p < _NUM_CLASSES and 0 <= t < _NUM_CLASSES):
            raise InputError(f"class id out of range at position {i}: pred={p} truth={t}")
        counts[t, p] += 1
    return ConfusionMatrix(counts)


def accuracy(cm: ConfusionMatrix) -> float:
    """Fraction of samples on the diagonal (correct across all classes)."""
    total = cm.total
    if total == 0:
        raise MetricError("accuracy is undefined for an empty confusion matrix")
    return float(np.trace(cm.counts)) / total


def precision_recall_f1(cm: ConfusionMatrix, k: int) -> tuple[float, float, float]:
    """One-vs-rest precision, recall and F1 for class ``k``.

    Any rate whose denominator is zero is 0.0 by convention.
    """
    if not 0 <= k < _NUM_CLASSES:
        raise ParameterError(f"class id must be in [0, 3), got {k}")
    tp = float(cm.counts[k, k])
    fp = float(cm.col_sums()[k]) - tp
    fn = float(cm.row_sums()[k]) - tp
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def aggregate(values, supports) -> tuple[float, float]:
    """(macro, weighted) means of per-class values.

    Macro is the plain mean; weighted weights each class by its support.
    """
    values = [float(v) for v in values]
    supports = [int(s) for s in supports]
    if len(values) != _NUM_CLASSES or len(supports) != _NUM_CLASSES:
        raise InputError("aggregate expects 3 values and 3 supports")
    if any(s < 0 for s in supports):
        raise InputError(f"supports must be non-negative, got {supports}")
    total = sum(supports)
    if total == 0:
        raise MetricError("weighted average is undefined when all supports are 0")
    macro = sum(values) / _NUM_CLASSES
    weighted = sum(v * s for v, s in zip(values, supports)) / total
    return macro, weighted


@dataclass
class ClassReport:
    """Per-class rates plus the accuracy/macro/weighted summary rows.

    Instances built by :func:`classification_report` satisfy the usual
    consistency properties (weighted averages inside the per-class range,
    accuracy equal to weighted recall); the type itself stays permissive so
    externally produced tables can be rendered too.
    """

    class_names: tuple[str, ...]
    precision: tuple[float, ...]
    recall: tuple[float, ...]
    f1: tuple[float, ...]
    support: tuple[int, ...]
    accuracy: float
    macro: tuple[float, float, float]
    weighted: tuple[float, float, float]

    def to_dict(self) -> dict:
        return {
            "classes": {
                name: {
                    "precision": self.precision[k],
                    "recall": self.recall[k],
                    "f1": self.f1[k],
                    "support": self.support[k],
                }
                for k, name in enumerate(self.class_names)
            },
            "accuracy": self.accuracy,
            "macro_avg": dict(zip(("precision", "recall", "f1"), self.macro)),
            "weighted_avg": dict(zip(("precision", "recall", "f1"), self.weighted)),
            "total": int(sum(self.support)),
            "conventions": {
                "zero_denominator": "rates with a zero denominator are reported as 0.0"
            },
        }


def classification_report(cm: ConfusionMatrix) -> ClassReport:
    """Compute the full per-class and aggregate report from a matrix."""
    rates = [precision_recall_f1(cm, k) for k in range(_NUM_CLASSES)]
    precisions, recalls, f1s = zip(*rates)
    supports = tuple(int(s) for s in cm.row_sums())
    macro_w = tuple(
        aggregate(values, supports) for values in (precisions, recalls, f1s)
    )
    return ClassReport(
        class_names=LABEL_NAMES,
        precision=precisions,
        recall=recalls,
        f1=f1s,
        support=supports,
        accuracy=accuracy(cm),
        macro=tuple(m for m, _ in macro_w),
        weighted=tuple(w for _, w in macro_w),
    )


def render_report(report: ClassReport) -> str:
    """Fixed-width text table: one row per class, then Accuracy (shown in
    the F1-score column), Macro_avg and Weighted_avg."""
    name_width = max(
        len(n) for n in (*report.class_names, "Accuracy", "Macro_avg", "Weighted_avg")
    )
    col = 10

    def row(name, p, r, f):
        cells = [
            f"{v:.3f}".rjust(col) if v is not None else " " * col for v in (p, r, f)
        ]
        return name.ljust(name_width) + "".join(cells)

    lines = [
        " " * name_width
        + "Precision".rjust(col)
        + "Recall".rjust(col)
        + "F1-score".rjust(col)
    ]
    for k, name in enumerate(report.class_names):
        lines.append(row(name, report.precision[k], report.recall[k], report.f1[k]))
    lines.append(row("Accuracy", None, None, report.accuracy))
    lines.append(row("Macro_avg", *report.macro))
    lines.append(row("Weighted_avg", *report.weighted))
    return "\n".join(lines) + "\n"
