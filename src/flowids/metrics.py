"""Binary classification metrics from scores: confusion counts, ratios, ROC.

Conventions, applied uniformly: predictions compare score >= threshold;
any zero-denominator ratio is reported as 0 (and flagged in rendered
output); AUC over a single-class truth vector raises rather than guessing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, MetricUndefinedError


class ConfusionCounts(NamedTuple):
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


class ScalarMetrics(NamedTuple):
    accuracy: float
    precision: float
    recall: float
    f1: float
    fnr: float
    mcc: float


def _check_scores_truths(scores, truths) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    truths = np.asarray(truths)
    if scores.ndim != 1 or truths.ndim != 1 or scores.shape != truths.shape:
        raise DataError(
            f"scores and truths must be equal-length vectors, got {scores.shape} and {truths.shape}"
        )
    if scores.size == 0:
        raise DataError("cannot compute metrics on empty inputs")
    if not np.all(np.isfinite(scores)):
        raise DataError("scores contain non-finite values")
    if not np.isin(truths, (0, 1)).all():
        raise DataError("truth labels must be 0 or 1")
    return scores, truths.astype(np.int64)


def confusion(scores, truths, threshold: float = 0.5) -> ConfusionCounts:
    """Counts at a fixed threshold; positive means score >= threshold."""
    return _confusion(*_check_scores_truths(scores, truths), threshold)


def _confusion(scores: np.ndarray, truths: np.ndarray, threshold: float) -> ConfusionCounts:
    predicted = scores >= threshold
    actual = truths == 1
    return ConfusionCounts(
        tp=int(np.sum(predicted & actual)),
        tn=int(np.sum(~predicted & ~actual)),
        fp=int(np.sum(predicted & ~actual)),
        fn=int(np.sum(~predicted & actual)),
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den != 0 else 0.0


def scalar_metrics(counts: ConfusionCounts) -> ScalarMetrics:
    """The six threshold metrics; every zero-denominator case yields 0."""
    tp, tn, fp, fn = counts
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    mcc_den = math.sqrt(float(tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    return ScalarMetrics(
        accuracy=_ratio(tp + tn, counts.total),
        precision=precision,
        recall=recall,
        f1=_ratio(2.0 * precision * recall, precision + recall),
        fnr=_ratio(fn, fn + tp),
        mcc=_ratio(tp * tn - fp * fn, mcc_den),
    )


def roc_curve(scores, truths) -> list[tuple[float, float]]:
    """(FPR, TPR) points swept over the distinct score values, descending.

    Tied scores move together, so the curve is the exact step/diagonal
    polyline and its trapezoid area equals the pairwise ranking statistic
    with ties counted half.
    """
    fpr, tpr = _roc(*_check_scores_truths(scores, truths))
    return list(zip(fpr.tolist(), tpr.tolist()))


def _roc(scores: np.ndarray, truths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The FPR and TPR arrays of roc_curve, from checked inputs."""
    n_pos = int(truths.sum())
    n_neg = truths.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError(
            f"ROC needs both classes; got {n_pos} positives and {n_neg} negatives"
        )
    order = np.argsort(-scores, kind="stable")
    cum_tp = np.cumsum(truths[order])
    # last index of each run of equal scores = the whole tie group included
    boundary = np.nonzero(np.diff(scores[order]))[0]
    cut = np.append(boundary, scores.size - 1)
    tpr = cum_tp[cut] / n_pos
    fpr = (cut + 1 - cum_tp[cut]) / n_neg
    return np.append(0.0, fpr), np.append(0.0, tpr)


def roc_auc(scores, truths) -> float:
    """Trapezoid area under the ROC polyline."""
    fpr, tpr = _roc(*_check_scores_truths(scores, truths))
    return float(np.trapezoid(tpr, fpr))


@dataclass
class MetricsReport:
    """Everything eval produces for one score set at one threshold."""

    n: int
    threshold: float
    counts: ConfusionCounts
    metrics: ScalarMetrics
    auc: float
    roc: list[tuple[float, float]]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "threshold": self.threshold,
            "counts": {"tp": self.counts.tp, "tn": self.counts.tn, "fp": self.counts.fp, "fn": self.counts.fn},
            "metrics": {
                "accuracy": self.metrics.accuracy,
                "precision": self.metrics.precision,
                "recall": self.metrics.recall,
                "f1": self.metrics.f1,
                "fnr": self.metrics.fnr,
                "auc": self.auc,
                "mcc": self.metrics.mcc,
            },
        }

    def table(self, label: str = "model") -> str:
        return render_table([(label, self)])

    def roc_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["fpr", "tpr"])
            writer.writerows(self.roc)


TABLE_COLUMNS = ("Accuracy", "Precision", "Recall", "F-measure", "FNR", "AUC", "MCC")


def _report_row(r: MetricsReport) -> list[float]:
    m = r.metrics
    return [m.accuracy, m.precision, m.recall, m.f1, m.fnr, r.auc, m.mcc]


def render_table(rows: list[tuple[str, MetricsReport]]) -> str:
    """Aligned text table, one row per labeled report, values in percent."""
    if not rows:
        raise DataError("nothing to tabulate")
    label_width = max(len("Model"), max(len(label) for label, _ in rows))
    header = "Model".ljust(label_width) + "".join(f"{c:>11}" for c in TABLE_COLUMNS)
    lines = [header, "-" * len(header)]
    for label, rep in rows:
        cells = "".join(f"{100.0 * v:>10.2f}%" for v in _report_row(rep))
        lines.append(label.ljust(label_width) + cells)
    lines.append("(percent; zero-denominator metrics reported as 0)")
    return "\n".join(lines)


def report(scores, truths, threshold: float = 0.5) -> MetricsReport:
    """Full evaluation of one score vector against binary truths."""
    scores, truths = _check_scores_truths(scores, truths)
    counts = _confusion(scores, truths, threshold)
    fpr, tpr = _roc(scores, truths)  # raises if single-class
    return MetricsReport(
        n=scores.size,
        threshold=threshold,
        counts=counts,
        metrics=scalar_metrics(counts),
        auc=float(np.trapezoid(tpr, fpr)),
        roc=list(zip(fpr.tolist(), tpr.tolist())),
    )
