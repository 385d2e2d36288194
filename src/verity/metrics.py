"""Binary classification metrics with Real as the positive class."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .verdict import Verdict


@dataclass
class MetricsReport:
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float

    @property
    def population(self) -> int:
        """Scored claims; a property, so ``asdict`` leaves it out."""
        return self.tp + self.fp + self.tn + self.fn


def compute_metrics(predictions: list[Verdict],
                    golds: list[Verdict]) -> MetricsReport:
    if len(predictions) != len(golds):
        raise ValidationError("predictions and golds differ in length")
    # (predicted Real, gold Real) per claim.
    pairs = [(pred == Verdict.REAL, gold == Verdict.REAL)
             for pred, gold in zip(predictions, golds)]
    tp, fp = pairs.count((True, True)), pairs.count((True, False))
    fn, tn = pairs.count((False, True)), pairs.count((False, False))
    total = tp + fp + tn + fn
    accuracy = (tp + tn) / total if total else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return MetricsReport(tp, fp, tn, fn, accuracy, precision, recall, f1)


def format_metrics(report: MetricsReport) -> str:
    lines = [f"{'metric':<12}{'value':>10}"]
    for name in ("accuracy", "precision", "recall", "f1"):
        lines.append(f"{name:<12}{getattr(report, name):>10.4f}")
    lines.append(f"{'tp/fp/tn/fn':<12}{report.tp}/{report.fp}/"
                 f"{report.tn}/{report.fn:>}")
    lines.append(f"{'population':<12}{report.population:>10}")
    return "\n".join(lines)
