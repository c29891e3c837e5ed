"""Weighted P/R/F1, per-expression accuracy strata, and Fleiss' kappa.

All scores are percentages; callers format to one decimal for display.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Expression, ToxiSample


class MetricsError(ValueError):
    """Empty input, shape mismatch, or a degenerate rating matrix.

    ``item`` is the index of the rating-matrix row at fault when the error
    is about one row, else None.
    """

    def __init__(self, message: str, item: int | None = None):
        super().__init__(message)
        self.item = item


@dataclass(frozen=True)
class PRF:
    precision: float  # percent
    recall: float
    f1: float
    support: tuple[int, ...]
    zero_division_hits: int  # classes whose precision was forced to 0


@dataclass(frozen=True)
class StratumAccuracy:
    correct: int
    total: int

    @property
    def accuracy(self) -> float:
        return 100.0 * self.correct / self.total


@dataclass(frozen=True)
class RatingMatrix:
    """N items × k categories; cell = raters who chose that category."""

    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.counts:
            raise MetricsError("empty rating matrix")
        width, raters = len(self.counts[0]), self.raters
        for item, row in enumerate(self.counts):
            if len(row) != width:
                raise MetricsError("rating matrix rows must share a width of ≥ 2 categories", item)
            if sum(row) != raters:
                raise MetricsError("every item must be rated by the same number of raters", item)
            if any(cell < 0 for cell in row):
                raise MetricsError("negative rating count", item)
        if width < 2:
            raise MetricsError("rating matrix rows must share a width of ≥ 2 categories")
        if raters > 2**53:  # counts are scored as float64
            raise MetricsError("more than 2**53 raters per item")
        if raters < 2:
            raise MetricsError("need at least 2 raters per item")

    @property
    def raters(self) -> int:
        return sum(self.counts[0])


def weighted_prf(
    preds: Sequence, golds: Sequence, n_classes: int, mode: str = "single"
) -> PRF:
    """Support-weighted precision/recall/F1 in percent.

    mode="single": preds/golds are class indices, scored as one-hot rows.
    mode="multilabel": rows of 0/1 flags.  Each label is scored as its own
    binary problem and weighted by its positive support.  Classes with
    zero predicted positives contribute precision 0 (counted in
    zero_division_hits).
    """
    if len(preds) == 0 or len(preds) != len(golds):
        raise MetricsError(f"need equal, non-empty inputs, got {len(preds)}/{len(golds)}")
    if mode not in ("single", "multilabel"):
        raise MetricsError(f"unknown mode {mode!r}")

    if mode == "single":
        p = np.asarray(preds, dtype=np.int64)
        g = np.asarray(golds, dtype=np.int64)
        if p.min() < 0 or p.max() >= n_classes or g.min() < 0 or g.max() >= n_classes:
            raise MetricsError("label out of range")
        onehot = np.eye(n_classes)
        preds, golds = onehot[p], onehot[g]

    p = np.asarray(preds, dtype=np.float64).reshape(len(preds), -1)
    g = np.asarray(golds, dtype=np.float64).reshape(len(golds), -1)
    if p.shape[1] != n_classes or g.shape[1] != n_classes:
        raise MetricsError(f"multilabel rows must have width {n_classes}")
    tp = ((p == 1) & (g == 1)).sum(axis=0)
    fp = ((p == 1) & (g == 0)).sum(axis=0)
    fn = ((p == 0) & (g == 1)).sum(axis=0)
    support, predicted = tp + fn, tp + fp
    total = int(support.sum())
    if total == 0:
        raise MetricsError("no gold support in any class")
    precision = np.divide(tp, predicted, out=np.zeros(n_classes), where=predicted > 0)
    recall = np.divide(tp, support, out=np.zeros(n_classes), where=support > 0)
    both = precision + recall
    f1 = np.divide(2 * precision * recall, both, out=np.zeros(n_classes), where=both > 0)
    # Python's sum adds the classes left to right; NumPy's is pairwise from 8 terms on
    avg = [100.0 * sum((metric * support).tolist()) / total for metric in (precision, recall, f1)]
    return PRF(
        precision=avg[0],
        recall=avg[1],
        f1=avg[2],
        support=tuple(support.tolist()),
        zero_division_hits=int((predicted == 0).sum()),
    )


NON_TOXIC_STRATUM = "non_toxic"


def expression_accuracy_breakdown(
    preds: Sequence[int], golds: Sequence[ToxiSample]
) -> dict[str, StratumAccuracy]:
    """Binary toxic-prediction accuracy per gold expression stratum.

    Strata partition the whole test set: non-toxic samples form one
    stratum, hate samples bucket by their expression, and offensive
    samples land in the explicit stratum (their expression is explicit
    by definition).  toxic strata count pred=1 as correct; empty strata
    are omitted rather than reported as zero.
    """
    if len(preds) != len(golds) or not golds:
        raise MetricsError("preds and gold samples must align and be non-empty")
    tallies: dict[str, list[int]] = {}
    for pred, sample in zip(preds, golds):
        if sample.toxic == 0:
            stratum = NON_TOXIC_STRATUM
            correct = pred == 0
        else:
            expr = sample.expression if sample.expression is not None else Expression.EXPLICIT
            stratum = expr.value
            correct = pred == 1
        bucket = tallies.setdefault(stratum, [0, 0])
        bucket[0] += int(correct)
        bucket[1] += 1
    return {name: StratumAccuracy(correct=c, total=t) for name, (c, t) in tallies.items()}


def fleiss_kappa(matrix: RatingMatrix | Sequence[Sequence[int]]) -> float:
    """κ = (P̄ − P̄e) / (1 − P̄e) over an items × categories count matrix.

    Exactly 1.0 under perfect agreement (unanimity makes the ratio x/x).
    A degenerate chance term (P̄e = 1) means every rating fell in one
    category; that is perfect agreement, so 1.0 — anything else with
    P̄e = 1 is impossible, but guarded as an error.
    """
    if not isinstance(matrix, RatingMatrix):
        matrix = RatingMatrix(counts=tuple(tuple(int(c) for c in row) for row in matrix))
    counts = np.asarray(matrix.counts, dtype=np.float64)
    n_items, _ = counts.shape
    r = matrix.raters

    p_agree = ((counts * counts).sum(axis=1) - r) / (r * (r - 1))
    p_bar = float(p_agree.sum() / n_items)
    shares = counts.sum(axis=0) / (n_items * r)
    p_chance = float((shares * shares).sum())
    if p_chance == 1.0:
        if p_bar == 1.0:
            return 1.0
        raise MetricsError("degenerate rating matrix: chance agreement is 1")
    return (p_bar - p_chance) / (1.0 - p_chance)
