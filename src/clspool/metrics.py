"""Classification/regression metrics and cross-seed aggregation.

Degenerate-denominator conventions are pinned for determinism: F1 and MCC
return 0 when a denominator factor vanishes, Spearman returns 0 plus a flag
when either rank vector has zero variance. Seed aggregation uses the
population standard deviation (divide by n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "SeedAggregate",
    "accuracy",
    "f1_binary",
    "matthews_corr",
    "spearman_rho_flagged",
    "aggregate_seeds",
    "check_range",
]

_BOUNDS = {
    "accuracy": (0.0, 1.0),
    "f1": (0.0, 1.0),
    "mcc": (-1.0, 1.0),
    "spearman": (-1.0, 1.0),
}


@dataclass(frozen=True)
class SeedAggregate:
    mean: float
    std: float


def _check_lengths(preds: Sequence, labels: Sequence) -> int:
    if len(preds) != len(labels):
        raise ValueError(f"length mismatch: {len(preds)} preds vs {len(labels)} labels")
    if len(preds) == 0:
        raise ValueError("empty inputs")
    return len(preds)


def accuracy(preds: Sequence[int], labels: Sequence[int]) -> float:
    n = _check_lengths(preds, labels)
    return sum(1 for p, y in zip(preds, labels) if p == y) / n


def _confusion(preds: Sequence[int], labels: Sequence[int]) -> tuple[int, int, int, int]:
    """(tp, fp, fn, tn); a pair that is none of the first three counts as tn."""
    pairs = list(zip(preds, labels))
    tp, fp, fn = pairs.count((1, 1)), pairs.count((1, 0)), pairs.count((0, 1))
    return tp, fp, fn, len(pairs) - tp - fp - fn


def f1_binary(preds: Sequence[int], labels: Sequence[int]) -> float:
    """F1 of the positive class (label 1); 0 when precision + recall is 0."""
    _check_lengths(preds, labels)
    tp, fp, fn, _ = _confusion(preds, labels)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def matthews_corr(preds: Sequence[int], labels: Sequence[int]) -> float:
    """Matthews correlation coefficient; 0 when any denominator factor is 0."""
    _check_lengths(preds, labels)
    tp, fp, fn, tn = _confusion(preds, labels)
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(denom)


def _average_ranks(xs: Sequence[float]) -> list[float]:
    """Fractional ranks starting at 1; ties receive the average of their ranks."""
    n = len(xs)
    order = sorted(range(n), key=lambda i: xs[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        i = j + 1
    return ranks


def spearman_rho_flagged(x: Sequence[float], y: Sequence[float]) -> tuple[float, bool]:
    """(rho, degenerate): Pearson correlation of average ranks.

    When either rank vector has zero variance the correlation is undefined;
    the convention here is (0.0, True).
    """
    n = _check_lengths(x, y)
    if n < 2:
        raise ValueError("spearman_rho: need at least 2 points")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0.0 or vy == 0.0:
        return 0.0, True
    return cov / math.sqrt(vx * vy), False


def aggregate_seeds(values: Sequence[float]) -> SeedAggregate:
    """Mean and population standard deviation over per-seed metric values;
    one value is its own mean, with std 0.0."""
    if not values:
        raise ValueError("aggregate_seeds: need at least 1 value")
    vals = tuple(float(v) for v in values)
    mean = sum(vals) / len(vals)
    var = sum((v - mean) ** 2 for v in vals) / len(vals)
    return SeedAggregate(mean=mean, std=math.sqrt(var))


def check_range(metric: str, value: float) -> None:
    """Raise ValueError when a known metric's value is outside its range."""
    lo, hi = _BOUNDS.get(metric, (-math.inf, math.inf))
    if not lo - 1e-12 <= value <= hi + 1e-12:
        raise ValueError(f"{metric}={value} outside [{lo}, {hi}]")
