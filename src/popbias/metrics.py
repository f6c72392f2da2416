"""Ranking accuracy (AUC, AP@K) and popularity-lift (GAP) measurements.

All functions here are pure; the experiment harness owns aggregation across
users and groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UndefinedMetricError, ValidationError


@dataclass(eq=False)
class RankedCandidates:
    """A best-to-worst ordering of candidate artists plus the held-out positives.

    ``ordering`` is a permutation of the candidate artist indices (the user's
    training-profile artists must already have been excluded upstream);
    ``positives`` are the masked artists and must be a subset of the ordering.
    """

    ordering: np.ndarray
    positives: np.ndarray
    _positive_mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.ordering = np.asarray(self.ordering, dtype=np.int64)
        self.positives = np.asarray(sorted(set(np.asarray(self.positives).tolist())), dtype=np.int64)
        seen = set(self.ordering.tolist())
        if len(seen) != len(self.ordering):
            raise ValidationError("candidate ordering contains duplicates")
        if not set(self.positives.tolist()) <= seen:
            raise ValidationError("positives are not a subset of the candidates")
        self._positive_mask = np.isin(self.ordering, self.positives)

    @property
    def num_positives(self) -> int:
        return len(self.positives)

    @property
    def num_negatives(self) -> int:
        return len(self.ordering) - len(self.positives)


def _require_pos_and_neg(ranked: RankedCandidates, metric: str):
    if ranked.num_positives == 0:
        raise UndefinedMetricError(f"{metric} undefined: no positives among candidates")
    if ranked.num_negatives == 0:
        raise UndefinedMetricError(f"{metric} undefined: no negatives among candidates")


def auc(ranked: RankedCandidates) -> float:
    """Probability that a random positive outranks a random negative.

    Equal to the fraction of (positive, negative) pairs ranked concordantly,
    i.e. the area under the ROC step curve of the ranking.
    """
    _require_pos_and_neg(ranked, "AUC")
    p = ranked.num_positives
    n = ranked.num_negatives
    pos_ranks = np.flatnonzero(ranked._positive_mask)
    # concordant pairs = sum over positives of negatives ranked below them
    concordant = p * n + p * (p - 1) // 2 - int(pos_ranks.sum())
    return concordant / (p * n)


def average_precision_at_k(ranked: RankedCandidates, k: int) -> float:
    """AP@K: mean precision at the ranks of positives within the top K.

    Normalized by min(K, number of positives) so the score stays in [0, 1].
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    _require_pos_and_neg(ranked, "AP@K")
    mask = ranked._positive_mask[:k].tolist()
    hits = 0
    total = 0.0
    for rank0, is_pos in enumerate(mask):
        if is_pos:
            hits += 1
            total += hits / (rank0 + 1)
    return total / min(k, ranked.num_positives)


def gap(profiles, phi: np.ndarray) -> float:
    """Group Average Popularity: mean over users of their mean artist phi.

    ``profiles`` is an iterable of per-user artist index sequences or arrays
    and ``phi`` the per-artist popularity; the same function serves both
    profile inputs (GAP over what users listen to) and recommendation outputs
    (GAP over what they are recommended).
    """
    rows = [np.asarray(prof) for prof in profiles]  # no dtype: an int32 CSR row stays a view
    if not rows:
        raise ValidationError("GAP undefined for an empty user group")
    lengths = np.array([row.size for row in rows])
    flat = np.concatenate(rows)
    outside = np.flatnonzero((flat < 0) | (flat >= len(phi)))
    first_outside = np.cumsum(lengths).searchsorted(outside[:1], "right").min(initial=len(rows))
    if not lengths[:first_outside].all():  # the first faulty user raises
        raise ValidationError("GAP undefined for an empty user artist set")
    if len(outside):
        raise ValidationError("artist index outside the popularity table")
    return float(np.mean(row_means(phi[flat], lengths)))


def row_means(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The mean of each run of ``lengths[i]`` (>= 1) consecutive ``values``, as np.mean takes it."""
    starts = np.cumsum(lengths)
    starts -= lengths  # in place: one array of run starts, not two
    means = np.empty(len(lengths))
    for length in np.unique(lengths).tolist():
        # the runs of one length are the rows of one C-contiguous array, whose .mean(axis=1)
        # sums each row as np.mean sums it alone; np.add.reduceat sums in another order
        at = np.flatnonzero(lengths == length)
        means[at] = values[starts[at, None] + np.arange(length)].mean(axis=1)
    return means


def delta_gap(gap_p: float, gap_r: float) -> float:
    """Popularity lift of recommendations over profiles: (GAP_r - GAP_p) / GAP_p."""
    if not gap_p > 0:
        raise ValidationError(f"delta GAP requires GAP_p > 0, got {gap_p}")
    return (gap_r - gap_p) / gap_p


def mean_with_stderr(values) -> tuple[float, float | None]:
    """Mean and standard error (sample std over sqrt(n)); stderr None for n < 2."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValidationError("mean of an empty sequence is undefined")
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, None
    stderr = float(arr.std(ddof=1) / math.sqrt(arr.size))
    return mean, stderr
