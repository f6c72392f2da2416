"""Recommender contract, non-personalized baselines, and top-N selection.

A fitted model exposes ``score_user(u)``: a dense score vector over every
artist in the training data, higher meaning more recommended.  Ranking ties
always break by ascending artist index, so a ranking depends on the scores
alone and reruns reproduce it exactly: it is NumPy's stable ``argsort`` of
the negated scores.

Evaluation reads only two things off that ranking: its first N entries
(``rank_candidates`` with ``n``) and the positions of the held-out artists
(``positive_ranks``).  Both are computed exactly without ordering every
candidate: the first by stably sorting only the candidates at or above the
N-th best score, the second from one sort of the score values.
"""

from __future__ import annotations

import abc

import numpy as np

from ..corpus import InteractionDataset
from ..errors import ValidationError


class RecommenderModel(abc.ABC):
    """Behavior contract shared by all models: fit once, then score any user."""

    model_type: str = "abstract"

    @abc.abstractmethod
    def fit(self, train: InteractionDataset) -> "RecommenderModel":
        """Train on the given dataset and return self."""

    @abc.abstractmethod
    def score_user(self, user: int) -> np.ndarray:
        """Dense float64 score vector over all artists for one user."""

    def _require_fitted(self):
        if getattr(self, "num_artists_", None) is None:
            raise ValidationError(f"{type(self).__name__} is not fitted")


class PopularityRecommender(RecommenderModel):
    """Scores every artist by train-set popularity, identically for all users.

    ``weighting="listeners"`` (default) counts distinct training users per
    artist, matching how phi is defined; ``weighting="plays"`` sums play
    counts instead.
    """

    model_type = "popularity"

    def __init__(self, weighting: str = "listeners"):
        if weighting not in ("listeners", "plays"):
            raise ValidationError(f"unknown popularity weighting {weighting!r}")
        self.weighting = weighting
        self.num_artists_ = None
        self.scores_ = None

    def fit(self, train: InteractionDataset):
        if self.weighting == "listeners":
            self.scores_ = train.counts.getnnz(axis=0).astype(np.float64)
        else:
            self.scores_ = np.asarray(train.counts.sum(axis=0)).ravel().astype(np.float64)
        self.num_artists_ = train.num_artists
        return self

    def score_user(self, user: int) -> np.ndarray:
        self._require_fitted()
        return self.scores_.copy()


class RandomRecommender(RecommenderModel):
    """Assigns each user an independent pseudo-random artist permutation.

    Scores are deterministic per (seed, user), so repeated calls agree
    exactly.
    """

    model_type = "random"

    def __init__(self, seed: int = 0):
        if seed < 0:
            raise ValidationError("seed must be a non-negative integer")
        self.seed = seed
        self.num_artists_ = None

    def fit(self, train: InteractionDataset):
        self.num_artists_ = train.num_artists
        return self

    def score_user(self, user: int) -> np.ndarray:
        self._require_fitted()
        rng = np.random.default_rng([self.seed, user])
        return rng.permutation(self.num_artists_).astype(np.float64)


def _candidate_mask(num_artists: int, exclude) -> np.ndarray:
    """True for every artist not in ``exclude``."""
    keep = np.ones(num_artists, dtype=bool)
    if exclude is not None:
        keep[np.asarray(exclude, dtype=np.int64)] = False
    return keep


def _negated(scores: np.ndarray, exclude) -> np.ndarray:
    """``-scores`` with every excluded artist set to NaN."""
    neg = np.negative(scores)
    if exclude is not None:
        neg[np.asarray(exclude, dtype=np.int64)] = np.nan
    return neg


def rank_candidates(scores: np.ndarray, exclude=None, n: int | None = None) -> np.ndarray:
    """Order artists by descending score, ascending index on ties.

    ``exclude`` (typically the user's training profile) is removed from the
    returned ordering entirely.  NaN scores rank last, -0.0 ties with 0.0.
    ``n >= 0`` keeps only the first ``n`` entries of that ordering; None keeps
    all, and a negative ``n`` raises ``ValidationError``.

    The ordering is one stable ``argsort`` of the negated scores: it puts NaN
    last, ties -0.0 with 0.0 and keeps equal scores in index order.  With
    ``n`` only a pool is sorted: the artists whose negated score is at most
    the ``n``-th smallest, which ``np.partition`` finds with the excluded
    artists set to NaN.  Every tie at that cut is in the pool and no excluded
    artist is, so the pool's first ``n`` are the first ``n`` of the full
    ordering.  The pool is every candidate when ``n`` is None, or when the
    ``n``-th value is NaN: then fewer than ``n`` candidates have a score.
    """
    if n is not None and n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    neg = _negated(np.asarray(scores, dtype=np.float64), exclude)
    kth = np.nan
    if n is not None and 0 < n <= len(neg):
        kth = np.partition(neg, n - 1)[n - 1]
    if np.isnan(kth):
        pool = np.flatnonzero(_candidate_mask(len(neg), exclude))
    else:
        pool = np.flatnonzero(neg <= kth)
    return pool[np.argsort(neg[pool], kind="stable")[:n]]


def positive_ranks(scores: np.ndarray, exclude, positives) -> tuple[np.ndarray, int]:
    """Positions of ``positives`` in ``rank_candidates(scores, exclude)``, and
    the candidate count, without ordering the candidates.

    ``positives`` are distinct artist indices; the positions come back in
    ascending order.  A positive's position is the number of candidates with
    a better score, found by one ``searchsorted`` into the sorted negated
    scores (``np.sort`` places NaN last, as the ranking does, and excluded
    artists count as NaN), plus the candidates tied with it at a lower artist
    index.  Raises ``ValidationError`` when a positive is not a candidate.
    """
    scores = np.asarray(scores, dtype=np.float64)
    keep = _candidate_mask(len(scores), exclude)
    positives = np.asarray(positives, dtype=np.int64)
    if not keep[positives].all():
        raise ValidationError("positives are not a subset of the candidates")
    neg = _negated(scores, exclude)
    needles = neg[positives]
    ranked = np.sort(neg)
    ranks = np.searchsorted(ranked, needles, side="left")
    tied = np.searchsorted(ranked, needles, side="right") - ranks > 1
    for i in np.flatnonzero(tied).tolist():
        p, value = positives[i], needles[i]
        before = neg[:p]
        ranks[i] += np.count_nonzero(np.isnan(before) & keep[:p] if np.isnan(value)
                                     else before == value)
    return np.sort(ranks), int(np.count_nonzero(keep))

