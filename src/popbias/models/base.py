"""Recommender contract, non-personalized baselines, and top-N selection.

A fitted model exposes ``score_user(u)``: a dense score vector over every
artist in the training data, higher meaning more recommended.  Ranking ties
always break by ascending artist index, so a ranking depends on the scores
alone and reruns reproduce it exactly.
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

    @property
    def is_fitted(self) -> bool:
        return getattr(self, "num_artists_", None) is not None

    def _require_fitted(self):
        if not self.is_fitted:
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


def rank_candidates(scores: np.ndarray, exclude=None) -> np.ndarray:
    """Order artists by descending score, ascending index on ties.

    ``exclude`` (typically the user's training profile) is removed from the
    returned ordering entirely.  NaN scores rank last, -0.0 ties with 0.0.

    The candidates are ordered by one unstable (SIMD) sort of the negated
    scores; when scores tie, one integer sort of ``run_start * n + position``
    then puts each run of equal scores back into ascending index order.
    """
    scores = np.asarray(scores, dtype=np.float64)
    keep = np.ones(len(scores), dtype=bool)
    if exclude is not None:
        keep[np.asarray(exclude, dtype=np.int64)] = False
    candidates = np.flatnonzero(keep)
    neg = -scores[candidates]
    n = len(neg)
    order = np.argsort(neg)
    ranked = neg[order]
    starts = np.empty(n, dtype=bool)  # does position i start a run of equal scores?
    starts[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    if n and np.isnan(ranked[-1]):
        # the sort puts NaNs last; they compare unequal but rank as one tied run
        starts[np.searchsorted(ranked, np.nan) + 1:] = False
    if not starts.all():
        run_start = np.where(starts, np.arange(n), 0)
        np.maximum.accumulate(run_start, out=run_start)
        run_start *= n
        order = np.sort(run_start + order)
        order -= run_start
    return candidates[order]


def recommend_top_n(
    model: RecommenderModel, train: InteractionDataset, user: int, n: int
) -> np.ndarray:
    """Top-n artists for a user after excluding their training profile.

    Returns fewer than n artists when fewer candidates exist.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if not 0 <= user < train.num_users:
        raise ValidationError(f"user index {user} out of range")
    scores = model.score_user(user)
    ordering = rank_candidates(scores, exclude=train.profile(user))
    return ordering[:n].copy()  # a view would keep the whole ordering alive
