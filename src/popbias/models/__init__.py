"""Recommender models: shared contract, baselines, and the three learners."""

from .base import (
    PopularityRecommender,
    RandomRecommender,
    RecommenderModel,
    positive_ranks,
    rank_candidates,
    recommend_top_n,
)
from .multivae import MultiVaeRecommender, elbo_loss, gradient, kl_gaussian
from .slim import SlimRecommender
from .wrmf import WrmfRecommender, solve_factors, wrmf_objective

__all__ = [
    "MultiVaeRecommender",
    "PopularityRecommender",
    "RandomRecommender",
    "RecommenderModel",
    "SlimRecommender",
    "WrmfRecommender",
    "elbo_loss",
    "gradient",
    "kl_gaussian",
    "positive_ranks",
    "rank_candidates",
    "recommend_top_n",
    "solve_factors",
    "wrmf_objective",
]
