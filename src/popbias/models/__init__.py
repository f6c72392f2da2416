"""Recommender models: shared contract, baselines, and the three learners."""

from .base import (
    PopularityRecommender,
    RandomRecommender,
    RecommenderModel,
    positive_ranks,
    rank_candidates,
)
from .multivae import MultiVaeRecommender, kl_gaussian
from .slim import SlimRecommender
from .wrmf import WrmfRecommender, wrmf_objective

__all__ = [
    "MultiVaeRecommender",
    "PopularityRecommender",
    "RandomRecommender",
    "RecommenderModel",
    "SlimRecommender",
    "WrmfRecommender",
    "kl_gaussian",
    "positive_ranks",
    "rank_candidates",
    "wrmf_objective",
]
