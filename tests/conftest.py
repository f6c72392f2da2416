import codecs

import numpy as np
import pytest

from popbias.corpus import (
    InteractionDataset,
    SplitDataset,
    SyntheticConfig,
    compute_popularity,
    generate_synthetic,
    split_mask,
)
from popbias.models.base import RecommenderModel


def make_dataset(counts, groups=None):
    """Dataset from a dense count array with generated identifiers."""
    counts = np.asarray(counts)
    users = [f"u{i}" for i in range(counts.shape[0])]
    artists = [f"a{j:02d}" for j in range(counts.shape[1])]
    return InteractionDataset(users, artists, counts, groups)


def bom_copy(path):
    """A copy of ``path`` beside it, prefixed with a UTF-8 byte-order mark."""
    copy = path.with_name(f"bom-{path.name}")
    copy.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    return copy


def random_dataset(rng, num_users=None, num_artists=None, max_count=5):
    """Random dense-ish dataset where every user has a non-empty profile."""
    num_users = num_users or int(rng.integers(3, 12))
    num_artists = num_artists or int(rng.integers(4, 15))
    counts = np.zeros((num_users, num_artists), dtype=np.int64)
    for u in range(num_users):
        size = int(rng.integers(1, num_artists + 1))
        cols = rng.choice(num_artists, size=size, replace=False)
        counts[u, cols] = rng.integers(1, max_count + 1, size=size)
    return make_dataset(counts)


class OracleModel(RecommenderModel):
    """Scores each user's masked artists above everything else."""

    model_type = "oracle"

    def __init__(self, split: SplitDataset):
        self._split = split
        self.num_artists_ = split.train.num_artists

    def fit(self, train: InteractionDataset):
        return self

    def score_user(self, user: int) -> np.ndarray:
        scores = np.zeros(self.num_artists_)
        scores[self._split.masked[user]] = 1.0
        return scores


@pytest.fixture(scope="session")
def zipf_dataset():
    """Mid-size long-tail dataset shared by slower model tests."""
    config = SyntheticConfig(num_users=90, num_artists=300, profile_size_range=(5, 20))
    return generate_synthetic(config, seed=7)


@pytest.fixture(scope="session")
def zipf_split(zipf_dataset):
    return split_mask(zipf_dataset, 0.2, seed=3)


@pytest.fixture(scope="session")
def zipf_pop(zipf_dataset):
    return compute_popularity(zipf_dataset)
