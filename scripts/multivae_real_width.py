"""Fit Multi-VAE for one epoch at the real catalogue width; print time and memory.

The data is the real-shape synthetic config cut to 192 users (the generator
needs a multiple of three), ``SyntheticConfig(192, 352805, 1.0, (100, 1070))``
with seed 11, split 0.2 with seed 12.  The fit uses the desk hyperparameters
(learning rate 0.3, the other values at their defaults: hidden 64, latent 16,
batches of 64, dropout keep 0.5) for one epoch, which is three full batches of
64 users over 352,805 artists.  No test fits a catalogue this wide.  Run it
from the repository root with popbias importable:

    PYTHONPATH=src python scripts/multivae_real_width.py

It prints one JSON line: the data and fit wall times, the mean time of a
batch and the process's peak RSS.
"""

import json
import resource
import time

from popbias.corpus import SyntheticConfig, generate_synthetic, split_mask
from popbias.models.multivae import MultiVaeRecommender


def main():
    start = time.perf_counter()
    config = SyntheticConfig(num_users=192, num_artists=352_805, zipf_exponent=1.0,
                             profile_size_range=(100, 1070))
    train = split_mask(generate_synthetic(config, seed=11), 0.2, seed=12).train
    data_s = time.perf_counter() - start
    model = MultiVaeRecommender(learning_rate=0.3, epochs=1)
    batches = -(-train.num_users // model.batch_size)
    start = time.perf_counter()
    model.fit(train)
    fit_s = time.perf_counter() - start
    print(json.dumps({
        "data_s": round(data_s, 2),
        "fit_s": round(fit_s, 2),
        "batches": batches,
        "batch_s": round(fit_s / batches, 3),
        "train_pairs": int(train.counts.nnz),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }))


if __name__ == "__main__":
    main()
