"""Fit SLIM for one sweep at the real catalogue width; print time and memory.

The data is the real-shape synthetic config cut to 75 users,
``SyntheticConfig(75, 352805, 1.0, (100, 1070))`` with seed 11, split 0.2 with
seed 12.  The fit uses the desk hyperparameters (l1 = 2, l2 = 5).  At this
width the pattern indices are int32, a run holds at most two coordinates and
the rank-1 updates go in chunks; no test fits a catalogue this wide.  Run it
from the repository root with popbias importable:

    PYTHONPATH=src python scripts/slim_real_width.py

It prints one JSON line: the data and fit wall times, the solver's counts and
the process's peak RSS.
"""

import json
import resource
import time

from popbias.corpus import SyntheticConfig, generate_synthetic, split_mask
from popbias.models.slim import SlimRecommender


def main():
    start = time.perf_counter()
    config = SyntheticConfig(num_users=75, num_artists=352_805, zipf_exponent=1.0,
                             profile_size_range=(100, 1070))
    train = split_mask(generate_synthetic(config, seed=11), 0.2, seed=12).train
    data_s = time.perf_counter() - start
    start = time.perf_counter()
    model = SlimRecommender(l1_penalty=2.0, l2_penalty=5.0, max_iters=1).fit(train)
    fit_s = time.perf_counter() - start
    print(json.dumps({
        "data_s": round(data_s, 2),
        "fit_s": round(fit_s, 2),
        "train_pairs": int(train.counts.nnz),
        "sweeps": model.sweeps_,
        "steps": model.steps_,
        "weights_nnz": int(model.weights_.nnz),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }))


if __name__ == "__main__":
    main()
