"""Fit SLIM for one sweep at the real catalogue width; check it, print time and memory.

The data is the real-shape synthetic config cut to 75 users,
``SyntheticConfig(75, 352805, 1.0, (100, 1070))`` with seed 11, split 0.2 with
seed 12.  The fit uses the desk hyperparameters (l1 = 2, l2 = 5).  At this
width the pattern indices are int32, a run holds at most two coordinates and
the rank-1 updates go in chunks; no test fits a catalogue this wide.  Run it
from the repository root with popbias importable:

    PYTHONPATH=src python scripts/slim_real_width.py

It prints one JSON line: the data and fit wall times, the solver's counts and
the process's peak RSS.  It then checks the train split and the weights
against the sha256 of their CSR ``data``, ``indices`` and ``indptr`` bytes and
their dtypes, pinned before the split and the fit last changed, and exits 1
on a mismatch.  SLIM calls no BLAS, so the digests should not depend on the
machine.
"""

import hashlib
import json
import resource
import sys
import time

from popbias.corpus import SyntheticConfig, generate_synthetic, split_mask
from popbias.models.slim import SlimRecommender

PINNED = {
    "train": ("c89c735cc1a2b6289475e7708ed759b61b8be6cbf545884809afa671bb48e1fc",
              ("int64", "int32", "int32")),
    "weights": ("f62fa0dd7b963709c8fc98996e28fb6c4a2cd5808acc597d66bf11627ef69c5b",
                ("float64", "int32", "int32")),
}


def fingerprint(mat):
    """The sha256 of ``mat``'s data, indices and indptr bytes, and their dtypes."""
    parts = (mat.data, mat.indices, mat.indptr)
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.tobytes())
    return digest.hexdigest(), tuple(part.dtype.name for part in parts)


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
    status = 0
    for name, mat in (("train", train.counts), ("weights", model.weights_)):
        found = fingerprint(mat)
        if found != PINNED[name]:
            print(f"{name}: {found} differs from the pinned {PINNED[name]}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
