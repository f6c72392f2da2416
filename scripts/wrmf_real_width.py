"""Check one WRMF item half-sweep at the real catalogue width against the reference.

The data is the real-shape synthetic config cut to 192 users (the generator
needs a multiple of three), ``SyntheticConfig(192, 352805, 1.0, (100, 1070))``
with seed 11, split 0.2 with seed 12, as in ``multivae_real_width.py``.  The
user factors are drawn as ``WrmfRecommender.fit`` draws them with the default
settings (32 factors, seed 0).  The library's ``_solve_rows`` then solves every
artist's factors once, with alpha 10, ridge 0.1 and linear confidence, and so
does the per-row solver of ``tests/wrmf_reference.py``.  Run it from the
repository root with popbias importable:

    PYTHONPATH=src python scripts/wrmf_real_width.py

It prints one JSON line: the data, library and reference wall times, the
number of artists solved and the process's peak RSS.  It exits 1 unless the
two factor matrices are byte-identical.
"""

import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from popbias.corpus import SyntheticConfig, generate_synthetic, split_mask
from popbias.models.wrmf import _confidences, _solve_rows

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from wrmf_reference import reference_solve_factors  # noqa: E402

ALPHA, RIDGE, FACTORS = 10.0, 0.1, 32


def main():
    start = time.perf_counter()
    config = SyntheticConfig(num_users=192, num_artists=352_805, zipf_exponent=1.0,
                             profile_size_range=(100, 1070))
    train = split_mask(generate_synthetic(config, seed=11), 0.2, seed=12).train
    counts_t = train.counts.T.tocsr()
    X = np.random.default_rng(0).uniform(-0.01, 0.01, size=(train.num_users, FACTORS))
    data_s = time.perf_counter() - start
    start = time.perf_counter()
    Y = _solve_rows(counts_t, X, RIDGE, *_confidences(counts_t, ALPHA, "linear"))
    library_s = time.perf_counter() - start
    start = time.perf_counter()
    want = reference_solve_factors(counts_t, X, ALPHA, RIDGE, "linear")
    reference_s = time.perf_counter() - start
    print(json.dumps({
        "data_s": round(data_s, 2),
        "library_s": round(library_s, 2),
        "reference_s": round(reference_s, 2),
        "rows_solved": int(np.count_nonzero(np.diff(counts_t.indptr))),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }))
    if Y.tobytes() != want.tobytes():
        print("the library's artist factors differ from the reference's", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
