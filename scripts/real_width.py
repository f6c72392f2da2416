"""Fit one learner at the real catalogue width and check what it computed.

Run it from the repository root with popbias importable, one learner a
process so that the peak RSS is that learner's alone:

    PYTHONPATH=src python scripts/real_width.py {slim,wrmf,multivae}

The data is the real-shape synthetic config cut to U users,
``SyntheticConfig(U, 352805, 1.0, (100, 1070))`` with seed 11, split 0.2 with
seed 12: 75 users for SLIM and 192 for WRMF and Multi-VAE (the generator needs
a multiple of three).  No test fits a catalogue this wide.  The script times
the learner's library step and reads the peak RSS straight after it, before
any reference runs.  It prints one JSON line, then runs the learner's check
and exits 1 on any mismatch:

- ``slim`` fits one sweep with the desk hyperparameters (l1 = 2, l2 = 5).  The
  train split and the weights must match the sha256 of their CSR ``data``,
  ``indices`` and ``indptr`` bytes and their dtypes, pinned before the split
  and the fit last changed.  SLIM calls no BLAS, so the digests should not
  depend on the machine.
- ``wrmf`` solves every artist's factors once with ``_solve_rows``, from user
  factors drawn as ``WrmfRecommender.fit`` draws them (32 factors, seed 0),
  with alpha 10, ridge 0.1 and linear confidence.  They must be byte-identical
  to those of ``tests/wrmf_reference.reference_solve_factors``.
- ``multivae`` fits one epoch with the desk hyperparameters (learning rate
  0.3, the others at their defaults): three batches of 64 users.  Every
  parameter and the loss curve must be byte-identical to those of
  ``tests/multivae_reference.reference_fit``.
"""

import hashlib
import inspect
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from popbias.corpus import SyntheticConfig, generate_synthetic, split_mask
from popbias.models.multivae import MultiVaeRecommender
from popbias.models.slim import SlimRecommender
from popbias.models.wrmf import _confidences, _solve_rows

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from multivae_reference import PARAM_KEYS, reference_fit  # noqa: E402
from wrmf_reference import reference_solve_factors  # noqa: E402

SLIM_PINNED = {
    "train": ("c89c735cc1a2b6289475e7708ed759b61b8be6cbf545884809afa671bb48e1fc",
              ("int64", "int32", "int32")),
    "weights": ("f62fa0dd7b963709c8fc98996e28fb6c4a2cd5808acc597d66bf11627ef69c5b",
                ("float64", "int32", "int32")),
}


def real_width_train(num_users):
    """The train split of the real-width instance with ``num_users`` users."""
    config = SyntheticConfig(num_users, 352_805, 1.0, (100, 1070))
    return split_mask(generate_synthetic(config, seed=11), 0.2, seed=12).train


def fingerprint(mat):
    """The sha256 of ``mat``'s data, indices and indptr bytes, and their dtypes."""
    parts = (mat.data, mat.indices, mat.indptr)
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.tobytes())
    return digest.hexdigest(), tuple(part.dtype.name for part in parts)


# Each learner is a generator over the train split.  It yields its library
# step, is sent that step's result, yields the counts for the JSON line and
# then yields one message per mismatch.

def slim(train):
    model = yield lambda: SlimRecommender(l1_penalty=2.0, l2_penalty=5.0, max_iters=1).fit(train)
    yield {"sweeps": model.sweeps_, "steps": model.steps_, "weights_nnz": int(model.weights_.nnz)}
    for name, mat in (("train", train.counts), ("weights", model.weights_)):
        found = fingerprint(mat)
        if found != SLIM_PINNED[name]:
            yield f"{name}: {found} differs from the pinned {SLIM_PINNED[name]}"


def wrmf(train):
    counts_t = train.counts.T.tocsr()
    X = np.random.default_rng(0).uniform(-0.01, 0.01, size=(train.num_users, 32))
    Y = yield lambda: _solve_rows(counts_t, X, 0.1, *_confidences(counts_t, 10.0, "linear"))
    yield {"rows_solved": int(np.count_nonzero(np.diff(counts_t.indptr)))}
    if Y.tobytes() != reference_solve_factors(counts_t, X, 10.0, 0.1, "linear").tobytes():
        yield "the library's artist factors differ from the reference's"


def multivae(train):
    model = yield lambda: MultiVaeRecommender(learning_rate=0.3, epochs=1).fit(train)
    yield {"batches": -(-train.num_users // model.batch_size), "loss": model.loss_curve_[0]}
    hyper = {name: getattr(model, name) for name in inspect.signature(reference_fit).parameters
             if name != "train"}
    params, loss_curve = reference_fit(train, **hyper)
    for key in PARAM_KEYS:
        if model.params_[key].tobytes() != params[key].tobytes():
            yield f"parameter {key} differs from the reference's"
    if np.array(model.loss_curve_).tobytes() != np.array(loss_curve).tobytes():
        yield f"loss curve {model.loss_curve_} differs from the reference's {loss_curve}"


LEARNERS = {"slim": (75, slim), "wrmf": (192, wrmf), "multivae": (192, multivae)}


def main(argv):
    if len(argv) != 1 or argv[0] not in LEARNERS:
        print(f"usage: real_width.py {{{','.join(LEARNERS)}}}", file=sys.stderr)
        return 2
    num_users, learner = LEARNERS[argv[0]]
    start = time.perf_counter()
    train = real_width_train(num_users)
    checks = learner(train)
    step = next(checks)
    data_s = time.perf_counter() - start
    start = time.perf_counter()
    result = step()
    library_s = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "data_s": round(data_s, 2),
        "library_s": round(library_s, 2),
        "train_pairs": int(train.counts.nnz),
        **checks.send(result),
        "peak_rss_mb": round(peak_kb / 1024, 1),
    }), flush=True)
    mismatches = list(checks)
    for message in mismatches:
        print(f"{argv[0]}: {message}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
