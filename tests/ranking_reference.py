"""Reference ranking and per-user evaluation: a two-key lexsort plus RankedCandidates.

This is the original evaluation path.  The library ranks with one unstable
sort and reads AUC and AP@K off the positions of the positives; it must
reproduce these orderings, per-user AUC bytes and mean AP@K exactly, and the
tests compare the two.
"""

import math

import numpy as np

from popbias.metrics import RankedCandidates, auc, average_precision_at_k


def rank_candidates(scores, exclude=None):
    """Descending score, ascending index on ties, ``exclude`` removed."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.lexsort((np.arange(len(scores)), -scores))
    if exclude is not None and len(exclude):
        drop = np.zeros(len(scores), dtype=bool)
        drop[np.asarray(exclude, dtype=np.int64)] = True
        order = order[~drop[order]]
    return order


def evaluate_users(model, split, top_n):
    """Per-user AUC (NaN when skipped) and top-N lists, user by user."""
    aucs, tops = [], []
    for u in range(split.train.num_users):
        ordering = rank_candidates(model.score_user(u), exclude=split.train.profile(u))
        tops.append(ordering[:top_n])
        positives = split.masked[u]
        if len(positives) == 0 or len(ordering) - len(positives) == 0:
            aucs.append(math.nan)
        else:
            aucs.append(auc(RankedCandidates(ordering, positives)))
    return np.array(aucs), tops


def mean_ap(model, split, k):
    """Mean AP@K over users with an evaluable holdout, or None."""
    values = []
    for u in range(split.train.num_users):
        positives = split.masked[u]
        if len(positives) == 0:
            continue
        ordering = rank_candidates(model.score_user(u), exclude=split.train.profile(u))
        if len(ordering) - len(positives) == 0:
            continue
        values.append(average_precision_at_k(RankedCandidates(ordering, positives), k))
    if not values:
        return None
    return float(np.mean(values))
