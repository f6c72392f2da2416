"""Interaction data: loading, popularity, grouping, splitting, synthesis, long-tail plots.

The central object is :class:`InteractionDataset`, a sparse user-by-artist
play-count matrix with stable identifier maps.  Everything downstream (models,
metrics, the experiment harness) works on artist/user *indices* into that
matrix; external identifiers only matter at the file boundary, which is
:func:`read_lines` and :func:`write_lines` for every file popbias touches.
:func:`ingest_interactions` builds a dataset in one pass over its file, so
the first fault in file order is the one raised, naming its line.
"""

from __future__ import annotations

import math
import os
import resource
import sys
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import NumericalError, ParseError, ValidationError

GROUP_LABELS = ("low", "medium", "high")
GROUP_HEADER_LABELS = ("group", "label")  # a groups file's header names its label column

# Fractions at which coverage curves are sampled: 1% plus every 5% step.
COVERAGE_FRACTIONS = (0.01,) + tuple(round(0.05 * i, 2) for i in range(1, 21))

# Counts are stored as int64; a summed count above this cannot be.
_MAX_COUNT = int(np.iinfo(np.int64).max)
_MAX_COUNT_DIGITS = len(str(_MAX_COUNT))


class InteractionDataset:
    """User-by-artist play counts with identifier maps and optional user groups.

    ``counts`` is CSR with int64 data.  Invariants enforced at construction:
    stored entries are >= 1 (zeros are dropped, never stored), every user row
    has at least one entry, and identifier lists contain no duplicates.
    """

    def __init__(self, users, artists, counts, group_labels=None):
        self.users = list(users)
        self.artists = list(artists)
        counts = sp.csr_matrix(counts, dtype=np.int64, copy=True)
        counts.eliminate_zeros()
        counts.sort_indices()
        self.counts = counts
        self.group_labels = list(group_labels) if group_labels is not None else None
        self._validate()

    def _validate(self):
        nu, na = self.counts.shape
        if nu != len(self.users) or na != len(self.artists):
            raise ValidationError(
                f"matrix shape {self.counts.shape} does not match "
                f"{len(self.users)} users x {len(self.artists)} artists"
            )
        if len(set(self.users)) != len(self.users):
            raise ValidationError("duplicate user identifiers")
        if len(set(self.artists)) != len(self.artists):
            raise ValidationError("duplicate artist identifiers")
        if self.counts.nnz and self.counts.data.min() < 1:
            raise ValidationError("play counts must be >= 1")
        row_sizes = np.diff(self.counts.indptr)
        if len(self.users) and row_sizes.min() < 1:
            empty = int(np.argmin(row_sizes))
            raise ValidationError(f"user {self.users[empty]!r} has an empty profile")
        if self.group_labels is not None:
            if len(self.group_labels) != len(self.users):
                raise ValidationError("group labels do not cover every user")
            bad = set(self.group_labels) - set(GROUP_LABELS)
            if bad:
                raise ValidationError(f"unknown group labels: {sorted(bad)}")

    @property
    def num_users(self) -> int:
        return len(self.users)

    @property
    def num_artists(self) -> int:
        return len(self.artists)

    @property
    def num_pairs(self) -> int:
        return int(self.counts.nnz)

    def profile(self, user: int) -> np.ndarray:
        """Artist indices the user has listened to, ascending."""
        lo, hi = self.counts.indptr[user], self.counts.indptr[user + 1]
        return self.counts.indices[lo:hi]

    def __eq__(self, other):
        if not isinstance(other, InteractionDataset):
            return NotImplemented
        return (
            self.users == other.users
            and self.artists == other.artists
            and self.group_labels == other.group_labels
            and self.counts.shape == other.counts.shape
            and (self.counts != other.counts).nnz == 0
        )


@dataclass
class SplitDataset:
    """A train/holdout partition of each user's profile.

    ``masked[u]`` holds the artist indices hidden from user ``u``'s row; the
    train dataset keeps everything else.  For every user the masked set and
    the train profile are disjoint and their union is the original profile.
    """

    train: InteractionDataset
    masked: list[np.ndarray]


@dataclass
class TailStats:
    """Summary of how concentrated interactions are among popular artists."""

    coverage_curve: list[tuple[float, float]]

    def coverage_at(self, fraction: float) -> float:
        for f, c in self.coverage_curve:
            if abs(f - fraction) < 1e-9:
                return c
        raise ValidationError(f"coverage curve not sampled at fraction {fraction}")

    def coverage_lines(self) -> list[str]:
        """The (fraction_of_artists, fraction_of_interactions) pairs as TSV lines."""
        return (["# fraction_of_artists\tfraction_of_interactions"]
                + [f"{f:.6f}\t{c:.6f}" for f, c in self.coverage_curve])


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the synthetic long-tail interaction generator.

    ``mainstream_mix`` gives the per-group sampling bias (low, medium, high):
    a user's artist-sampling weight is base_popularity ** bias, so larger
    values concentrate profiles on popular artists.  A config with a bad
    value raises ``ValidationError`` when it is built.
    """

    num_users: int
    num_artists: int
    zipf_exponent: float = 1.0
    profile_size_range: tuple[int, int] = (10, 40)
    mainstream_mix: tuple[float, float, float] = (0.3, 1.0, 2.2)
    count_geometric_p: float = 0.5

    def __post_init__(self):
        if self.num_users < 1 or self.num_artists < 1:
            raise ValidationError("num_users and num_artists must be >= 1")
        if self.num_users % 3 != 0:
            raise ValidationError("num_users must be divisible by 3 (three groups)")
        if not self.zipf_exponent > 0:
            raise ValidationError("zipf_exponent must be > 0")
        lo, hi = self.profile_size_range
        if not (1 <= lo <= hi <= self.num_artists):
            raise ValidationError(
                f"profile_size_range {self.profile_size_range} must satisfy "
                f"1 <= lo <= hi <= num_artists"
            )
        if len(self.mainstream_mix) != 3 or not all(
            math.isfinite(b) and b >= 0 for b in self.mainstream_mix
        ):
            raise ValidationError("mainstream_mix must be three finite non-negative biases")
        if not 0 < self.count_geometric_p <= 1:
            raise ValidationError("count_geometric_p must be in (0, 1]")


def require_memory(nbytes: int, what: str) -> None:
    """Raise ``NumericalError`` when ``nbytes`` exceed the process's memory budget.

    The budget is the smallest of physical memory and the finite soft limits
    ``RLIMIT_AS`` and ``RLIMIT_DATA``, and the message names the one that
    binds.  Callers pass the bytes of the arrays they are about to allocate
    (the synthetic generator, each learner's state), so a request that
    cannot fit fails with a message instead of NumPy's ``MemoryError`` or
    the kernel's out-of-memory killer.
    """
    budget = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    limit = "physical memory"
    for name in ("RLIMIT_AS", "RLIMIT_DATA"):
        soft, _ = resource.getrlimit(getattr(resource, name))
        if soft != resource.RLIM_INFINITY and soft < budget:
            budget, limit = soft, f"the {name} soft limit"
    if nbytes > budget:
        raise NumericalError(
            f"{what} needs {nbytes:,} bytes, more than the {budget:,} bytes of {limit}"
        )


def _user_rng(seed: int, user: int) -> np.random.Generator:
    # Per-user stream keyed by (seed, user) so results never depend on the
    # order users are processed in.
    return np.random.default_rng([seed, user])


def read_lines(path, newline=None):
    """Yield the lines of a UTF-8 text file, each with its line ending.

    A leading byte-order mark is dropped.  ``newline`` is passed to ``open``.
    An unreadable file raises ``ValidationError`` and one that is not UTF-8
    raises ``ParseError``; both name the path.  Every input popbias reads goes
    through here.
    """
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            yield from fh
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # exc.start counts from the decoded chunk, not the file, so it is left out
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def write_lines(files) -> tuple[Path, ...]:
    """Write each ``{path: lines}`` entry as UTF-8 text, a newline after each line.

    Returns the paths in the mapping's order.  A target that is a directory
    is rejected before anything is written.  Each file is written to
    ``<name>.tmp`` beside its target, creating the parent directory when
    missing, and ``os.replace`` moves the temporary files into place only
    once all are written.  So a failed write leaves every target as it was;
    should a move still fail, the files moved before it stay replaced.  A
    failure of any kind leaves no temporary file.  A path that cannot be
    written raises ``ValidationError`` naming it.  Every file popbias writes
    goes through here.
    """
    paths = tuple(Path(path) for path in files)
    temps = []
    try:
        for path in paths:
            if path.is_dir():
                raise ValidationError(f"cannot write {path}: it is a directory")
        for path, lines in zip(paths, files.values()):
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f"{path.name}.tmp")
            with open(tmp, "w", encoding="utf-8") as fh:
                temps.append(tmp)
                fh.writelines(f"{line}\n" for line in lines)
        for path, tmp in zip(paths, temps):
            os.replace(tmp, path)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)
    return paths


def check_writable_dir(path) -> None:
    """Raise ``ValidationError`` unless ``write_lines`` can create files in ``path``.

    The nearest existing ancestor (``path`` itself when it exists) must be a
    writable directory.  Nothing is created, so a long run can check its
    output directory first and still leave nothing behind when it fails.
    """
    path = Path(path)
    try:
        ancestor = next(p for p in (path, *path.parents) if p.exists())
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc
    if not ancestor.is_dir():
        raise ValidationError(f"cannot write {path}: {ancestor} is not a directory")
    if not os.access(ancestor, os.W_OK | os.X_OK):
        raise ValidationError(f"cannot write {path}: {ancestor} is not writable")


def _tsv_rows(path, width: int, is_header):
    """Yield ``(lineno, fields)`` for each data line of a tab-separated file.

    Blank lines and lines starting with ``#`` are skipped; every other line
    must hold exactly ``width`` fields.  The first such line is a header, and
    skipped, when ``is_header(fields)`` holds.
    """
    header_checked = False
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != width:
            raise ParseError(
                f"{path}: line {lineno}: expected {width} tab-separated fields, "
                f"got {len(fields)}"
            )
        if not header_checked:
            header_checked = True
            if is_header(fields):
                continue
        yield lineno, fields


def _require_ascii(text: str) -> str:
    if not text.isascii() or "_" in text:  # int() and float() read "٣" and "1_0" too
        raise ValueError(f"{text!r} is not an ASCII number")
    return text


def ascii_int(text: str) -> int:
    """``int(text)`` for text that is ASCII and holds no ``_``, else ``ValueError``."""
    return int(_require_ascii(text))


def ascii_float(text: str) -> float:
    """``float(text)`` for text that is ASCII and holds no ``_``, else ``ValueError``."""
    return float(_require_ascii(text))


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def ingest_interactions(path, group_path=None) -> InteractionDataset:
    """Load a tab-separated ``user\\tartist\\tcount`` file in one pass.

    Lines starting with ``#`` and blank lines are skipped.  The first data
    line is a header, and skipped, when its count field is not a number at all
    (``count``, not ``3.5``).  A count is ASCII digits, and one with more digits
    than ``2**63 - 1`` is rejected by its digit count.  Duplicate (user, artist)
    records are summed, and a sum that int64 cannot hold is rejected at its
    line.  Identifier maps are sorted, so the same records in any order give
    equal datasets.  When ``group_path`` is given it must assign one of
    low/medium/high to every user in the interactions file.  The pair keys
    share one string per distinct identifier, not one per line.
    """
    by_pair: dict[tuple[str, str], int] = {}
    names: dict[str, str] = {}
    records = _tsv_rows(path, 3, lambda fields: not _is_number(fields[2]))
    for lineno, (user_id, artist_id, count_str) in records:
        if not (count_str.isascii() and count_str.isdigit()):
            raise ParseError(f"{path}: line {lineno}: count {count_str!r} is not an integer")
        digits = count_str.lstrip("0")
        if len(digits) > _MAX_COUNT_DIGITS:
            raise ValidationError(
                f"{path}: line {lineno}: play count of {len(digits)} digits for user "
                f"{user_id!r}, artist {artist_id!r} exceeds {_MAX_COUNT}"
            )
        count = int(digits or "0")
        if count < 1:
            raise ValidationError(f"{path}: line {lineno}: count {count} < 1")
        key = (names.setdefault(user_id, user_id), names.setdefault(artist_id, artist_id))
        total = by_pair.get(key, 0) + count
        if total > _MAX_COUNT:
            raise ValidationError(
                f"{path}: line {lineno}: play count {total} for user {user_id!r}, "
                f"artist {artist_id!r} exceeds {_MAX_COUNT}"
            )
        by_pair[key] = total
    if not by_pair:
        raise ValidationError(f"{path}: no interaction records")
    users = sorted({u for u, _ in by_pair})
    artists = sorted({a for _, a in by_pair})
    uidx = {u: i for i, u in enumerate(users)}
    aidx = {a: i for i, a in enumerate(artists)}
    rows = np.fromiter((uidx[u] for u, _ in by_pair), dtype=np.int64, count=len(by_pair))
    cols = np.fromiter((aidx[a] for _, a in by_pair), dtype=np.int64, count=len(by_pair))
    vals = np.fromiter(by_pair.values(), dtype=np.int64, count=len(by_pair))
    counts = sp.coo_matrix((vals, (rows, cols)), shape=(len(users), len(artists)))
    labels = None
    if group_path is not None:
        groups = read_group_file(group_path)
        unknown = set(groups) - set(users)
        if unknown:
            raise ValidationError(
                f"{group_path}: group file references unknown user(s): {sorted(unknown)[:5]}"
            )
        missing = set(users) - set(groups)
        if missing:
            raise ValidationError(
                f"{group_path}: group file missing label for user(s): {sorted(missing)[:5]}"
            )
        labels = [groups[u] for u in users]
    return InteractionDataset(users, artists, counts.tocsr(), labels)


def read_group_file(path) -> dict[str, str]:
    """Load ``user\\tlabel`` lines mapping users to low/medium/high.

    The first data line is a header, and skipped, only when its label field
    is a column name (``group`` or ``label``, in any case); any other unknown
    label is an error wherever it appears.
    """
    groups: dict[str, str] = {}
    records = _tsv_rows(path, 2, lambda fields: fields[1].lower() in GROUP_HEADER_LABELS)
    for lineno, (user_id, label) in records:
        if label not in GROUP_LABELS:
            raise ParseError(f"{path}: line {lineno}: unknown group label {label!r}")
        if user_id in groups:
            raise ValidationError(f"{path}: line {lineno}: duplicate user {user_id!r}")
        groups[user_id] = label
    return groups


def interaction_lines(dataset: InteractionDataset):
    """Yield a dataset's lines in the tab-separated interchange format.

    Rows come out in (user index, artist index) order; re-ingesting them
    reproduces the dataset whenever its identifier maps are sorted (always
    true for ingested and generated datasets).
    """
    indptr, indices, data = dataset.counts.indptr, dataset.counts.indices, dataset.counts.data
    for u, user_id in enumerate(dataset.users):
        for k in range(indptr[u], indptr[u + 1]):
            yield f"{user_id}\t{dataset.artists[indices[k]]}\t{data[k]}"


def write_interactions(dataset: InteractionDataset, path, group_path=None):
    """Write a dataset's ``interaction_lines``, and its group labels to ``group_path``.

    Both files go through one ``write_lines``, so a failure leaves both as they were.
    """
    if group_path is not None and dataset.group_labels is None:
        raise ValidationError("dataset has no group labels to write")
    files = {path: interaction_lines(dataset)}
    if group_path is not None:
        files[group_path] = (f"{user_id}\t{label}"
                             for user_id, label in zip(dataset.users, dataset.group_labels))
    write_lines(files)


def compute_popularity(dataset: InteractionDataset) -> np.ndarray:
    """Per-artist phi (float64): the fraction of users with a play in ``dataset``.

    Artists with no listeners get phi = 0.
    """
    if dataset.num_users == 0:
        raise ValidationError("cannot compute popularity of an empty dataset")
    return dataset.counts.getnnz(axis=0).astype(np.int64) / dataset.num_users


def user_mainstreaminess(dataset: InteractionDataset, phi: np.ndarray) -> np.ndarray:
    """Mean phi over each user's profile."""
    if len(phi) != dataset.num_artists:
        raise ValidationError("popularity table does not cover all artists")
    return (dataset.counts.astype(bool) @ phi) / np.diff(dataset.counts.indptr)


def assign_mainstream_groups(dataset: InteractionDataset, phi: np.ndarray) -> list[str]:
    """Split users into equal-size (+/- 1) low/medium/high mainstream terciles.

    Users are ordered by mainstreaminess score ascending; ties at tercile
    boundaries break by ascending user index.
    """
    scores = user_mainstreaminess(dataset, phi)
    n = dataset.num_users
    order = np.argsort(scores, kind="stable")
    cut1, cut2 = n // 3, (2 * n) // 3
    labels = np.empty(n, dtype=object)
    labels[order[:cut1]] = "low"
    labels[order[cut1:cut2]] = "medium"
    labels[order[cut2:]] = "high"
    return list(labels)


def _holdout_size(profile_size: int, fraction: float) -> int:
    if profile_size < 2:
        return 0
    m = math.floor(fraction * profile_size + 0.5)  # round half up
    return min(profile_size - 1, max(1, m))


def split_mask(
    dataset: InteractionDataset, holdout_fraction: float, seed: int
) -> SplitDataset:
    """Hide a per-user random fraction of profile artists for evaluation.

    Each user independently masks round(holdout_fraction * profile size)
    artists (at least 1 when the profile has >= 2 artists, never the whole
    profile); single-artist users keep their artist in train.  Deterministic
    given ``seed``; each user draws from its own RNG stream.
    """
    if not 0 < holdout_fraction < 1:
        raise ValidationError(
            f"holdout_fraction must be in (0, 1), got {holdout_fraction}"
        )
    if seed < 0:
        raise ValidationError("seed must be a non-negative integer")
    counts = dataset.counts
    indptr, indices = counts.indptr, counts.indices
    train_data = counts.data.copy()  # counts are >= 1, so the zeros are the masked entries
    masked: list[np.ndarray] = []
    for u in range(dataset.num_users):
        lo, hi = indptr[u], indptr[u + 1]
        size = hi - lo
        m = _holdout_size(size, holdout_fraction)
        if m == 0:
            masked.append(np.empty(0, dtype=indices.dtype))
            continue
        rng = _user_rng(seed, u)
        positions = rng.choice(size, size=m, replace=False)
        train_data[lo + positions] = 0
        masked.append(np.sort(indices[lo + positions]))
    train = InteractionDataset(
        dataset.users, dataset.artists,
        sp.csr_matrix((train_data, indices, indptr), shape=counts.shape), dataset.group_labels
    )
    return SplitDataset(train=train, masked=masked)


def long_tail_stats(dataset: InteractionDataset) -> TailStats:
    """Coverage curve: fraction of interactions owned by the top artists.

    The curve is sampled at 1% and every 5% step of the artist catalogue,
    artists ranked by listener count descending.  Only the counts enter the
    curve, so the order among tied artists does not matter.
    """
    listeners = dataset.counts.getnnz(axis=0).astype(np.int64)
    cum = np.cumsum(np.sort(listeners)[::-1])
    total = dataset.num_pairs
    curve = []
    for frac in COVERAGE_FRACTIONS:
        k = max(1, math.ceil(frac * dataset.num_artists))
        k = min(k, dataset.num_artists)
        curve.append((frac, float(cum[k - 1] / total)))
    return TailStats(coverage_curve=curve)


def emit_tail_plot_data(dataset: InteractionDataset, out_dir):
    """Write the popularity-by-rank series and the coverage curve as TSV files.

    Both go through one ``write_lines``, so a failure leaves both as they were.
    """
    phi = compute_popularity(dataset)
    stats = long_tail_stats(dataset)
    paths = write_lines({
        Path(out_dir) / "tail_rank_phi.tsv": chain(["# rank\tphi"], (
            f"{rank}\t{value:.6f}" for rank, value in enumerate(np.sort(phi)[::-1], start=1))),
        Path(out_dir) / "tail_coverage.tsv": stats.coverage_lines(),
    })
    return stats, paths


def generate_synthetic(config: SyntheticConfig, seed: int) -> InteractionDataset:
    """Generate a long-tail interaction dataset.

    Artist base popularity follows a Zipf law with the configured exponent;
    users are split into three equal groups whose sampling weights are the
    base popularity raised to the group's bias, so "high" users concentrate
    on the head of the distribution.  Play counts are geometric (>= 1).
    Byte-identical output for identical (config, seed).
    """
    if seed < 0:
        raise ValidationError("seed must be a non-negative integer")
    nu, na = config.num_users, config.num_artists
    uw = len(str(nu - 1))
    aw = len(str(na - 1))
    # five float64 arrays per artist (the base weights, one group's powers and
    # the three groups' weights), and a string and a list slot per identifier:
    # a lower bound, as the peak also holds sampling copies and identifier sets
    require_memory(
        na * (5 * 8 + sys.getsizeof("a" * (aw + 1)) + 8)
        + nu * (sys.getsizeof("u" * (uw + 1)) + 2 * 8),
        f"a synthetic dataset of {nu:,} users x {na:,} artists",
    )
    with np.errstate(over="ignore"):  # an overflowing power gives weight 0, checked below
        base = 1.0 / np.arange(1, na + 1, dtype=np.float64) ** config.zipf_exponent
    lo, hi = config.profile_size_range
    users = [f"u{idx:0{uw}d}" for idx in range(nu)]
    artists = [f"a{idx:0{aw}d}" for idx in range(na)]
    group_of = [GROUP_LABELS[u * 3 // nu] for u in range(nu)]
    weights = {}
    for gi, label in enumerate(GROUP_LABELS):
        w = base ** config.mainstream_mix[gi]
        weights[label] = w / w.sum()
        drawable = np.count_nonzero(weights[label])
        if drawable < hi:
            raise ValidationError(
                f"synthetic group {label!r}: only {drawable} artists have a non-zero "
                f"sampling weight, fewer than the largest profile size {hi}"
            )
    cols, vals = [], []
    for u in range(nu):
        rng = _user_rng(seed, u)
        k = int(rng.integers(lo, hi, endpoint=True))
        cols.append(np.sort(rng.choice(na, size=k, replace=False, p=weights[group_of[u]])))
        vals.append(rng.geometric(config.count_geometric_p, size=k))
    # each profile is sorted and distinct, so these already are the CSR arrays
    indptr = np.cumsum([0] + [len(c) for c in cols])
    counts = sp.csr_matrix((np.concatenate(vals), np.concatenate(cols), indptr), shape=(nu, na))
    return InteractionDataset(users, artists, counts, group_of)
