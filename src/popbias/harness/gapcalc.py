"""Popularity-lift analysis of recorded simulated-user listening sessions.

Input is a CSV of profile-seed and recommended artists per (service, user)
with up to two popularity measures per artist: a 0-100 service score and the
corpus listener fraction.  For every service, user group, and measure we
report GAP over profiles, GAP over recommendations, the lift between them,
and a one-tailed Welch t-test of whether recommendations are more popular.

The records are held as columns, never as one object per record: service,
user, group and role become integer codes into name tables, and the two
measures float64 arrays with NaN for a blank field; the artist column is not
kept.  Each distinct cell text is stripped and checked once, by its column's
one check, and a rejected text keeps its error.  The first record in file
order with a rejected text or two blank measures raises its first error in
column order, naming the file and its physical line.  Every (service, user)
must keep one group label and have records in both roles.  ``gapcalc``
groups each measure with one stable sort by (service, user, role) and takes
each user and role's mean over its values in file order with
``metrics.row_means``, the per-user mean of ``metrics.gap``.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import astuple, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from ..corpus import GROUP_LABELS, ascii_float, read_lines, write_lines
from ..errors import ParseError, PopBiasError, ValidationError
from ..metrics import delta_gap, row_means

ROLES = ("profile-seed", "recommended")
EXPECTED_HEADER = [
    "service", "user", "group", "role", "artist", "spotify_popularity", "lfm_phi",
]
# (report key, CSV column); spotify scores live on 0-100, phi on [0, 1]
MEASURES = (("spotify", "spotify_popularity"), ("lfm", "lfm_phi"))
RANGES = {"spotify_popularity": (0.0, 100.0), "lfm_phi": (0.0, 1.0)}
GAPCALC_GROUPS = ("overall",) + GROUP_LABELS
# Rows moved into the columns at a time.  Fewer than the cyclic collector's
# youngest-generation threshold (700), so each batch of row lists is freed
# before a collection has to traverse it.
_CHUNK = 256


@dataclass(eq=False)
class SimulatedRecords:
    """Validated session records as columns; ``len()`` is the record count.

    ``service`` and ``user`` index the sorted name lists ``services`` and
    ``users``; ``group`` indexes ``GROUP_LABELS`` and ``role`` indexes
    ``ROLES``.  A blank popularity field reads as NaN.
    """

    services: list[str]
    users: list[str]
    service: np.ndarray
    user: np.ndarray
    group: np.ndarray
    role: np.ndarray
    spotify_popularity: np.ndarray
    lfm_phi: np.ndarray

    def __len__(self) -> int:
        return len(self.service)


@dataclass
class GapEntry:
    service: str
    group: str
    measure: str
    n_users: int
    gap_p: float
    gap_r: float
    delta_gap: float
    t_stat: float
    p_value: float


def _label(names: tuple[str, ...], what: str, text: str) -> int:
    """The index of one stripped group or role cell in ``names``."""
    if text not in names:
        raise ValidationError(f"unknown {what} {text!r}")
    return names.index(text)


def _measure(column: str, text: str) -> float:
    """The value of one stripped popularity cell of ``column``; NaN when blank."""
    if text == "":
        return math.nan
    try:
        value = ascii_float(text)
    except ValueError:
        raise ParseError(f"{column} {text!r} is not a number") from None
    lo, hi = RANGES[column]
    if not lo <= value <= hi:
        raise ValidationError(f"{column} {value} outside [{lo}, {hi}]")
    return value


class _Column(dict):
    """One CSV column: each distinct raw text maps to a code, in first-seen order."""

    def __init__(self):
        super().__init__()
        self.rows: list[int] = []  # the code of each record's text, until ``close``

    def __missing__(self, text: str) -> int:
        code = self[text] = len(self)
        return code

    def close(self) -> None:
        """Store the records' codes as one array."""
        self.codes = np.array(self.rows, np.intp)
        del self.rows

    def lookup(self, check, dtype, fault=-1) -> np.ndarray:
        """Per record, ``check`` of its stripped text, called once per distinct text.

        A text that ``check`` rejects reads as ``fault``, and its error is kept
        in ``errors`` under the text's code.
        """
        self.errors: dict[int, PopBiasError] = {}
        values = []
        for code, text in enumerate(self):
            try:
                values.append(check(text.strip()))
            except PopBiasError as exc:
                self.errors[code] = exc
                values.append(fault)
        return np.array(values, dtype)[self.codes]

    def names(self) -> tuple[list[str], np.ndarray]:
        """The sorted distinct stripped texts and each record's index into them."""
        names = sorted({text.strip() for text in self})
        rank = {name: i for i, name in enumerate(names)}
        return names, self.lookup(rank.__getitem__, np.intp)


def read_simulated_records(path) -> SimulatedRecords:
    """Load and validate the simulated-user CSV (header required).

    Rows whose cells are all blank are skipped.  The artist column is not
    kept: nothing reads it.
    """
    reader = csv.reader(read_lines(path, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: empty file") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    if [h.strip() for h in header] != EXPECTED_HEADER:
        raise ParseError(
            f"{path}: line 1: expected header {','.join(EXPECTED_HEADER)}"
        )
    width = len(EXPECTED_HEADER)
    group_at = EXPECTED_HEADER.index("group")
    columns = {name: _Column() for name in EXPECTED_HEADER if name != "artist"}
    lines = array("q")  # physical line of each record: a quoted field can span lines
    rows: list[list[str]] = []
    stopped = None  # what ended the read early; an earlier faulty record wins over it

    def move_rows():
        for name, cells in zip(EXPECTED_HEADER, zip(*rows)):
            if name in columns:
                columns[name].rows.extend(map(columns[name].__getitem__, cells))
        rows.clear()

    try:
        for row in reader:
            # a blank row has a blank group, so only those rows need the full test
            if len(row) != width or not row[group_at].strip():
                if not any(cell.strip() for cell in row):
                    continue
                if len(row) != width:
                    stopped = ParseError(
                        f"{path}: line {reader.line_num}: expected {width} fields, "
                        f"got {len(row)}"
                    )
                    break
            rows.append(row)
            lines.append(reader.line_num)
            if len(rows) == _CHUNK:
                move_rows()
    except PopBiasError as exc:
        stopped = exc
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        stopped = ParseError(f"{path}: line {reader.line_num}: {exc}")
    move_rows()
    for column in columns.values():
        column.close()

    group = columns["group"].lookup(partial(_label, GROUP_LABELS, "group"), np.intp)
    role = columns["role"].lookup(partial(_label, ROLES, "role"), np.intp)
    # the range check rejects every infinite value, so infinity marks a fault
    spotify, lfm = (columns[name].lookup(partial(_measure, name), np.float64, math.inf)
                    for name in ("spotify_popularity", "lfm_phi"))
    faulty = np.flatnonzero((group < 0) | (role < 0) | np.isinf(spotify) | np.isinf(lfm)
                            | (np.isnan(spotify) & np.isnan(lfm)))
    if len(faulty):  # the first failing check of the first faulty record
        k = faulty[0]
        errors = (columns[name].errors.get(columns[name].codes[k])
                  for name in ("group", "role", "spotify_popularity", "lfm_phi"))
        exc = next((e for e in errors if e is not None),
                   ValidationError("record has no popularity value"))
        raise type(exc)(f"{path}: line {lines[k]}: {exc}")
    if stopped is not None:
        raise stopped
    if not lines:
        raise ValidationError(f"{path}: no records")

    services, service = columns["service"].names()
    users, user = columns["user"].names()
    records = SimulatedRecords(
        services=services, users=users, service=service, user=user,
        group=group, role=role, spotify_popularity=spotify, lfm_phi=lfm,
    )
    _check_users(records, path, lines)
    return records


def _pairs(records: SimulatedRecords) -> tuple[np.ndarray, ...]:
    """The distinct (service, user) pairs in sorted order.

    Returns each pair's service and user codes, its first record, and each
    record's pair.
    """
    key = records.service.astype(np.int64) * len(records.users) + records.user
    pairs, first, pair = np.unique(key, return_index=True, return_inverse=True)
    return pairs // len(records.users), pairs % len(records.users), first, pair


def _check_users(records: SimulatedRecords, path, lines: array) -> None:
    """Each (service, user) keeps one group label and has records in both roles."""
    pair_service, pair_user, first, pair = _pairs(records)

    def name(p):
        return f"({records.services[pair_service[p]]}, {records.users[pair_user[p]]})"

    disagree = np.flatnonzero(records.group != records.group[first][pair])
    if len(disagree):
        k = disagree[0]
        raise ValidationError(
            f"{path}: line {lines[k]}: simulated user {name(pair[k])} has group "
            f"{GROUP_LABELS[records.group[k]]!r}, but its first record has "
            f"{GROUP_LABELS[records.group[first[pair[k]]]]!r}"
        )
    has = np.zeros((len(first), len(ROLES)), bool)
    has[pair, records.role] = True
    lacking = np.flatnonzero(~has.all(axis=1))
    if len(lacking):
        p = lacking[0]
        missing = [r for r, seen in zip(ROLES, has[p]) if not seen]
        raise ValidationError(f"simulated user {name(p)} lacks {sorted(missing)} records")


def welch_one_tailed(profile_means, rec_means) -> tuple[float, float]:
    """Welch's two-sample t-test of rec means > profile means (one-tailed).

    Returns (nan, nan) when either sample has fewer than two values or the
    pooled dispersion is zero.
    """
    a = np.asarray(profile_means, dtype=np.float64)
    b = np.asarray(rec_means, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        return math.nan, math.nan
    va, vb = a.var(ddof=1), b.var(ddof=1)
    se2 = va / len(a) + vb / len(b)
    if se2 <= 0:
        return math.nan, math.nan
    t = float((b.mean() - a.mean()) / math.sqrt(se2))
    df = se2**2 / ((va / len(a)) ** 2 / (len(a) - 1) + (vb / len(b)) ** 2 / (len(b) - 1))
    # the value of scipy.stats.t.sf(t, df), without importing scipy.stats,
    # which would be most of the command's import time; imported here, so
    # that only gapcalc loads scipy.special
    from scipy.special import stdtr

    return t, float(stdtr(df, -t))


@dataclass
class GapcalcReport:
    """GAP lift per service, user group, and popularity measure."""

    entries: dict[tuple[str, str, str], GapEntry]
    services: list[str]

    def get(self, service: str, group: str, measure: str) -> GapEntry:
        return self.entries[(service, group, measure)]

    # kv names of GapEntry's fields after its (service, group, measure) key
    _METRICS = ("users", "gap_p", "gap_r", "delta_gap", "t_stat", "p_value")

    def to_kv_lines(self) -> list[str]:
        lines = []
        for (service, group, measure), e in self.entries.items():
            for metric, value in zip(self._METRICS, astuple(e)[3:]):
                lines.append(f"{metric}.{service}.{group}.{measure}={value:.6f}")
        return lines

    def to_text(self) -> str:
        titles = {"spotify": "Service popularity score (0-100)",
                  "lfm": "Corpus listener fraction"}
        lines = ["Popularity lift of recommendations over profiles (delta GAP)", ""]
        for measure, _ in MEASURES:
            if not any(m == measure for (_, _, m) in self.entries):
                continue
            lines.append(titles[measure])
            head = f"{'group':<10}" + "".join(f"{s:>12}" for s in self.services)
            lines.append(head)
            lines.append("-" * len(head))
            for group in GAPCALC_GROUPS:
                cells = [self.entries.get((service, group, measure)) for service in self.services]
                if any(cells):
                    lines.append(f"{group:<10}" + "".join(
                        f"{'--':>12}" if e is None else f"{e.delta_gap:>12.2f}" for e in cells))
            lines.append("")
        lines.append("Details (per service / group / measure)")
        detail_head = (
            f"{'service':<10} {'group':<9} {'measure':<8} {'users':>5} "
            f"{'gap_p':>10} {'gap_r':>10} {'delta_gap':>10} {'t_stat':>8} {'p_value':>8}"
        )
        lines.append(detail_head)
        lines.append("-" * len(detail_head))
        for (service, group, measure), e in self.entries.items():
            lines.append(
                f"{service:<10} {group:<9} {measure:<8} {e.n_users:>5d} "
                f"{e.gap_p:>10.4f} {e.gap_r:>10.4f} {e.delta_gap:>10.4f} "
                f"{e.t_stat:>8.3f} {e.p_value:>8.4f}"
            )
        lines.append("")
        return "\n".join(lines)

    def write(self, out_dir) -> tuple[Path, Path]:
        return write_lines({Path(out_dir) / "gapcalc.txt": [self.to_text().removesuffix("\n")],
                            Path(out_dir) / "gapcalc.kv": self.to_kv_lines()})


def gapcalc(records: SimulatedRecords) -> GapcalcReport:
    """Compute the per-service, per-group, per-measure GAP lift table.

    A user enters a (group, measure) cell only with at least one present
    value in each role; the "overall" rows aggregate every qualifying user of
    the service.  The t-test compares per-user profile means against per-user
    recommendation means.
    """
    pair_service, _, first, pair = _pairs(records)
    pair_group = records.group[first]  # the reader checks that a user keeps one group
    entries: dict[tuple[str, str, str], GapEntry] = {}
    for measure, column in MEASURES:
        values = getattr(records, column)
        present = np.flatnonzero(~np.isnan(values))
        key = pair[present] * len(ROLES) + records.role[present]
        order = np.argsort(key, kind="stable")  # file order inside each (service, user, role)
        key, values = key[order], values[present[order]]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        means = np.full((len(first), len(ROLES)), np.nan)
        means.flat[key[starts]] = row_means(values, np.diff(starts, append=len(key)))
        qualifying = ~np.isnan(means).any(axis=1)  # a present value in each role
        for s, service in enumerate(records.services):
            in_service = qualifying & (pair_service == s)
            for group in GAPCALC_GROUPS:
                cell = in_service if group == "overall" else (
                    in_service & (pair_group == GROUP_LABELS.index(group)))
                if not cell.any():
                    continue
                prof, rec = means[cell, 0], means[cell, 1]  # in sorted user order
                gap_p = float(np.mean(prof))
                gap_r = float(np.mean(rec))
                lift = delta_gap(gap_p, gap_r) if gap_p > 0 else math.nan
                t_stat, p_value = welch_one_tailed(prof, rec)
                entries[(service, group, measure)] = GapEntry(
                    service=service, group=group, measure=measure, n_users=len(prof),
                    gap_p=gap_p, gap_r=gap_r, delta_gap=lift,
                    t_stat=t_stat, p_value=p_value,
                )
    if not entries:
        raise ValidationError("no computable GAP cells in the records")
    return GapcalcReport(entries=entries, services=records.services)
