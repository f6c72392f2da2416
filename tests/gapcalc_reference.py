"""Reference session reader and GAP table: one object per record.

This is the original ``gapcalc`` code path.  It builds a dataclass per CSV
record, validates one record at a time, groups means through dicts keyed by
(service, user, role), and takes the Welch p-value from ``scipy.stats.t``.
The library reads the same CSV into columns and groups with one sort per
measure; it must raise the same error for the same first faulty record and
produce bit-identical ``GapEntry`` values.  The tests compare the two.
Unlike the library, this reader does not reject a (service, user) whose
records disagree on ``group``: the last label wins.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import t as t_dist

from popbias.corpus import GROUP_LABELS, read_lines
from popbias.errors import ParseError, ValidationError
from popbias.harness.gapcalc import (
    EXPECTED_HEADER,
    GAPCALC_GROUPS,
    MEASURES,
    ROLES,
    GapcalcReport,
    GapEntry,
)
from popbias.metrics import delta_gap


@dataclass
class SimulatedUserRecord:
    service: str
    user: str
    group: str
    role: str
    artist: str
    spotify_popularity: float | None
    lfm_phi: float | None

    def value(self, column: str) -> float | None:
        return getattr(self, column)


def _parse_float(text, lo, hi, what, path, lineno):
    if text is None or text.strip() == "":
        return None
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{path}: line {lineno}: {what} {text!r} is not a number") from None
    if not lo <= value <= hi:
        raise ValidationError(f"{path}: line {lineno}: {what} {value} outside [{lo}, {hi}]")
    return value


def reference_read(path) -> list[SimulatedUserRecord]:
    """Load and validate the simulated-user CSV, one record object per row."""
    records = []
    reader = csv.reader(read_lines(path, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: empty file") from None
    if [h.strip() for h in header] != EXPECTED_HEADER:
        raise ParseError(
            f"{path}: line 1: expected header {','.join(EXPECTED_HEADER)}"
        )
    rows = iter(reader)
    while True:
        try:
            row = next(rows)
        except StopIteration:
            break
        except csv.Error as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
        lineno = reader.line_num
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(EXPECTED_HEADER):
            raise ParseError(
                f"{path}: line {lineno}: expected {len(EXPECTED_HEADER)} fields, "
                f"got {len(row)}"
            )
        service, user, group, role, artist, spotify, lfm = (c.strip() for c in row)
        if group not in GROUP_LABELS:
            raise ValidationError(f"{path}: line {lineno}: unknown group {group!r}")
        if role not in ROLES:
            raise ValidationError(f"{path}: line {lineno}: unknown role {role!r}")
        spotify_val = _parse_float(spotify, 0.0, 100.0, "spotify_popularity", path, lineno)
        lfm_val = _parse_float(lfm, 0.0, 1.0, "lfm_phi", path, lineno)
        if spotify_val is None and lfm_val is None:
            raise ValidationError(
                f"{path}: line {lineno}: record has no popularity value"
            )
        records.append(
            SimulatedUserRecord(service, user, group, role, artist, spotify_val, lfm_val)
        )
    if not records:
        raise ValidationError(f"{path}: no records")
    _check_roles(records)
    return records


def _check_roles(records):
    roles_seen: dict[tuple[str, str], set] = {}
    for rec in records:
        roles_seen.setdefault((rec.service, rec.user), set()).add(rec.role)
    for (service, user), roles in sorted(roles_seen.items()):
        missing = set(ROLES) - roles
        if missing:
            raise ValidationError(
                f"simulated user ({service}, {user}) lacks {sorted(missing)} records"
            )


def welch_one_tailed(profile_means, rec_means):
    """Welch's one-tailed t-test of rec means > profile means, via scipy.stats."""
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
    return t, float(t_dist.sf(t, df))


def _user_means(records, column):
    sums: dict[tuple[str, str, str], list[float]] = {}
    for rec in records:
        value = rec.value(column)
        if value is None:
            continue
        sums.setdefault((rec.service, rec.user, rec.role), []).append(value)
    return {key: float(np.mean(vals)) for key, vals in sums.items()}


def reference_gapcalc(records: list[SimulatedUserRecord]) -> GapcalcReport:
    """The per-service, per-group, per-measure GAP table, one user at a time."""
    services = sorted({rec.service for rec in records})
    group_of = {(rec.service, rec.user): rec.group for rec in records}
    entries: dict[tuple[str, str, str], GapEntry] = {}
    for measure, column in MEASURES:
        means = _user_means(records, column)
        for service in services:
            users = sorted({u for (s, u, _) in means if s == service})
            for group in GAPCALC_GROUPS:
                prof, rec = [], []
                for user in users:
                    if group != "overall" and group_of[(service, user)] != group:
                        continue
                    p = means.get((service, user, "profile-seed"))
                    r = means.get((service, user, "recommended"))
                    if p is None or r is None:
                        continue
                    prof.append(p)
                    rec.append(r)
                if not prof:
                    continue
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
    return GapcalcReport(entries=entries, services=services)
