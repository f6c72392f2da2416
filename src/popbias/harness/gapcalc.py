"""Popularity-lift analysis of recorded simulated-user listening sessions.

Input is a CSV of profile-seed and recommended artists per (service, user)
with up to two popularity measures per artist: a 0-100 service score and the
corpus listener fraction.  For every service, user group, and measure we
report GAP over profiles, GAP over recommendations, the lift between them,
and a one-tailed Welch t-test of whether recommendations are more popular.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.stats import t as t_dist

from ..corpus import GROUP_LABELS, read_lines
from ..errors import ParseError, ValidationError
from ..metrics import delta_gap
from .experiment import write_report_files

ROLES = ("profile-seed", "recommended")
EXPECTED_HEADER = [
    "service", "user", "group", "role", "artist", "spotify_popularity", "lfm_phi",
]
# (report key, CSV column); spotify scores live on 0-100, phi on [0, 1]
MEASURES = (("spotify", "spotify_popularity"), ("lfm", "lfm_phi"))
GAPCALC_GROUPS = ("overall",) + GROUP_LABELS


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


def _parse_float(text: str, lo: float, hi: float, what: str, path, lineno: int) -> float | None:
    if text is None or text.strip() == "":
        return None
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{path}: line {lineno}: {what} {text!r} is not a number") from None
    if not lo <= value <= hi:
        raise ValidationError(f"{path}: line {lineno}: {what} {value} outside [{lo}, {hi}]")
    return value


def read_simulated_records(path) -> list[SimulatedUserRecord]:
    """Load and validate the simulated-user CSV (header required)."""
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
    for row in reader:
        lineno = reader.line_num  # a quoted field can span lines, so records are not lines
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
    return t, float(t_dist.sf(t, df))


def _user_means(records, column):
    """Per-(service, user, role) mean of one popularity column."""
    sums: dict[tuple[str, str, str], list[float]] = {}
    for rec in records:
        value = rec.value(column)
        if value is None:
            continue
        sums.setdefault((rec.service, rec.user, rec.role), []).append(value)
    return {key: float(np.mean(vals)) for key, vals in sums.items()}


@dataclass
class GapcalcReport:
    """GAP lift per service, user group, and popularity measure."""

    entries: dict[tuple[str, str, str], GapEntry]
    services: list[str]

    def get(self, service: str, group: str, measure: str) -> GapEntry:
        return self.entries[(service, group, measure)]

    def to_kv_lines(self) -> list[str]:
        lines = []
        for (service, group, measure), e in self.entries.items():
            prefix = f"{service}.{group}.{measure}"
            lines.append(f"users.{prefix}={e.n_users:.6f}")
            lines.append(f"gap_p.{prefix}={e.gap_p:.6f}")
            lines.append(f"gap_r.{prefix}={e.gap_r:.6f}")
            lines.append(f"delta_gap.{prefix}={e.delta_gap:.6f}")
            lines.append(f"t_stat.{prefix}={e.t_stat:.6f}")
            lines.append(f"p_value.{prefix}={e.p_value:.6f}")
        return lines

    def to_text(self) -> str:
        titles = {"spotify": "Service popularity score (0-100)",
                  "lfm": "Corpus listener fraction"}
        lines = ["Popularity lift of recommendations over profiles (delta GAP)", ""]
        for measure, _ in MEASURES:
            cells_exist = any(m == measure for (_, _, m) in self.entries)
            if not cells_exist:
                continue
            lines.append(titles[measure])
            head = f"{'group':<10}" + "".join(f"{s:>12}" for s in self.services)
            lines.append(head)
            lines.append("-" * len(head))
            for group in GAPCALC_GROUPS:
                row = [f"{group:<10}"]
                any_cell = False
                for service in self.services:
                    entry = self.entries.get((service, group, measure))
                    if entry is None:
                        row.append(f"{'--':>12}")
                    else:
                        any_cell = True
                        row.append(f"{entry.delta_gap:>12.2f}")
                if any_cell:
                    lines.append("".join(row))
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
        return write_report_files(out_dir, "gapcalc", self.to_text(), self.to_kv_lines())


def gapcalc(records: list[SimulatedUserRecord]) -> GapcalcReport:
    """Compute the per-service, per-group, per-measure GAP lift table.

    A user enters a (group, measure) cell only with at least one present
    value in each role; the "overall" rows aggregate every qualifying user of
    the service.  The t-test compares per-user profile means against per-user
    recommendation means.
    """
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
