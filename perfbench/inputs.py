"""Seeded workload inputs, written once per seed before any timing starts.

Each workload gets a directory ``<work>/inputs/<workload>/seed-<n>/`` that
holds everything the CLI reads.  Paths inside configs are relative to the
checkout root (the CLI runs there), so ``provenance.config_hash``, which
covers the interactions path, is the same in every checkout.

The generators here use NumPy only, never popbias, so a change to the
library cannot change the benchmark's inputs.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

# The README desk config.  Bench seed n shifts its seeds by n, so seed 0
# reproduces the README file exactly.
DESK_CONFIG = {
    "seed": 11,
    "dataset": {
        "synthetic": {
            "num_users": 501,
            "num_artists": 2000,
            "zipf_exponent": 1.0,
            "profile_size_range": [10, 40],
        },
        "seed": 11,
    },
    "split": {"holdout_fraction": 0.2, "seed": 12},
    "models": [
        {"name": "popularity"},
        {"name": "random"},
        {"name": "slim", "hyperparams": {"l1_penalty": 2.0, "l2_penalty": 5.0}},
        {"name": "wrmf", "grid": [
            {"factors": 32, "ridge": 0.1}, {"factors": 32, "ridge": 1.0},
        ]},
        {"name": "multivae", "hyperparams": {"learning_rate": 0.3, "epochs": 25}},
    ],
    "top_n": 10,
    "popularity_scope": "all-data",
}

WIDE_USERS = 600
WIDE_CATALOGUE = 34_000  # about 30,000 of them are listened to
WIDE_PROFILE = (150, 450)
# Per-third sampling bias: weight = zipf ** bias, as the library's synthetic
# generator does, so the corpus has low / medium / high mainstream users.
WIDE_BIAS = (0.3, 1.0, 2.2)
WIDE_MODELS = [
    {"name": "popularity"},
    {"name": "wrmf", "hyperparams": {"factors": 32, "ridge": 0.1, "sweeps": 2}},
    {"name": "multivae", "hyperparams": {"learning_rate": 0.3, "epochs": 2}},
]

SESSION_SERVICES = ("svc_a", "svc_b", "svc_c")
SESSION_USERS = 3_000
SESSION_ROWS_PER_ROLE = 20
SESSION_ARTISTS = 40_000
SESSION_BLANK_SCORE = 0.05


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _zipf_weights(n: int, bias: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** bias
    return w / w.sum()


def _sample_without_replacement(rng, log_w: np.ndarray, k: int) -> np.ndarray:
    """k distinct indices drawn by weight (Gumbel top-k), in ascending order."""
    keys = log_w + rng.gumbel(size=log_w.size)
    return np.sort(np.argpartition(-keys, k)[:k])


def desk(seed: int, where: Path) -> tuple[list[str], dict]:
    cfg = json.loads(json.dumps(DESK_CONFIG))
    cfg["seed"] += seed
    cfg["dataset"]["seed"] += seed
    cfg["split"]["seed"] += seed
    config = where / "experiment.json"
    if not config.exists():
        _write_atomic(config, json.dumps(cfg, indent=2) + "\n")
    syn = cfg["dataset"]["synthetic"]
    shape = {"users": syn["num_users"], "artists": syn["num_artists"],
             "models": len(cfg["models"])}
    return ["run", "--config", str(config)], shape


def wide(seed: int, where: Path) -> tuple[list[str], dict]:
    data = where / "interactions.tsv"
    config = where / "experiment.json"
    shape_file = where / "shape.json"
    if not shape_file.exists():
        rng = np.random.default_rng([seed, 1])
        lo, hi = WIDE_PROFILE
        lines = ["user\tartist\tcount"]
        seen = np.zeros(WIDE_CATALOGUE, dtype=bool)
        pairs = 0
        log_w = [np.log(_zipf_weights(WIDE_CATALOGUE, b)) for b in WIDE_BIAS]
        for u in range(WIDE_USERS):
            k = int(rng.integers(lo, hi, endpoint=True))
            artists = _sample_without_replacement(rng, log_w[u * 3 // WIDE_USERS], k)
            plays = rng.geometric(0.5, size=k)
            seen[artists] = True
            pairs += k
            lines.extend(
                f"w{u:03d}\tx{a:05d}\t{c}" for a, c in zip(artists.tolist(), plays.tolist())
            )
        _write_atomic(data, "\n".join(lines) + "\n")
        cfg = {
            "seed": seed,
            "dataset": {"interactions": data.as_posix()},
            "split": {"holdout_fraction": 0.2, "seed": seed + 1},
            "models": WIDE_MODELS,
            "top_n": 10,
        }
        _write_atomic(config, json.dumps(cfg, indent=2) + "\n")
        shape = {"users": WIDE_USERS, "artists": int(seen.sum()), "pairs": pairs,
                 "models": len(WIDE_MODELS)}
        _write_atomic(shape_file, json.dumps(shape) + "\n")
    shape = json.loads(shape_file.read_text(encoding="utf-8"))
    return ["run", "--config", str(config)], shape


def sessions(seed: int, where: Path) -> tuple[list[str], dict]:
    records = where / "sessions.csv"
    records_total = len(SESSION_SERVICES) * SESSION_USERS * 2 * SESSION_ROWS_PER_ROLE
    if not records.exists():
        rng = np.random.default_rng([seed, 2])
        # one corpus listener fraction per artist; the service score is a
        # noisy monotone function of it, so both measures broadly agree
        phi = np.sort(rng.beta(0.6, 12.0, size=SESSION_ARTISTS))[::-1]
        lines = ["service,user,group,role,artist,spotify_popularity,lfm_phi"]
        n = SESSION_ROWS_PER_ROLE
        third = SESSION_USERS // 3
        for service in SESSION_SERVICES:
            noise = rng.normal(0.0, 6.0, size=SESSION_ARTISTS)
            score = np.clip(np.rint(100.0 * phi ** 0.35 + noise), 0, 100).astype(int)
            for gi, (group, bias) in enumerate(zip(("low", "medium", "high"), (0.4, 0.9, 1.6))):
                # recommendations lean further towards the head than profiles
                for role, lift in (("profile-seed", 0.0), ("recommended", 0.5)):
                    w = _zipf_weights(SESSION_ARTISTS, bias + lift)
                    artists = rng.choice(SESSION_ARTISTS, size=(third, n), p=w)
                    blank = rng.random((third, n)) < SESSION_BLANK_SCORE
                    for i in range(third):
                        user = f"s{gi * third + i:04d}"
                        for a, b in zip(artists[i].tolist(), blank[i].tolist()):
                            sp = "" if b else str(score[a])
                            lines.append(
                                f"{service},{user},{group},{role},z{a:05d},{sp},{phi[a]:.6f}"
                            )
        _write_atomic(records, "\n".join(lines) + "\n")
    shape = {"services": len(SESSION_SERVICES), "users": SESSION_USERS,
             "records": records_total}
    return ["gapcalc", "--records", str(records)], shape


WORKLOADS = {"desk": desk, "wide": wide, "sessions": sessions}


def prepare(workload: str, seed: int, work: Path) -> tuple[list[str], dict]:
    """Write the inputs for (workload, seed) if absent; return CLI args and shape.

    ``work`` is relative to the checkout root, the working directory of both
    the benchmark and the CLI it starts.
    """
    where = work / "inputs" / workload / f"seed-{seed}"
    where.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](seed, where)
