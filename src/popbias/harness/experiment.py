"""End-to-end experiment orchestration.

Pipeline: load or generate interactions -> mask a per-user holdout ->
(optionally grid-tune each model by mean AP@K on an inner validation split)
-> fit -> per user, the top-N and the held-out artists' positions in the
ranking of every artist outside the training profile -> per-user AUC ->
GAP / delta-GAP per mainstream group -> report.

Everything is deterministic given the seeds in the config: rerunning the
same config with the same BLAS thread count on the same CPU kernel reproduces
the report byte for byte.  BLAS products may round differently under another
thread count or kernel.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import logging
import math
import sys
import typing
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path
from types import NoneType

import numpy as np
import scipy

from .. import __version__
from ..corpus import (
    GROUP_LABELS,
    InteractionDataset,
    SplitDataset,
    SyntheticConfig,
    assign_mainstream_groups,
    check_writable_dir,
    compute_popularity,
    generate_synthetic,
    ingest_interactions,
    split_mask,
    write_lines,
)
from ..errors import NumericalError, PopBiasError, TuningError, UndefinedMetricError, ValidationError
# RankedCandidates, auc and average_precision_at_k are not called here: they
# are the oracles this module's ranking path is tested against, and they stay
# importable from it because perfbench/child.py traces them by these names.
from ..metrics import (  # noqa: F401
    RankedCandidates,
    auc,
    average_precision_at_k,
    delta_gap,
    gap,
    mean_with_stderr,
)
from ..models.base import (
    PopularityRecommender,
    RandomRecommender,
    RecommenderModel,
    positive_ranks,
    rank_candidates,
)
from ..models.multivae import MultiVaeRecommender
from ..models.slim import SlimRecommender
from ..models.wrmf import WrmfRecommender

_log = logging.getLogger(__name__)

MODEL_FACTORIES = {cls.model_type: cls for cls in (
    PopularityRecommender, RandomRecommender, SlimRecommender, WrmfRecommender, MultiVaeRecommender,
)}

# Hyperparameter names that default to a config-derived seed when absent.
_SEED_PARAM = {"random": "seed", "wrmf": "init_seed", "multivae": "init_seed"}


def default_ap_k(num_artists: int) -> int:
    """Tuning cutoff: 5000 on big catalogues, else 2% of artists (>= 50)."""
    if num_artists > 10_000:
        return 5000
    return max(50, math.ceil(0.02 * num_artists))


@dataclass
class ModelSpec:
    """One model to evaluate: fixed hyperparameters or a tuning grid."""

    name: str
    hyperparams: dict
    grid: list[dict] | None


# What each config key accepts: a dict is an object with those keys, a list a
# list of that length, else the allowed types.  A float key also takes an int;
# an int key never takes a bool.  ``dataset.synthetic`` takes SyntheticConfig's
# fields, a ``tuple[...]`` field as the list of its item types.
_CONFIG_SCHEMA = {
    "seed": int, "top_n": int, "ap_k": (int, NoneType), "tune_seed": int,
    "popularity_scope": str, "gap_profile": str, "models": list,
    "split": {"holdout_fraction": float, "seed": int},
    "dataset": {
        "interactions": (str, NoneType), "groups": (str, NoneType), "seed": int,
        "synthetic": {name: list(typing.get_args(hint)) if typing.get_origin(hint) is tuple else hint
                      for name, hint in typing.get_type_hints(SyntheticConfig).items()},
    },
}


def _check_config(value, schema, path: str = ""):
    """Return ``value`` if it fits ``schema``, else raise naming the first misfit."""
    if isinstance(schema, dict):
        for key, item in _check_config(value, dict, path).items():
            where = f"{path}.{key}" if path else key
            if key not in schema:
                raise ValidationError(
                    f"unknown config key {where!r}; expected one of {sorted(schema)}"
                )
            _check_config(item, schema[key], where)
    elif isinstance(schema, list):
        if len(_check_config(value, list, path)) != len(schema):
            raise ValidationError(f"config {path} must have {len(schema)} entries")
        for i, (item, kind) in enumerate(zip(value, schema)):
            _check_config(item, kind, f"{path}[{i}]")
    else:
        kinds = schema if isinstance(schema, tuple) else (schema,)
        types = kinds + (int,) * (float in kinds)
        if (isinstance(value, bool) and bool not in kinds) or not isinstance(value, types):
            names = " or ".join("null" if k is NoneType else k.__name__ for k in kinds)
            raise ValidationError(f"config {path or 'root'} must be {names}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"config {path} must be a finite number, got {value!r}")
        if float in kinds and isinstance(value, int):
            try:
                float(value)
            except OverflowError:
                raise ValidationError(f"config {path} must be a finite number, "
                                      "got an integer too large for a float") from None
    return value


def _model_spec(entry, path: str) -> ModelSpec:
    """One ``models`` entry; hyperparameters take the types of their defaults."""
    if isinstance(_check_config(entry, (str, dict), path), str):
        entry = {"name": entry}
    _check_config(entry, {"name": str, "hyperparams": dict, "grid": list}, path)
    if "hyperparams" in entry and "grid" in entry:
        # the winning grid point would be used alone and the fixed values dropped
        raise ValidationError(f"config {path} has both hyperparams and a grid; "
                              "give every grid point its full settings instead")
    name, grid = entry.get("name", ""), entry.get("grid")
    if name not in MODEL_FACTORIES:
        raise ValidationError(f"unknown model {name!r}; expected one of {sorted(MODEL_FACTORIES)}")
    if grid == []:
        raise ValidationError(f"model {name!r} has an empty tuning grid")
    params = inspect.signature(MODEL_FACTORIES[name]).parameters.values()
    schema = {p.name: type(p.default) for p in params}
    hyperparams = dict(_check_config(entry.get("hyperparams", {}), schema, f"{path}.hyperparams"))
    try:  # the constructors check values, so a bad one fails here, not after earlier fits
        MODEL_FACTORIES[name](**hyperparams)
    except ValidationError as exc:
        raise ValidationError(f"config {path}.hyperparams: {exc}") from exc
    if grid is not None:
        grid = [dict(_check_config(point, schema, f"{path}.grid[{j}]"))
                for j, point in enumerate(grid)]
    return ModelSpec(name, hyperparams, grid)


@dataclass
class ExperimentConfig:
    """The config as its own keys, every default written out by ``from_dict``.

    ``dataset`` is ``{"seed", "synthetic": SyntheticConfig}`` or ``{"seed",
    "interactions", "groups"}``; ``split`` is ``{"holdout_fraction", "seed"}``.
    """

    seed: int
    dataset: dict
    split: dict
    models: list[ModelSpec]
    top_n: int
    ap_k: int | None
    tune_seed: int
    popularity_scope: str
    gap_profile: str

    def __post_init__(self):
        # every derived seed (seed + 101 * (position + 1), tune_seed) is then >= 0
        for key, value in (("seed", self.seed), ("dataset.seed", self.dataset["seed"]),
                           ("split.seed", self.split["seed"]), ("tune_seed", self.tune_seed)):
            if value < 0:
                raise ValidationError(f"config {key} must be >= 0, got {value}")
        if not 0 < self.split["holdout_fraction"] < 1:
            raise ValidationError("split fraction must be in (0, 1)")
        if self.top_n < 1:
            raise ValidationError("top_n must be >= 1")
        if self.ap_k is not None and self.ap_k < 1:
            raise ValidationError("ap_k must be >= 1")
        if self.popularity_scope not in ("all-data", "train-only"):
            raise ValidationError(f"unknown popularity scope {self.popularity_scope!r}")
        if self.gap_profile not in ("full", "train"):
            raise ValidationError(f"unknown gap profile {self.gap_profile!r}")
        if not self.models:
            raise ValidationError("config lists no models")
        first: dict[str, int] = {}
        for i, spec in enumerate(self.models):
            j = first.setdefault(spec.name, i)
            if j != i:  # reports are keyed by model name, so one result would be lost
                raise ValidationError(
                    f"config models[{i}] lists model {spec.name!r} again, after models[{j}]"
                )

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Build a config from parsed JSON; unknown keys and wrong types are errors."""
        _check_config(raw, _CONFIG_SCHEMA)
        seed = raw.get("seed", 0)
        given = raw.get("dataset", {})
        if (given.get("interactions") is None) == ("synthetic" not in given):
            raise ValidationError(
                "config needs exactly one dataset source: interactions file or synthetic"
            )
        dataset = {"seed": given.get("seed", seed)}
        if "synthetic" in given:
            if given.get("groups") is not None:
                # the file would never be opened: synthetic users get mainstream groups
                raise ValidationError("config dataset.groups is read only with "
                                      "dataset.interactions, not with dataset.synthetic")
            syn = {k: tuple(v) if isinstance(v, list) else v
                   for k, v in given["synthetic"].items()}
            try:
                dataset["synthetic"] = SyntheticConfig(**syn)
            except (TypeError, ValidationError) as exc:
                raise ValidationError(f"config dataset.synthetic: {exc}") from exc
        elif "seed" in given:
            # only the synthetic generator draws from it
            raise ValidationError("config dataset.seed is read only with "
                                  "dataset.synthetic, not with dataset.interactions")
        else:
            dataset.update(interactions=given["interactions"], groups=given.get("groups"))
        split = raw.get("split", {})
        return cls(
            seed=seed,
            dataset=dataset,
            split={"holdout_fraction": float(split.get("holdout_fraction", 0.2)),
                   "seed": split.get("seed", seed)},
            models=[_model_spec(m, f"models[{i}]") for i, m in enumerate(raw.get("models", []))],
            top_n=raw.get("top_n", 10),
            ap_k=raw.get("ap_k"),
            tune_seed=raw.get("tune_seed", seed),
            popularity_scope=raw.get("popularity_scope", "all-data"),
            gap_profile=raw.get("gap_profile", "full"),
        )

    def config_hash(self) -> str:
        canon = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def build_model(name: str, hyperparams: dict, default_seed: int = 0) -> RecommenderModel:
    """Instantiate a model by name, filling in a derived seed when absent."""
    params = dict(hyperparams)
    seed_key = _SEED_PARAM.get(name)
    if seed_key and seed_key not in params:
        params[seed_key] = default_seed
    try:
        return MODEL_FACTORIES[name](**params)
    except TypeError as exc:
        raise ValidationError(f"bad hyperparameters for {name!r}: {exc}") from exc


@dataclass
class GroupMetrics:
    """Per-(model, group) slice of the final report."""

    n_users: int
    n_skipped: int
    auc_mean: float
    auc_stderr: float
    gap_p: float
    gap_r: float
    delta_gap: float


@dataclass
class ModelEvaluation:
    per_user_auc: np.ndarray
    top_n: list[np.ndarray]
    groups: dict[str, GroupMetrics]


@dataclass
class ExperimentReport:
    """Mean AUC with stderr and GAP lift per model and mainstream group."""

    model_groups: dict[str, dict[str, GroupMetrics]]
    provenance: dict
    tuning_results: dict = field(default_factory=dict)

    # kv names of GroupMetrics' fields, in field order
    _METRICS = ("users", "skipped", "auc_mean", "auc_stderr", "gap_p", "gap_r", "delta_gap")

    def to_kv_lines(self) -> list[str]:
        lines = []
        for key in sorted(self.provenance):
            lines.append(f"provenance.{key}={self.provenance[key]}")
        for model, groups in self.model_groups.items():
            for group, gm in groups.items():
                for metric, value in zip(self._METRICS, astuple(gm)):
                    lines.append(f"{metric}.{model}.{group}={value:.6f}")
        return lines

    def to_text(self) -> str:
        header = (
            f"{'model':<12} {'group':<8} {'users':>6} {'skipped':>8} "
            f"{'mean_auc':>9} {'stderr':>9} {'gap_p':>9} {'gap_r':>9} {'delta_gap':>10}"
        )
        lines = ["Accuracy and popularity lift by model and user group", "", header,
                 "-" * len(header)]
        for model, groups in self.model_groups.items():
            for group, gm in groups.items():
                lines.append(
                    f"{model:<12} {group:<8} {gm.n_users:>6d} {gm.n_skipped:>8d} "
                    f"{gm.auc_mean:>9.4f} {gm.auc_stderr:>9.4f} {gm.gap_p:>9.4f} "
                    f"{gm.gap_r:>9.4f} {gm.delta_gap:>10.4f}"
                )
        lines.append("")
        lines.append("Provenance")
        for key in sorted(self.provenance):
            lines.append(f"  {key} = {self.provenance[key]}")
        lines.append("")
        return "\n".join(lines)

    def write(self, out_dir) -> tuple[Path, Path]:
        return write_lines({Path(out_dir) / "report.txt": [self.to_text().removesuffix("\n")],
                            Path(out_dir) / "report.kv": self.to_kv_lines()})


# Fixes the report's group order: each model's groups are written in this
# dict's order, "all" then GROUP_LABELS, with empty groups left out by the caller.
def _group_indices(group_labels: list[str], num_users: int) -> dict[str, np.ndarray]:
    groups = {"all": np.arange(num_users)}
    labels_arr = np.asarray(group_labels, dtype=object)
    for label in GROUP_LABELS:
        groups[label] = np.flatnonzero(labels_arr == label)
    return groups


def _ranked_users(model, split: SplitDataset, top_n: int | None = None):
    """Yield ``(top, ranks, num_candidates)`` for every user, in user order.

    ``top`` holds the user's first ``top_n`` candidates (profile excluded) in
    rank order, or is None when ``top_n`` is None.  ``ranks`` holds the
    ascending positions of the held-out artists in the full ranking, or is
    None when the user has no held-out artist or no negative candidate.  The
    full ranking itself is never built.  Raises ``ValidationError`` when a
    held-out artist is not among the candidates, as ``RankedCandidates`` does,
    and ``NumericalError`` naming the user when a score is not finite.
    """
    for u, positives in enumerate(split.masked):
        scores = model.score_user(u)
        if not np.isfinite(scores).all():
            raise NumericalError(f"non-finite score for user {split.train.users[u]!r}")
        profile = split.train.profile(u)
        top = None if top_n is None else rank_candidates(scores, exclude=profile, n=top_n)
        ranks, num_candidates = positive_ranks(scores, profile, positives)
        if len(positives) == 0 or num_candidates == len(positives):
            ranks = None
        yield top, ranks, num_candidates


def evaluate_model(
    model: RecommenderModel,
    profiles: InteractionDataset,
    split: SplitDataset,
    phi: np.ndarray,
    group_labels: list[str],
    top_n: int = 10,
) -> ModelEvaluation:
    """Per-user AUC and retained top-N, aggregated per mainstream group.

    Users whose masked set is empty, or whose candidate list has no negative,
    are skipped for AUC and counted.  GAP_p averages each group's profiles in
    ``profiles`` (the dataset, or its train split); GAP_r runs over every user
    with a non-empty recommendation list.  AUC comes from where the positives
    land in the ranking, by the same integer formula as ``metrics.auc``; only
    the top-N list and those positions are computed, never the full ranking.
    """
    num_users = profiles.num_users
    per_user_auc = np.full(num_users, math.nan)
    tops = []
    for u, (top, ranks, num_candidates) in enumerate(_ranked_users(model, split, top_n)):
        tops.append(top)
        if ranks is None:
            continue
        p = len(ranks)
        n = num_candidates - p
        # concordant pairs = sum over positives of negatives ranked below them
        per_user_auc[u] = (p * n + p * (p - 1) // 2 - int(ranks.sum())) / (p * n)

    group_metrics = {}
    for group, idx in _group_indices(group_labels, num_users).items():
        if idx.size == 0:
            continue
        aucs = per_user_auc[idx]
        valid = aucs[~np.isnan(aucs)]
        auc_mean, auc_stderr = mean_with_stderr(valid) if valid.size else (math.nan, None)
        gap_p = gap((profiles.profile(int(u)) for u in idx), phi)
        rec_sets = [tops[int(u)] for u in idx if len(tops[int(u)])]
        gap_r = gap(rec_sets, phi) if rec_sets else math.nan
        group_metrics[group] = GroupMetrics(
            n_users=int(idx.size),
            n_skipped=int(idx.size - valid.size),
            auc_mean=auc_mean,
            auc_stderr=auc_stderr if auc_stderr is not None else math.nan,
            gap_p=gap_p,
            gap_r=gap_r,
            delta_gap=delta_gap(gap_p, gap_r) if rec_sets else math.nan,
        )
    return ModelEvaluation(per_user_auc=per_user_auc, top_n=tops, groups=group_metrics)


def _mean_ap(model, split: SplitDataset, k: int) -> float | None:
    """Mean AP@K over the users with an evaluable holdout (``tune`` checks k >= 1).

    Each user's AP@K is summed over the hits in the top K in rank order, in
    the same float operations as ``metrics.average_precision_at_k``.
    """
    values = []
    for _, ranks, _ in _ranked_users(model, split):
        if ranks is None:
            continue
        total = 0.0
        for hits, rank0 in enumerate(ranks[: np.searchsorted(ranks, k)].tolist(), start=1):
            total += hits / (rank0 + 1)
        values.append(total / min(k, len(ranks)))
    if not values:
        return None
    return float(np.mean(values))


def tune(
    model_name: str,
    grid: list[dict],
    train: InteractionDataset,
    tune_seed: int,
    ap_k: int | None = None,
) -> tuple[dict, list[dict]]:
    """Pick the grid point with the best mean AP@K on an inner validation split.

    A tenth of each training profile is re-masked (seed-derived) as the inner
    validation positives.  Failed grid points are recorded and excluded; ties
    break in declared grid order.  Returns (winner, full log).
    """
    if not grid:
        raise ValidationError("tuning grid is empty")
    k = ap_k if ap_k is not None else default_ap_k(train.num_artists)
    if k < 1:
        raise ValidationError(f"ap_k must be >= 1, got {k}")
    inner = split_mask(train, 0.1, seed=tune_seed)
    log: list[dict] = []
    best_idx = None
    best_score = -math.inf
    for gi, params in enumerate(grid):
        try:
            model = build_model(model_name, params, default_seed=tune_seed)
            model.fit(inner.train)
            score = _mean_ap(model, inner, k)
            if score is None:
                raise UndefinedMetricError("no user had an evaluable inner holdout")
            log.append({"hyperparams": params, "mean_ap": score, "error": None})
            _log.info("tune %s point %d: AP@%d = %.6f (%s)", model_name, gi, k, score, params)
            if score > best_score:
                best_score = score
                best_idx = gi
        except PopBiasError as exc:
            log.append({"hyperparams": params, "mean_ap": None, "error": str(exc)})
            _log.warning("tune %s point %d failed: %s", model_name, gi, exc)
    if best_idx is None:
        raise TuningError(f"every grid point failed for model {model_name!r}")
    _log.info("tune %s winner: point %d %s", model_name, best_idx, grid[best_idx])
    return dict(grid[best_idx]), log


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PopBiasError as exc:
        exc.args = (f"stage {name!r}: {exc}",)
        raise
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        raise NumericalError(f"stage {name!r}: out of memory{detail}") from exc


def load_split(config: ExperimentConfig) -> tuple[InteractionDataset, SplitDataset]:
    """The config's dataset and its split, run as the ``dataset`` and ``split`` stages."""
    source = config.dataset
    if "synthetic" in source:
        dataset = _stage("dataset", generate_synthetic, source["synthetic"], source["seed"])
    else:
        dataset = _stage("dataset", ingest_interactions, source["interactions"], source["groups"])
    return dataset, _stage("split", split_mask, dataset, **config.split)


def tune_model(spec: ModelSpec, train: InteractionDataset, config: ExperimentConfig):
    """``tune`` of ``spec``'s grid on ``train``, run as its ``tune:<model>`` stage."""
    return _stage(f"tune:{spec.name}", tune, spec.name, spec.grid, train,
                  config.tune_seed, config.ap_k)


def run_experiment(config: ExperimentConfig, out_dir=None) -> ExperimentReport:
    """Run the full pipeline described in the module docstring.

    When ``out_dir`` is given, writes ``report.txt`` and ``report.kv`` there;
    an ``out_dir`` that cannot be written is rejected before any stage runs.
    Any stage failure raises with a stage-tagged message and leaves no
    partial report files behind.  The reports are moved into place only once
    both are written, so a write that fails also leaves an earlier run's
    reports as they were.
    """
    if out_dir is not None:
        check_writable_dir(out_dir)
    dataset, split = load_split(config)
    phi_all = _stage("popularity", compute_popularity, dataset)
    if config.popularity_scope == "train-only":
        phi_eval = _stage("popularity", compute_popularity, split.train)
    else:
        phi_eval = phi_all
    profiles = dataset if config.gap_profile == "full" else split.train
    if dataset.group_labels is not None:
        group_labels = dataset.group_labels
    else:
        group_labels = _stage("groups", assign_mainstream_groups, dataset, phi_all)

    model_groups: dict[str, dict[str, GroupMetrics]] = {}
    tuning_results: dict[str, list[dict]] = {}
    for position, spec in enumerate(config.models):
        default_seed = config.seed + 101 * (position + 1)
        if spec.grid is not None:
            hyper, log = tune_model(spec, split.train, config)
            tuning_results[spec.name] = log
        else:
            hyper = spec.hyperparams
        model = build_model(spec.name, hyper, default_seed)
        _stage(f"fit:{spec.name}", model.fit, split.train)
        evaluation = _stage(
            f"evaluate:{spec.name}", evaluate_model, model, profiles, split, phi_eval,
            group_labels, config.top_n,
        )
        model_groups[spec.name] = evaluation.groups

    provenance = {
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "seed.dataset": config.dataset["seed"],
        "seed.split": config.split["seed"],
        "seed.tune": config.tune_seed,
        "version.popbias": __version__,
        "version.numpy": np.__version__,
        "version.scipy": scipy.__version__,
        "version.python": ".".join(map(str, sys.version_info[:3])),
    }
    report = ExperimentReport(
        model_groups=model_groups, provenance=provenance, tuning_results=tuning_results
    )
    if out_dir is not None:
        _stage("report", report.write, out_dir)
    return report
