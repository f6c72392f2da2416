"""End-to-end experiment orchestration.

Pipeline: load or generate interactions -> mask a per-user holdout ->
(optionally grid-tune each model by mean AP@K on an inner validation split)
-> fit -> rank every artist per user with profile exclusion -> per-user AUC
plus retained top-N -> GAP / delta-GAP per mainstream group -> report.

Everything is deterministic given the seeds in the config: rerunning the
same config reproduces the report byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from .. import __version__
from ..corpus import (
    GROUP_LABELS,
    InteractionDataset,
    PopularityTable,
    SplitDataset,
    SyntheticConfig,
    assign_mainstream_groups,
    compute_popularity,
    generate_synthetic,
    ingest_interactions,
    long_tail_stats,
    split_mask,
)
from ..errors import PopBiasError, TuningError, UndefinedMetricError, ValidationError
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
from ..models import (
    MultiVaeRecommender,
    PopularityRecommender,
    RandomRecommender,
    RecommenderModel,
    SlimRecommender,
    WrmfRecommender,
    rank_candidates,
)

_log = logging.getLogger(__name__)

GROUP_ORDER = ("all",) + GROUP_LABELS

MODEL_FACTORIES = {
    "popularity": PopularityRecommender,
    "random": RandomRecommender,
    "slim": SlimRecommender,
    "wrmf": WrmfRecommender,
    "multivae": MultiVaeRecommender,
}

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
    hyperparams: dict = field(default_factory=dict)
    grid: list[dict] | None = None

    def __post_init__(self):
        if self.name not in MODEL_FACTORIES:
            raise ValidationError(
                f"unknown model {self.name!r}; expected one of {sorted(MODEL_FACTORIES)}"
            )
        if self.grid is not None and len(self.grid) == 0:
            raise ValidationError(f"model {self.name!r} has an empty tuning grid")


@dataclass
class ExperimentConfig:
    """Everything an experiment run needs, in one deterministic record."""

    models: list[ModelSpec]
    interactions_path: str | None = None
    groups_path: str | None = None
    synthetic: SyntheticConfig | None = None
    dataset_seed: int = 0
    holdout_fraction: float = 0.2
    split_seed: int = 0
    tune_seed: int = 0
    seed: int = 0
    top_n: int = 10
    ap_k: int | None = None
    popularity_scope: str = "all-data"
    gap_profile: str = "full"

    def __post_init__(self):
        if (self.interactions_path is None) == (self.synthetic is None):
            raise ValidationError(
                "config needs exactly one dataset source: interactions file or synthetic"
            )
        if not 0 < self.holdout_fraction < 1:
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

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        raw = dict(raw)
        seed = int(raw.get("seed", 0))
        dataset = raw.get("dataset")
        if not isinstance(dataset, dict):
            raise ValidationError("config is missing the 'dataset' section")
        interactions = dataset.get("interactions")
        groups = dataset.get("groups")
        synthetic = None
        dataset_seed = int(dataset.get("seed", seed))
        if "synthetic" in dataset:
            syn = dict(dataset["synthetic"])
            if "profile_size_range" in syn:
                syn["profile_size_range"] = tuple(syn["profile_size_range"])
            if "mainstream_mix" in syn:
                syn["mainstream_mix"] = tuple(syn["mainstream_mix"])
            try:
                synthetic = SyntheticConfig(**syn)
            except TypeError as exc:
                raise ValidationError(f"bad synthetic config: {exc}") from exc
        split = raw.get("split", {})
        models = []
        for entry in raw.get("models", []):
            if isinstance(entry, str):
                entry = {"name": entry}
            models.append(
                ModelSpec(
                    name=entry.get("name", ""),
                    hyperparams=dict(entry.get("hyperparams", {})),
                    grid=[dict(g) for g in entry["grid"]] if "grid" in entry else None,
                )
            )
        return cls(
            models=models,
            interactions_path=interactions,
            groups_path=groups,
            synthetic=synthetic,
            dataset_seed=dataset_seed,
            holdout_fraction=float(split.get("holdout_fraction", 0.2)),
            split_seed=int(split.get("seed", seed)),
            tune_seed=int(raw.get("tune_seed", seed)),
            seed=seed,
            top_n=int(raw.get("top_n", 10)),
            ap_k=int(raw["ap_k"]) if raw.get("ap_k") is not None else None,
            popularity_scope=raw.get("popularity_scope", "all-data"),
            gap_profile=raw.get("gap_profile", "full"),
        )

    def to_canonical_dict(self) -> dict:
        dataset: dict = {"seed": self.dataset_seed}
        if self.synthetic is not None:
            dataset["synthetic"] = {
                "num_users": self.synthetic.num_users,
                "num_artists": self.synthetic.num_artists,
                "zipf_exponent": self.synthetic.zipf_exponent,
                "profile_size_range": list(self.synthetic.profile_size_range),
                "mainstream_mix": list(self.synthetic.mainstream_mix),
                "count_geometric_p": self.synthetic.count_geometric_p,
            }
        else:
            dataset["interactions"] = self.interactions_path
            dataset["groups"] = self.groups_path
        return {
            "seed": self.seed,
            "dataset": dataset,
            "split": {"holdout_fraction": self.holdout_fraction, "seed": self.split_seed},
            "models": [
                {"name": m.name, "hyperparams": m.hyperparams, "grid": m.grid}
                for m in self.models
            ],
            "top_n": self.top_n,
            "ap_k": self.ap_k,
            "tune_seed": self.tune_seed,
            "popularity_scope": self.popularity_scope,
            "gap_profile": self.gap_profile,
        }

    def config_hash(self) -> str:
        canon = json.dumps(self.to_canonical_dict(), sort_keys=True, separators=(",", ":"))
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
    model_name: str
    per_user_auc: np.ndarray
    top_n: list[np.ndarray]
    groups: dict[str, GroupMetrics]


@dataclass
class ExperimentReport:
    """Mean AUC with stderr and GAP lift per model and mainstream group."""

    model_groups: dict[str, dict[str, GroupMetrics]]
    provenance: dict
    tuning_results: dict = field(default_factory=dict)

    _METRICS = ("users", "skipped", "auc_mean", "auc_stderr", "gap_p", "gap_r", "delta_gap")

    def _metric_value(self, gm: GroupMetrics, metric: str) -> float:
        if metric == "users":
            return float(gm.n_users)
        if metric == "skipped":
            return float(gm.n_skipped)
        return getattr(gm, metric)

    def to_kv_lines(self) -> list[str]:
        lines = []
        for key in sorted(self.provenance):
            lines.append(f"provenance.{key}={self.provenance[key]}")
        for model, groups in self.model_groups.items():
            for group in GROUP_ORDER:
                if group not in groups:
                    continue
                gm = groups[group]
                for metric in self._METRICS:
                    lines.append(f"{metric}.{model}.{group}={self._metric_value(gm, metric):.6f}")
        return lines

    def to_text(self) -> str:
        header = (
            f"{'model':<12} {'group':<8} {'users':>6} {'skipped':>8} "
            f"{'mean_auc':>9} {'stderr':>9} {'gap_p':>9} {'gap_r':>9} {'delta_gap':>10}"
        )
        lines = ["Accuracy and popularity lift by model and user group", "", header,
                 "-" * len(header)]
        for model, groups in self.model_groups.items():
            for group in GROUP_ORDER:
                if group not in groups:
                    continue
                gm = groups[group]
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
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        txt = out_dir / "report.txt"
        kv = out_dir / "report.kv"
        written = []
        try:
            txt.write_text(self.to_text(), encoding="utf-8")
            written.append(txt)
            kv.write_text("\n".join(self.to_kv_lines()) + "\n", encoding="utf-8")
            written.append(kv)
        except Exception:
            for path in written:
                path.unlink(missing_ok=True)
            raise
        return txt, kv


def _group_indices(group_labels: list[str], num_users: int) -> dict[str, np.ndarray]:
    groups = {"all": np.arange(num_users)}
    labels_arr = np.asarray(group_labels, dtype=object)
    for label in GROUP_LABELS:
        groups[label] = np.flatnonzero(labels_arr == label)
    return groups


def _positive_ranks(ordering: np.ndarray, positives: np.ndarray,
                    is_positive: np.ndarray) -> np.ndarray:
    """Ascending positions in ``ordering`` of the held-out ``positives``.

    ``is_positive`` is an all-False scratch mask over the artists, reused
    across users and left all-False on return.  Raises ``ValidationError``
    when a positive is not among the candidates, as ``RankedCandidates`` does.
    """
    is_positive[positives] = True
    ranks = np.flatnonzero(is_positive[ordering])
    num_positives = np.count_nonzero(is_positive)
    is_positive[positives] = False
    if len(ranks) != num_positives:
        raise ValidationError("positives are not a subset of the candidates")
    return ranks


def evaluate_model(
    model: RecommenderModel,
    dataset: InteractionDataset,
    split: SplitDataset,
    pop: PopularityTable,
    group_labels: list[str],
    top_n: int = 10,
    gap_profile: str = "full",
) -> ModelEvaluation:
    """Per-user AUC and retained top-N, aggregated per mainstream group.

    Users whose masked set is empty, or whose candidate list has no negative,
    are skipped for AUC and counted; GAP aggregates run over every user with
    a non-empty recommendation list.  AUC comes from where the positives land
    in the ranking, by the same integer formula as ``metrics.auc``.
    """
    num_users = dataset.num_users
    is_positive = np.zeros(split.train.num_artists, dtype=bool)
    per_user_auc = np.full(num_users, math.nan)
    tops = []
    for u in range(num_users):
        ordering = rank_candidates(model.score_user(u), exclude=split.train.profile(u))
        tops.append(ordering[:top_n].copy())  # a view would keep the whole ordering alive
        positives = split.masked[u]
        if len(positives) == 0 or len(ordering) - len(positives) == 0:
            continue
        ranks = _positive_ranks(ordering, positives, is_positive)
        p = len(ranks)
        n = len(ordering) - p
        # concordant pairs = sum over positives of negatives ranked below them
        per_user_auc[u] = (p * n + p * (p - 1) // 2 - int(ranks.sum())) / (p * n)

    profile_of = dataset.profile if gap_profile == "full" else split.train.profile
    group_metrics = {}
    for group, idx in _group_indices(group_labels, num_users).items():
        if idx.size == 0:
            continue
        aucs = per_user_auc[idx]
        valid = aucs[~np.isnan(aucs)]
        if valid.size:
            auc_mean, auc_stderr = mean_with_stderr(valid)
        else:
            auc_mean, auc_stderr = math.nan, None
        gap_p = gap((profile_of(int(u)) for u in idx), pop)
        rec_sets = [tops[int(u)] for u in idx if len(tops[int(u)])]
        gap_r = gap(rec_sets, pop) if rec_sets else math.nan
        group_metrics[group] = GroupMetrics(
            n_users=int(idx.size),
            n_skipped=int(idx.size - valid.size),
            auc_mean=auc_mean,
            auc_stderr=auc_stderr if auc_stderr is not None else math.nan,
            gap_p=gap_p,
            gap_r=gap_r,
            delta_gap=delta_gap(gap_p, gap_r) if rec_sets else math.nan,
        )
    return ModelEvaluation(
        model_name=model.model_type,
        per_user_auc=per_user_auc,
        top_n=tops,
        groups=group_metrics,
    )


def _mean_ap(model, split: SplitDataset, k: int) -> float | None:
    """Mean AP@K over the users with an evaluable holdout.

    Each user's AP@K is summed over the hits in the top K in rank order, in
    the same float operations as ``metrics.average_precision_at_k``.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    is_positive = np.zeros(split.train.num_artists, dtype=bool)
    values = []
    for u in range(split.train.num_users):
        positives = split.masked[u]
        if len(positives) == 0:
            continue
        ordering = rank_candidates(model.score_user(u), exclude=split.train.profile(u))
        if len(ordering) - len(positives) == 0:
            continue
        ranks = _positive_ranks(ordering, positives, is_positive)
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
    inner = split_mask(train, 0.1, seed=tune_seed)
    k = ap_k if ap_k is not None else default_ap_k(train.num_artists)
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


def _load_dataset(config: ExperimentConfig) -> InteractionDataset:
    if config.synthetic is not None:
        return generate_synthetic(config.synthetic, config.dataset_seed)
    return ingest_interactions(config.interactions_path, config.groups_path)


def run_experiment(config: ExperimentConfig, out_dir=None) -> ExperimentReport:
    """Run the full pipeline described in the module docstring.

    When ``out_dir`` is given, writes ``report.txt`` and ``report.kv`` there.
    Any stage failure raises with a stage-tagged message and leaves no
    partial report files behind.
    """
    dataset = _stage("dataset", _load_dataset, config)
    split = _stage("split", split_mask, dataset, config.holdout_fraction, config.split_seed)
    pop_all = _stage("popularity", compute_popularity, dataset)
    if config.popularity_scope == "train-only":
        pop_eval = _stage("popularity", compute_popularity, dataset, "train-only", split)
    else:
        pop_eval = pop_all
    if dataset.group_labels is not None:
        group_labels = dataset.group_labels
    else:
        group_labels = _stage("groups", assign_mainstream_groups, dataset, pop_all)

    model_groups: dict[str, dict[str, GroupMetrics]] = {}
    tuning_results: dict[str, list[dict]] = {}
    for position, spec in enumerate(config.models):
        default_seed = config.seed + 101 * (position + 1)
        if spec.grid is not None:
            hyper, log = _stage(
                f"tune:{spec.name}", tune, spec.name, spec.grid, split.train,
                config.tune_seed, config.ap_k,
            )
            tuning_results[spec.name] = log
        else:
            hyper = spec.hyperparams
        model = build_model(spec.name, hyper, default_seed)
        _stage(f"fit:{spec.name}", model.fit, split.train)
        evaluation = _stage(
            f"evaluate:{spec.name}", evaluate_model, model, dataset, split, pop_eval,
            group_labels, config.top_n, config.gap_profile,
        )
        model_groups[spec.name] = evaluation.groups

    provenance = {
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "seed.dataset": config.dataset_seed,
        "seed.split": config.split_seed,
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


def emit_tail_plot_data(dataset: InteractionDataset, out_dir, split=None):
    """Write the popularity-by-rank series and the coverage curve as TSV files."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pop = compute_popularity(dataset)
    order = np.lexsort((np.arange(dataset.num_artists), -pop.phi))
    rank_path = out_dir / "tail_rank_phi.tsv"
    with open(rank_path, "w", encoding="utf-8") as fh:
        fh.write("# rank\tphi\n")
        for rank, artist in enumerate(order, start=1):
            fh.write(f"{rank}\t{pop.phi[artist]:.6f}\n")
    stats = long_tail_stats(dataset, split)
    coverage_path = out_dir / "tail_coverage.tsv"
    stats.write_coverage(coverage_path)
    return stats, (rank_path, coverage_path)
