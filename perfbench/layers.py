"""Per-layer metrics from the spans of one traced run.

A span's self time is its duration minus the durations of its direct
children.  Each span also has a context, the nearest enclosing ``tune:*`` or
``evaluate:*`` span (or ``run`` outside both), which attributes shared calls
such as ``split_mask`` or ``rank_candidates`` to the stage that made them.
Names ending in ``_s`` are self time summed over calls; ``evaluate.<m>.s``
and ``tune.wrmf.s`` are whole-stage (inclusive) times.  Layers a workload
never calls report 0.
"""

from __future__ import annotations

MODELS = ("popularity", "random", "slim", "wrmf", "multivae")

# span name -> metric taking its summed self time, in every context
SELF_TIME = {
    "generate_synthetic": "corpus.synth_s",
    "ingest_interactions": "corpus.ingest_s",
    "compute_popularity": "corpus.popularity_s",
    "assign_mainstream_groups": "corpus.groups_s",
    "RankedCandidates": "metrics.ranked_candidates_s",
    "auc": "metrics.auc_s",
    "average_precision_at_k": "metrics.ap_at_k_s",
    "gap": "metrics.gap_s",
    "ExperimentReport.write": "report.write_s",
    "read_simulated_records": "gapcalc.read_s",
    "gapcalc": "gapcalc.compute_s",
    "GapcalcReport.write": "gapcalc.write_s",
    **{f"{m}.fit": f"{m}.fit_s" for m in ("slim", "wrmf", "multivae")},
    **{f"{m}.score": f"{m}.score_s" for m in MODELS},
}

# work counts the child stores with spans, summed over the run
COUNTS = ("pairs", "records", "nnz", "gram_bytes", "sweeps", "rows", "epochs", "steps",
          "points", "failed", "skipped")


def per_layer(spans: list[list], run_s: float, startup_s: float) -> dict[str, float]:
    """Every per-layer metric except ``trace_overhead_frac``, which needs an
    untraced run.  ``run_s`` is the traced run's wall time and ``startup_s``
    the part of it before ``cli.main`` started: interpreter start and imports."""
    n = len(spans)
    duration = [end - start for _, start, end, _, _ in spans]
    self_time = self_times(spans)
    # time a tune span spent fitting and re-splitting, not scoring for AP@K
    tune_fit_time = [0.0] * n
    context = ["run"] * n
    for i, (name, _, _, parent, _) in enumerate(spans):
        if name.startswith(("tune:", "evaluate:")):
            context[i] = name.split(":")[0]
        elif parent >= 0:
            context[i] = context[parent]  # a parent precedes its children
        if parent >= 0 and spans[parent][0].startswith("tune:") and (
            name == "split_mask" or name.endswith(".fit")
        ):
            tune_fit_time[parent] += duration[i]

    m = dict.fromkeys(SELF_TIME.values(), 0.0)
    m.update(dict.fromkeys(
        ("corpus.split_s", "evaluate.rank_s", "tune.wrmf.s", "tune.mean_ap_s"), 0.0))
    count = dict.fromkeys(COUNTS, 0)
    calls = dict.fromkeys(MODELS, 0)
    eval_s = dict.fromkeys(MODELS, 0.0)
    eval_users = dict.fromkeys(MODELS, 0)
    for i, (name, _, _, _, counts) in enumerate(spans):
        for key, value in (counts or {}).items():
            if key in count:
                count[key] += value
        if name in SELF_TIME:
            m[SELF_TIME[name]] += self_time[i]
        if name.endswith(".score"):
            calls[name.split(".")[0]] += 1
        elif name == "split_mask" and context[i] == "run":
            m["corpus.split_s"] += self_time[i]
        elif name == "rank_candidates" and context[i] == "evaluate":
            m["evaluate.rank_s"] += self_time[i]
        elif name.startswith("evaluate:"):
            model = name.split(":")[1]
            eval_s[model] += duration[i]
            eval_users[model] += counts["users"]
        elif name.startswith("tune:"):
            if name == "tune:wrmf":
                m["tune.wrmf.s"] += duration[i]
            m["tune.mean_ap_s"] += duration[i] - tune_fit_time[i]

    m["corpus.ingest_pairs_per_s"] = _rate(count["pairs"], m["corpus.ingest_s"])
    m["slim.weights_nnz"] = count["nnz"]
    m["slim.gram_bytes"] = count["gram_bytes"]
    m["wrmf.sweep_s"] = _rate(m["wrmf.fit_s"], count["sweeps"])
    m["wrmf.rows_solved"] = count["rows"]
    m["multivae.epoch_s"] = _rate(m["multivae.fit_s"], count["epochs"])
    m["multivae.steps"] = count["steps"]
    for model in MODELS:
        m[f"{model}.score_calls"] = calls[model]
        m[f"evaluate.{model}.s"] = eval_s[model]
        m[f"evaluate.{model}.users_per_s"] = _rate(eval_users[model], eval_s[model])
    m["evaluate.skipped_users"] = count["skipped"]
    m["tune.points"] = count["points"]
    m["tune.failed_points"] = count["failed"]
    m["gapcalc.records_per_s"] = _rate(count["records"], m["gapcalc.read_s"])
    m["startup_s"] = startup_s
    m["trace.spans"] = n
    m["trace.attributed_frac"] = _rate(startup_s + sum(self_time), run_s)
    return m


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration less the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def largest_self_times(spans: list[list], top: int = 8) -> list[tuple[str, float]]:
    """Summed self time per span name, largest first."""
    totals: dict[str, float] = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[name] = totals.get(name, 0.0) + own
    return sorted(totals.items(), key=lambda kv: -kv[1])[:top]


def _rate(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0
