import json
import math

import numpy as np
import pytest
from pytest import approx

from popbias.corpus import SplitDataset, SyntheticConfig, compute_popularity, split_mask
from popbias.errors import TuningError, ValidationError
from popbias.harness import (
    ExperimentConfig,
    ModelSpec,
    build_model,
    default_ap_k,
    emit_tail_plot_data,
    evaluate_model,
    run_experiment,
    tune,
)
from popbias.harness.experiment import _mean_ap
from popbias.models import PopularityRecommender

import ranking_reference
from conftest import OracleModel, make_dataset


def clique_dataset():
    """Two separable user cliques, with low-index decoy artists.

    A score-free ranking falls back to ascending artist index and hits the
    decoys first, so models that learn the clique structure clearly win on
    AP; the decoys belong to a lone junk user only.
    """
    counts = np.zeros((31, 40), dtype=np.int64)
    counts[0, :20] = 1  # junk user owns the decoy artists
    a_items = list(range(20, 30))
    b_items = list(range(30, 40))
    for k, u in enumerate(range(1, 16)):
        keep = [a_items[j] for j in range(10) if j != (k % 10) and j != ((k + 3) % 10)]
        counts[u, keep] = 1
    for k, u in enumerate(range(16, 31)):
        keep = [b_items[j] for j in range(10) if j != (k % 10) and j != ((k + 3) % 10)]
        counts[u, keep] = 1
    return make_dataset(counts)


def tiny_raw_config(**overrides):
    raw = {
        "seed": 5,
        "dataset": {
            "synthetic": {
                "num_users": 45,
                "num_artists": 80,
                "zipf_exponent": 1.0,
                "profile_size_range": [4, 10],
            },
            "seed": 2,
        },
        "split": {"holdout_fraction": 0.2, "seed": 3},
        "models": [{"name": "popularity"}, {"name": "random"}],
        "top_n": 10,
    }
    raw.update(overrides)
    return raw


class TestConfig:
    def test_from_dict_round_trip_hash_stable(self):
        a = ExperimentConfig.from_dict(tiny_raw_config())
        b = ExperimentConfig.from_dict(tiny_raw_config())
        assert a.config_hash() == b.config_hash()

    def test_hash_changes_with_content(self):
        a = ExperimentConfig.from_dict(tiny_raw_config())
        b = ExperimentConfig.from_dict(tiny_raw_config(seed=6))
        assert a.config_hash() != b.config_hash()

    def test_unknown_model_rejected(self):
        with pytest.raises(ValidationError, match="unknown model"):
            ExperimentConfig.from_dict(tiny_raw_config(models=[{"name": "svdpp"}]))

    def test_needs_exactly_one_source(self):
        raw = tiny_raw_config()
        raw["dataset"] = {"interactions": "x.tsv", "synthetic": {"num_users": 3, "num_artists": 5}}
        with pytest.raises(ValidationError, match="exactly one dataset source"):
            ExperimentConfig.from_dict(raw)

    def test_bad_fraction_rejected(self):
        raw = tiny_raw_config(split={"holdout_fraction": 1.5, "seed": 0})
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict(raw)

    def test_default_ap_k(self):
        assert default_ap_k(300_000) == 5000
        assert default_ap_k(2000) == 50
        assert default_ap_k(10_000) == 200


class TestTune:
    def test_singleton_grid_wins(self):
        ds = clique_dataset()
        best, log = tune("wrmf", [{"factors": 2, "sweeps": 2}], ds, tune_seed=0)
        assert best == {"factors": 2, "sweeps": 2}
        assert len(log) == 1 and log[0]["error"] is None

    def test_huge_ridge_loses_to_small_ridge(self):
        ds = clique_dataset()
        grid = [
            {"factors": 4, "sweeps": 5, "alpha": 5.0, "ridge": 1e9},
            {"factors": 4, "sweeps": 5, "alpha": 5.0, "ridge": 0.1},
        ]
        best, log = tune("wrmf", grid, ds, tune_seed=1)
        assert best["ridge"] == 0.1
        assert log[0]["mean_ap"] < log[1]["mean_ap"]

    def test_ties_break_in_grid_order(self):
        ds = clique_dataset()
        point = {"factors": 3, "sweeps": 2, "init_seed": 4}
        best, log = tune("wrmf", [dict(point), dict(point)], ds, tune_seed=2)
        assert log[0]["mean_ap"] == log[1]["mean_ap"]
        assert best == point

    def test_failed_points_recorded_and_excluded(self):
        ds = clique_dataset()
        grid = [{"factors": 0}, {"factors": 2, "sweeps": 2}]
        best, log = tune("wrmf", grid, ds, tune_seed=0)
        assert log[0]["error"] is not None
        assert best == {"factors": 2, "sweeps": 2}

    def test_all_failed_raises_tuning_error(self):
        ds = clique_dataset()
        with pytest.raises(TuningError):
            tune("wrmf", [{"factors": 0}, {"ridge": -1}], ds, tune_seed=0)

    def test_deterministic(self):
        ds = clique_dataset()
        grid = [{"factors": 3, "sweeps": 3, "ridge": 0.2},
                {"factors": 3, "sweeps": 3, "ridge": 2.0}]
        r1 = tune("wrmf", grid, ds, tune_seed=5)
        r2 = tune("wrmf", grid, ds, tune_seed=5)
        assert r1 == r2


class TestEvaluate:
    def test_perfect_oracle_auc_exactly_one(self, zipf_dataset, zipf_split, zipf_pop):
        oracle = OracleModel(zipf_split)
        ev = evaluate_model(oracle, zipf_dataset, zipf_split, zipf_pop,
                            zipf_dataset.group_labels)
        assert ev.groups["all"].auc_mean == 1.0
        assert ev.groups["all"].n_skipped == 0

    @pytest.mark.parametrize("name", ["popularity", "random", "slim", "wrmf", "multivae",
                                      "oracle"])
    def test_matches_reference_evaluation(self, name, zipf_dataset, zipf_split, zipf_pop):
        if name == "oracle":
            model = OracleModel(zipf_split)
        else:
            hyper = {"slim": {"l1_penalty": 0.5, "l2_penalty": 1.0, "max_iters": 20},
                     "wrmf": {"factors": 8, "sweeps": 3},
                     "multivae": {"epochs": 3, "latent_dim": 8, "hidden_dim": 16}}
            model = build_model(name, hyper.get(name, {}), default_seed=4).fit(zipf_split.train)
        ev = evaluate_model(model, zipf_dataset, zipf_split, zipf_pop,
                            zipf_dataset.group_labels, top_n=7)
        ref_auc, ref_tops = ranking_reference.evaluate_users(model, zipf_split, 7)
        assert ev.per_user_auc.tobytes() == ref_auc.tobytes()
        assert [t.tolist() for t in ev.top_n] == [t.tolist() for t in ref_tops]
        for k in (1, 5, default_ap_k(zipf_dataset.num_artists), 10_000):
            assert _mean_ap(model, zipf_split, k) == ranking_reference.mean_ap(
                model, zipf_split, k)

    def test_top_n_lists_own_their_data(self, zipf_dataset, zipf_split, zipf_pop):
        # a view into the full ordering would keep every ordering alive
        model = PopularityRecommender().fit(zipf_split.train)
        ev = evaluate_model(model, zipf_dataset, zipf_split, zipf_pop,
                            zipf_dataset.group_labels)
        assert all(top.base is None for top in ev.top_n)

    def test_positive_inside_training_profile_rejected(self):
        ds = make_dataset([[1, 1, 0, 0, 0, 0], [1, 1, 1, 1, 0, 0]])
        split = split_mask(ds, 0.5, seed=0)
        # user 1's holdout claims an artist it keeps in its training profile
        masked = list(split.masked)
        masked[1] = np.union1d(masked[1], split.train.profile(1)[:1])
        bad = SplitDataset(train=split.train, masked=masked, seed=0, holdout_fraction=0.5)
        model = PopularityRecommender().fit(split.train)
        with pytest.raises(ValidationError, match="not a subset"):
            evaluate_model(model, ds, bad, compute_popularity(ds), ["low", "high"])
        with pytest.raises(ValidationError, match="not a subset"):
            _mean_ap(model, bad, 2)

    def test_skipped_users_counted(self):
        # single-artist users have empty masked sets and cannot be scored by AUC
        ds = make_dataset([[3], [2]])
        split = split_mask(ds, 0.2, seed=0)
        pop = compute_popularity(ds)
        model = PopularityRecommender().fit(split.train)
        ev = evaluate_model(model, ds, split, pop, ["low", "high"])
        assert ev.groups["all"].n_skipped == 2
        assert math.isnan(ev.groups["all"].auc_mean)


class TestRunExperiment:
    def test_sign_pattern_popularity_positive_random_negative(self):
        config = ExperimentConfig.from_dict(tiny_raw_config())
        report = run_experiment(config)
        pop_delta = report.model_groups["popularity"]["all"].delta_gap
        rand_delta = report.model_groups["random"]["all"].delta_gap
        assert pop_delta > 0 > rand_delta

    def test_report_group_counts_sum_to_all(self):
        report = run_experiment(ExperimentConfig.from_dict(tiny_raw_config()))
        for groups in report.model_groups.values():
            total = sum(groups[g].n_users for g in ("low", "medium", "high"))
            assert groups["all"].n_users == total

    def test_delta_gap_consistent_with_gap_fields(self):
        report = run_experiment(ExperimentConfig.from_dict(tiny_raw_config()))
        for groups in report.model_groups.values():
            for gm in groups.values():
                recomputed = (gm.gap_r - gm.gap_p) / gm.gap_p
                assert abs(recomputed - gm.delta_gap) <= 1e-12

    def test_all_auc_is_weighted_mean_of_group_aucs(self):
        report = run_experiment(ExperimentConfig.from_dict(tiny_raw_config()))
        for groups in report.model_groups.values():
            weights, means = [], []
            for g in ("low", "medium", "high"):
                n_valid = groups[g].n_users - groups[g].n_skipped
                if n_valid:
                    weights.append(n_valid)
                    means.append(groups[g].auc_mean)
            combined = float(np.average(means, weights=weights))
            assert combined == approx(groups["all"].auc_mean, abs=1e-12)

    def test_popularity_gap_r_dominates_at_report_level(self):
        raw = tiny_raw_config(models=[
            {"name": "popularity"},
            {"name": "random"},
            {"name": "wrmf", "hyperparams": {"factors": 8, "sweeps": 4}},
        ])
        report = run_experiment(ExperimentConfig.from_dict(raw))
        for group in ("all", "low", "medium", "high"):
            base = report.model_groups["popularity"][group].gap_r
            for name in ("random", "wrmf"):
                assert report.model_groups[name][group].gap_r <= base + 1e-12

    def test_rerun_byte_identical_kv(self, tmp_path):
        raw = tiny_raw_config(models=[
            {"name": "popularity"},
            {"name": "random"},
            {"name": "wrmf", "hyperparams": {"factors": 6, "sweeps": 3}},
        ])
        config = ExperimentConfig.from_dict(raw)
        run_experiment(config, out_dir=tmp_path / "one")
        run_experiment(config, out_dir=tmp_path / "two")
        kv1 = (tmp_path / "one" / "report.kv").read_bytes()
        kv2 = (tmp_path / "two" / "report.kv").read_bytes()
        assert kv1 == kv2
        txt1 = (tmp_path / "one" / "report.txt").read_bytes()
        txt2 = (tmp_path / "two" / "report.txt").read_bytes()
        assert txt1 == txt2

    def test_tuned_model_inside_run(self):
        raw = tiny_raw_config(models=[
            {"name": "wrmf", "grid": [
                {"factors": 4, "sweeps": 3, "ridge": 1e9},
                {"factors": 4, "sweeps": 3, "ridge": 0.5},
            ]},
        ])
        report = run_experiment(ExperimentConfig.from_dict(raw))
        assert "wrmf" in report.model_groups
        assert report.tuning_results["wrmf"][1]["mean_ap"] is not None

    def test_missing_interactions_file_tagged_with_stage(self):
        raw = tiny_raw_config()
        raw["dataset"] = {"interactions": "/nonexistent/file.tsv"}
        with pytest.raises(ValidationError, match="stage 'dataset'"):
            run_experiment(ExperimentConfig.from_dict(raw))

    def test_kv_lines_shape(self):
        report = run_experiment(ExperimentConfig.from_dict(tiny_raw_config()))
        lines = report.to_kv_lines()
        assert any(line.startswith("auc_mean.popularity.all=") for line in lines)
        for line in lines:
            key, value = line.split("=", 1)
            assert key
            if not key.startswith("provenance."):
                float(value)  # parses


class TestTailPlot:
    def test_files_written(self, tmp_path, zipf_dataset):
        stats, (rank_path, cov_path) = emit_tail_plot_data(zipf_dataset, tmp_path)
        ranks = [l for l in rank_path.read_text().splitlines() if not l.startswith("#")]
        assert len(ranks) == zipf_dataset.num_artists
        phis = [float(l.split("\t")[1]) for l in ranks]
        assert phis == sorted(phis, reverse=True)
        covs = [l for l in cov_path.read_text().splitlines() if not l.startswith("#")]
        assert covs[-1].split("\t")[0] == "1.000000"

    def test_uniform_dataset_constant_phi(self, tmp_path):
        ds = make_dataset(np.ones((5, 8), dtype=int))
        _, (rank_path, _) = emit_tail_plot_data(ds, tmp_path)
        phis = {
            l.split("\t")[1]
            for l in rank_path.read_text().splitlines()
            if not l.startswith("#")
        }
        assert phis == {"1.000000"}

    def test_zipf_series_decreasing_convex_tail(self, tmp_path):
        config = SyntheticConfig(num_users=120, num_artists=200, zipf_exponent=1.0,
                                 profile_size_range=(5, 20))
        from popbias.corpus import generate_synthetic

        ds = generate_synthetic(config, seed=4)
        _, (rank_path, _) = emit_tail_plot_data(ds, tmp_path)
        phis = np.array([
            float(l.split("\t")[1])
            for l in rank_path.read_text().splitlines()
            if not l.startswith("#")
        ])
        assert np.all(np.diff(phis) <= 0)
        # head much taller than the median artist: a long-tail signature
        assert phis[0] > 5 * np.median(phis)


class TestBuildModel:
    def test_seed_filled_from_default(self):
        model = build_model("random", {}, default_seed=77)
        assert model.seed == 77

    def test_explicit_seed_wins(self):
        model = build_model("random", {"seed": 3}, default_seed=77)
        assert model.seed == 3

    def test_bad_hyperparams_name(self):
        with pytest.raises(ValidationError, match="bad hyperparameters"):
            build_model("wrmf", {"nonsense": 1})
