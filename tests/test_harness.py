import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from popbias.corpus import (
    COVERAGE_FRACTIONS,
    GROUP_LABELS,
    SplitDataset,
    SyntheticConfig,
    assign_mainstream_groups,
    compute_popularity,
    emit_tail_plot_data,
    generate_synthetic,
    split_mask,
    user_mainstreaminess,
)
from popbias.errors import NumericalError, TuningError, ValidationError
from popbias.harness.experiment import (
    ExperimentConfig,
    ModelSpec,
    _mean_ap,
    build_model,
    default_ap_k,
    evaluate_model,
    run_experiment,
    tune,
)
from popbias.metrics import gap
from popbias.models import PopularityRecommender, WrmfRecommender

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


# Every key name the config accepts at some level.
CONFIG_KEYS = {
    "seed", "dataset", "split", "models", "top_n", "ap_k", "tune_seed",
    "popularity_scope", "gap_profile", "interactions", "groups", "synthetic",
    "num_users", "num_artists", "zipf_exponent", "profile_size_range",
    "mainstream_mix", "count_geometric_p", "holdout_fraction", "name",
    "hyperparams", "grid",
}


def _keys(section, path=""):
    """Yield (section, key, path of the section) for every key of a raw config."""
    for key, value in section.items():
        where = f"{path}.{key}" if path else key
        yield section, key, path
        if isinstance(value, dict):
            yield from _keys(value, where)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    yield from _keys(item, f"{where}[{i}]")


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

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"### Experiment config\n.*?```json\n(.*?)```", readme, re.S)
        config = ExperimentConfig.from_dict(json.loads(block.group(1)))
        assert config.config_hash() == "37a71a4f63a970e0"
        assert [m.name for m in config.models] == [
            "popularity", "random", "slim", "wrmf", "multivae",
        ]

    @pytest.mark.parametrize("path, value, message", [
        (("seed",), 1.7, "seed must be int"),
        (("top_n",), True, "top_n must be int"),
        (("ap_k",), "5", "ap_k must be int or null"),
        (("split", "holdout_fraction"), "0.2", "split.holdout_fraction must be float"),
        (("dataset", "synthetic", "profile_size_range"), [4, 10, 12],
         "profile_size_range must have 2 entries"),
        (("dataset", "synthetic", "profile_size_range"), [4, 10.0],
         r"profile_size_range\[1\] must be int"),
        (("dataset", "synthetic", "mainstream_mix"), [0.3, None, 2.2],
         r"mainstream_mix\[1\] must be float"),
        (("models",), {"name": "popularity"}, "models must be list"),
        (("models",), [{"name": "wrmf", "grid": {"factors": 4}}], r"models\[0\].grid must be list"),
        (("models",), [{"name": "wrmf", "grid": [4]}], r"models\[0\].grid\[0\] must be dict"),
        (("models",), [{"name": "slim", "hyperparams": {"l1": 1.0}}],
         r"'models\[0\].hyperparams.l1'"),
        (("models",), [{"name": "wrmf", "grid": [{"factors": 4}, {"factor": 4}]}],
         r"'models\[0\].grid\[1\].factor'"),
        (("models",), [{"name": "wrmf", "hyperparams": {"factors": 4.0}}],
         r"models\[0\].hyperparams.factors must be int"),
        (("models",), [{"name": "slim", "grid": [{"binarize": 1}]}],
         r"models\[0\].grid\[0\].binarize must be bool"),
        (("models",), [{"name": "popularity", "hyperparams": {"weighting": None}}],
         r"weighting must be str"),
        (("split", "holdout_fraction"), math.nan, "split.holdout_fraction must be a finite"),
        (("dataset", "synthetic", "zipf_exponent"), math.inf, "zipf_exponent must be a finite"),
        (("dataset", "synthetic", "mainstream_mix"), [math.nan, 1.0, 2.2],
         r"mainstream_mix\[0\] must be a finite number, got nan"),
        (("models",), [{"name": "slim", "hyperparams": {"l1_penalty": math.nan}}],
         r"models\[0\].hyperparams.l1_penalty must be a finite number"),
        (("models",), [{"name": "wrmf", "grid": [{"alpha": 1.0}, {"alpha": -math.inf}]}],
         r"models\[0\].grid\[1\].alpha must be a finite number, got -inf"),

        pytest.param(("dataset", "synthetic", "zipf_exponent"), 10**400,
                     "zipf_exponent must be a finite number, got an integer too large",
                     id="huge-int-synthetic"),
        pytest.param(("split", "holdout_fraction"), -(2**1024),
                     "holdout_fraction must be a finite number", id="huge-int-split"),
        pytest.param(("models",), [{"name": "slim", "hyperparams": {"l1_penalty": 10**309}}],
                     r"models\[0\].hyperparams.l1_penalty must be a finite number",
                     id="huge-int-hyperparams"),
        pytest.param(("models",), [{"name": "wrmf", "grid": [{"alpha": 1}, {"alpha": 10**400}]}],
                     r"models\[0\].grid\[1\].alpha must be a finite number",
                     id="huge-int-grid"),
        # the report keeps one result per model name
        pytest.param(("models",), [{"name": "wrmf"}, {"name": "slim"},
                                   {"name": "wrmf", "hyperparams": {"factors": 2}}],
                     r"models\[2\] lists model 'wrmf' again, after models\[0\]",
                     id="model-listed-twice"),
        pytest.param(("models",), ["random", {"name": "random", "grid": [{"seed": 1}]}],
                     r"models\[1\] lists model 'random' again, after models\[0\]",
                     id="model-listed-twice-tuned"),
        # the winning grid point is used alone, so fixed values would be dropped
        pytest.param(("models",), [{"name": "popularity", "hyperparams": {"weighting": "plays"},
                                    "grid": [{"weighting": "listeners"}]}],
                     r"models\[0\] has both hyperparams and a grid", id="hyperparams-and-grid"),
        pytest.param(("models",), [{"name": "wrmf", "hyperparams": {}, "grid": [{"factors": 2}]}],
                     r"models\[0\] has both hyperparams and a grid",
                     id="empty-hyperparams-and-grid"),
        # a synthetic dataset never opens a groups file
        pytest.param(("dataset", "groups"), "does-not-exist.tsv", r"dataset\.groups",
                     id="groups-with-synthetic"),
        # SLIM's weights are always non-negative
        pytest.param(("models",), [{"name": "slim", "hyperparams": {"non_negative": False}}],
                     r"'models\[0\].hyperparams.non_negative'", id="slim-non-negative"),
        pytest.param(("models",), [{"name": "wrmf", "grid": []}],
                     "model 'wrmf' has an empty tuning grid", id="empty-grid"),
        # a negative seed would reach a model as a negative derived seed, after earlier fits
        pytest.param(("seed",), -250, "^config seed must be >= 0, got -250$", id="negative-seed"),
        pytest.param(("dataset", "seed"), -1, r"^config dataset\.seed must be >= 0",
                     id="negative-dataset-seed"),
        pytest.param(("split", "seed"), -1, r"^config split\.seed must be >= 0",
                     id="negative-split-seed"),
        pytest.param(("tune_seed",), -1, "^config tune_seed must be >= 0",
                     id="negative-tune-seed"),
        # an interactions file is read, never generated, so no draw reads the seed
        pytest.param(("dataset",), {"interactions": "plays.tsv", "seed": 2},
                     r"^config dataset\.seed is read only with dataset\.synthetic",
                     id="dataset-seed-with-interactions"),
    ])
    def test_wrong_types_and_names_rejected(self, path, value, message):
        raw = tiny_raw_config()
        section = raw
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        with pytest.raises(ValidationError, match=message):
            ExperimentConfig.from_dict(raw)

    def test_synthetic_with_null_groups_accepted(self):
        raw = tiny_raw_config()
        raw["dataset"]["groups"] = None
        assert ExperimentConfig.from_dict(raw).groups_path is None

    def test_interactions_inherit_the_dataset_seed(self):
        raw = tiny_raw_config()
        raw["dataset"] = {"interactions": "plays.tsv"}
        assert ExperimentConfig.from_dict(raw).dataset_seed == 5

    def test_numbers_accept_integers(self):
        raw = tiny_raw_config()
        raw["dataset"]["synthetic"].update(zipf_exponent=1, mainstream_mix=[0, 1, 2])
        config = ExperimentConfig.from_dict(raw)
        assert config.synthetic.zipf_exponent == 1
        assert config.synthetic.mainstream_mix == (0, 1, 2)

    def test_largest_float_sized_integer_accepted(self):
        raw = tiny_raw_config()
        raw["models"] = [{"name": "wrmf", "hyperparams": {"ridge": int(sys.float_info.max)}}]
        assert ExperimentConfig.from_dict(raw).models[0].hyperparams["ridge"] == int(
            sys.float_info.max)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_renamed_key_always_rejected(self, data):
        raw = tiny_raw_config()
        section, key, path = data.draw(st.sampled_from(list(_keys(raw))))
        new = data.draw(st.text(min_size=1, max_size=12).filter(lambda k: k not in CONFIG_KEYS))
        section[new] = section.pop(key)
        where = f"{path}.{new}" if path else new
        with pytest.raises(ValidationError, match=re.escape(repr(where))):
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

    def test_non_finite_scores_fail_the_point(self):
        # the one update leaves huge but finite parameters, so scoring overflows
        ds = clique_dataset()
        best, log = tune("multivae", [{"learning_rate": 1e308, "epochs": 1}, {"epochs": 1}],
                         ds, tune_seed=0)
        assert log[0]["error"] == "non-finite score for user 'u0'"
        assert best == {"epochs": 1}

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError, match="tuning grid is empty"):
            tune("wrmf", [], clique_dataset(), tune_seed=0)

    def test_no_evaluable_inner_holdout_fails_the_point(self, caplog):
        # single-artist users keep their artist in train, so no user has an inner holdout
        with pytest.raises(TuningError, match="every grid point failed"):
            tune("popularity", [{}], make_dataset(np.eye(4, dtype=int)), tune_seed=0)
        assert "no user had an evaluable inner holdout" in caplog.text

    def test_all_failed_raises_tuning_error(self):
        ds = clique_dataset()
        with pytest.raises(TuningError):
            tune("wrmf", [{"factors": 0}, {"ridge": -1}], ds, tune_seed=0)

    @pytest.mark.parametrize("ap_k", [0, -3])
    def test_bad_ap_k_raises_before_any_fit(self, monkeypatch, ap_k):
        fitted = []
        monkeypatch.setattr(WrmfRecommender, "fit", lambda model, train: fitted.append(model))
        grid = [{"factors": 2, "sweeps": 2}, {"factors": 3, "sweeps": 2}]
        with pytest.raises(ValidationError, match=f"^ap_k must be >= 1, got {ap_k}$"):
            tune("wrmf", grid, clique_dataset(), tune_seed=0, ap_k=ap_k)
        assert fitted == []

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
        bad = SplitDataset(train=split.train, masked=masked)
        model = PopularityRecommender().fit(split.train)
        with pytest.raises(ValidationError, match="not a subset"):
            evaluate_model(model, ds, bad, compute_popularity(ds), ["low", "high"])
        with pytest.raises(ValidationError, match="not a subset"):
            _mean_ap(model, bad, 2)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_score_raises_naming_the_user(self, monkeypatch, bad):
        ds = make_dataset([[1, 1, 1, 0], [1, 0, 1, 1]])
        split = split_mask(ds, 0.5, seed=0)
        model = PopularityRecommender().fit(split.train)
        scores = model.score_user
        monkeypatch.setattr(model, "score_user",
                            lambda u: np.where(np.arange(4) == 3, bad, scores(u)))
        with pytest.raises(NumericalError, match="non-finite score for user 'u0'"):
            evaluate_model(model, ds, split, compute_popularity(ds), ["low", "high"])
        with pytest.raises(NumericalError, match="non-finite score for user 'u0'"):
            _mean_ap(model, split, 2)

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

    @staticmethod
    def run_with_inputs(**overrides):
        """The report of a tiny run, and the dataset, split and group users it evaluates."""
        config = ExperimentConfig.from_dict(tiny_raw_config(**overrides))
        dataset = generate_synthetic(config.synthetic, config.dataset_seed)
        split = split_mask(dataset, config.holdout_fraction, config.split_seed)
        labels = np.asarray(dataset.group_labels)
        users = {"all": np.arange(dataset.num_users)}
        users.update((label, np.flatnonzero(labels == label)) for label in GROUP_LABELS)
        return run_experiment(config), dataset, split, users

    def test_gap_profile_train_averages_train_profiles(self):
        report, dataset, split, users = self.run_with_inputs(gap_profile="train")
        pop = compute_popularity(dataset)
        for group, gm in report.model_groups["popularity"].items():
            train = gap([split.train.profile(u) for u in users[group].tolist()], pop)
            full = gap([dataset.profile(u) for u in users[group].tolist()], pop)
            assert train != full
            assert gm.gap_p == train

    def test_train_only_popularity_counts_train_listeners(self):
        report, dataset, split, users = self.run_with_inputs(popularity_scope="train-only")
        train_pop = compute_popularity(split.train)
        for group, gm in report.model_groups["popularity"].items():
            profiles = [dataset.profile(u) for u in users[group].tolist()]
            assert gap(profiles, train_pop) != gap(profiles, compute_popularity(dataset))
            assert gm.gap_p == gap(profiles, train_pop)

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

    def test_outputs_match_lexsort_spelling(self, tmp_path, zipf_dataset, zipf_pop):
        # expected outputs from a two-key lexsort: ascending index breaks ties
        ds, pop = zipf_dataset, zipf_pop
        _, (rank_path, cov_path) = emit_tail_plot_data(ds, tmp_path)
        order = np.lexsort((np.arange(ds.num_artists), -pop))
        assert len(np.unique(pop)) < ds.num_artists / 4  # tie-heavy
        assert rank_path.read_text() == "".join(
            ["# rank\tphi\n"]
            + [f"{r}\t{pop[a]:.6f}\n" for r, a in enumerate(order, start=1)])
        cum = np.cumsum(ds.counts.getnnz(axis=0)[order])
        coverage = [(f, cum[min(ds.num_artists, max(1, math.ceil(f * ds.num_artists))) - 1]
                     / ds.num_pairs) for f in COVERAGE_FRACTIONS]
        assert cov_path.read_text() == "".join(
            ["# fraction_of_artists\tfraction_of_interactions\n"]
            + [f"{f:.6f}\t{c:.6f}\n" for f, c in coverage])
        scores = user_mainstreaminess(ds, pop)
        labels = np.empty(ds.num_users, dtype=object)
        for label, users in zip(GROUP_LABELS, np.split(
                np.lexsort((np.arange(ds.num_users), scores)),
                [ds.num_users // 3, 2 * ds.num_users // 3])):
            labels[users] = label
        assert assign_mainstream_groups(ds, pop) == list(labels)

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
