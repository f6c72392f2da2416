"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The real-corpus checks at the bottom only run when the
POPBIAS_LFM1B_SUBSET environment variable points at the interactions file.
"""

import math
import os
import time

import numpy as np
import pytest
from pytest import approx

from popbias.corpus import (
    SyntheticConfig,
    compute_popularity,
    generate_synthetic,
    ingest_interactions,
    long_tail_stats,
    split_mask,
)
from popbias.harness.experiment import ExperimentConfig, evaluate_model, run_experiment
from popbias.harness.gapcalc import gapcalc, read_simulated_records
from popbias.metrics import RankedCandidates, auc, average_precision_at_k
from popbias.models.base import PopularityRecommender, RandomRecommender
from popbias.models.multivae import MultiVaeRecommender, kl_gaussian
from popbias.models.slim import SlimRecommender
from popbias.models.wrmf import WrmfRecommender

from conftest import OracleModel, make_dataset, random_dataset
from entry_points import elbo_loss, gradient, recommend_top_n, solve_factors
from multivae_reference import PARAM_KEYS
from test_gapcalc import (
    HEADER,
    NEAR_SIGNIFICANT_PROFILE,
    NEAR_SIGNIFICANT_REC,
    records_path,
)
from test_metrics import brute_force_ap_at_k, brute_force_auc
from test_multivae import tiny_instance
from test_slim import column_objective, lattice_search
from test_wrmf import TOY, TOY_COUNTS, dense_solve_side


def _pass(name):
    print(f"\nACCEPTANCE PASS: {name}")


@pytest.fixture(scope="module")
def bench_dataset():
    config = SyntheticConfig(
        num_users=501, num_artists=2000, zipf_exponent=1.0, profile_size_range=(10, 40)
    )
    dataset = generate_synthetic(config, seed=11)
    split = split_mask(dataset, 0.2, seed=12)
    pop = compute_popularity(dataset)
    return dataset, split, pop


def test_metric_oracles_exact():
    """AUC and AP@K equal brute-force implementations on 1000+ random cases."""
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 51))
        ordering = rng.permutation(n)
        p = int(rng.integers(1, n))
        positives = rng.choice(n, size=p, replace=False)
        k = int(rng.integers(1, n + 10))
        ranked = RankedCandidates(ordering, positives)
        assert auc(ranked) == brute_force_auc(ordering, positives)
        assert average_precision_at_k(ranked, k) == brute_force_ap_at_k(
            ordering, positives, k
        )
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"
    _pass(f"metric oracles exact on {checked} random instances ({elapsed:.1f}s)")


def test_random_baseline_auc_and_negative_lift(bench_dataset):
    """Random scores: mean AUC 0.50 +/- 0.02 and negative popularity lift."""
    started = time.monotonic()
    dataset, split, pop = bench_dataset
    model = RandomRecommender(seed=21).fit(split.train)
    ev = evaluate_model(model, dataset, split, pop, dataset.group_labels)
    overall = ev.groups["all"]
    assert overall.auc_mean == approx(0.50, abs=0.02)
    assert overall.delta_gap < 0
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _pass(
        f"random baseline: mean AUC {overall.auc_mean:.4f}, "
        f"delta GAP {overall.delta_gap:+.3f} ({elapsed:.1f}s)"
    )


def test_perfect_oracle_auc_is_exactly_one(bench_dataset):
    """A model that scores every masked artist on top reaches mean AUC 1.0."""
    dataset, split, pop = bench_dataset
    ev = evaluate_model(OracleModel(split), dataset, split, pop, dataset.group_labels)
    assert ev.groups["all"].auc_mean == 1.0
    _pass("perfect oracle reaches mean AUC 1.0 exactly")


def test_popularity_gap_r_upper_bound_over_random_datasets():
    """Popularity's recommended-set GAP dominates every model, 20+ datasets."""
    from popbias.metrics import gap

    rng = np.random.default_rng(77)
    checked = 0
    for trial in range(20):
        ds = random_dataset(rng, num_users=12, num_artists=14)
        split = split_mask(ds, 0.3, seed=trial)
        train = split.train
        pop_train = compute_popularity(train)
        baseline = PopularityRecommender().fit(train)
        base_gap = gap(
            [recommend_top_n(baseline, train, u, 5) for u in range(ds.num_users)],
            pop_train,
        )
        contenders = [
            RandomRecommender(seed=trial).fit(train),
            SlimRecommender(l1_penalty=0.1, l2_penalty=0.1, max_iters=50).fit(train),
            WrmfRecommender(factors=4, sweeps=3, init_seed=trial).fit(train),
            MultiVaeRecommender(latent_dim=3, hidden_dim=6, epochs=2, batch_size=4,
                                init_seed=trial).fit(train),
        ]
        for model in contenders:
            tops = [recommend_top_n(model, train, u, 5) for u in range(ds.num_users)]
            assert gap(tops, pop_train) <= base_gap + 1e-12, (trial, model.model_type)
            checked += 1
    _pass(f"popularity GAP_r upper bound held in {checked} model-dataset pairs")


def test_accuracy_and_bias_pattern_on_long_tail_data():
    """SLIM, WRMF, and the VAE all beat random while lifting popularity less
    than the popularity baseline."""
    started = time.monotonic()
    raw = {
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
            {"name": "random", "hyperparams": {"seed": 21}},
            {"name": "slim", "hyperparams": {
                "l1_penalty": 2.0, "l2_penalty": 5.0, "tolerance": 1e-4,
                "max_iters": 60,
            }},
            {"name": "wrmf", "hyperparams": {
                "factors": 32, "alpha": 2.0, "ridge": 1.0, "sweeps": 10,
                "init_seed": 5,
            }},
            {"name": "multivae", "hyperparams": {
                "latent_dim": 16, "hidden_dim": 64, "epochs": 25, "batch_size": 50,
                "learning_rate": 0.3, "beta_max": 0.2, "anneal_steps": 150,
                "dropout_keep": 0.8, "init_seed": 5,
            }},
        ],
        "top_n": 10,
    }
    report = run_experiment(ExperimentConfig.from_dict(raw))
    rows = {name: groups["all"] for name, groups in report.model_groups.items()}
    rand = rows["random"]
    pop_lift = rows["popularity"].delta_gap
    assert pop_lift > 0
    lines = []
    for name in ("slim", "wrmf", "multivae"):
        gm = rows[name]
        assert gm.auc_mean >= 0.60, name
        separation = gm.auc_mean - rand.auc_mean
        stderr = math.sqrt(gm.auc_stderr**2 + rand.auc_stderr**2)
        assert separation >= 5 * stderr, (name, separation, stderr)
        assert gm.delta_gap < pop_lift, name
        lines.append(f"{name} auc={gm.auc_mean:.3f} dgap={gm.delta_gap:+.2f}")
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"pattern run took {elapsed:.1f}s"
    _pass(
        "accuracy/bias pattern: " + "; ".join(lines)
        + f"; popularity dgap={pop_lift:+.2f} ({elapsed:.0f}s)"
    )


def test_wrmf_monotonic_and_exact_solves():
    """ALS never increases the loss across half-sweeps and each row solve
    matches a dense brute-force solution."""
    model = WrmfRecommender(factors=3, alpha=2.0, ridge=0.5, sweeps=10,
                            init_seed=3, track_objective=True).fit(TOY)
    trace = model.objective_trace_
    for prev, cur in zip(trace, trace[1:]):
        assert cur <= prev + 1e-9 * abs(prev)

    rng = np.random.default_rng(0)
    alpha, ridge = 2.0, 0.5
    Y = rng.standard_normal((4, 2))
    X = solve_factors(TOY.counts.astype(float).tocsr(), Y, alpha, ridge)
    assert X == approx(dense_solve_side(TOY_COUNTS, Y, alpha, ridge), abs=1e-8)
    X2 = rng.standard_normal((5, 2))
    Y2 = solve_factors(TOY.counts.astype(float).T.tocsr(), X2, alpha, ridge)
    assert Y2 == approx(dense_solve_side(TOY_COUNTS.T, X2, alpha, ridge), abs=1e-8)
    _pass("wrmf: monotone half-sweeps and dense-exact row solves")


def test_slim_descent_kkt_and_lattice():
    """Coordinate descent is monotone per update, satisfies the elastic-net
    KKT conditions, and lands within 0.02 of an exhaustive lattice search."""
    toy = make_dataset([[1, 2, 1], [2, 1, 0], [0, 1, 2], [1, 0, 1]])
    l1, l2 = 0.05, 0.05
    snapshots = []
    model = SlimRecommender(l1_penalty=l1, l2_penalty=l2, tolerance=1e-12,
                            max_iters=1000).fit(
        toy, trace=lambda j, w: snapshots.append((j, w))
    )
    A = toy.counts.toarray().astype(float)
    per_column = {}
    for j, w in snapshots:
        per_column.setdefault(j, []).append(column_objective(A, j, w, l1, l2))
    for objs in per_column.values():
        for prev, cur in zip(objs, objs[1:]):
            assert cur <= prev + 1e-12 * max(1.0, abs(prev))

    W = model.weights_.toarray()
    for j in range(3):
        assert np.abs(lattice_search(A, j, l1, l2) - W[:, j]).max() <= 0.02

    rng = np.random.default_rng(13)
    for trial in range(3):
        ds = random_dataset(rng, num_users=15, num_artists=10)
        fitted = SlimRecommender(l1_penalty=0.1, l2_penalty=0.2, tolerance=1e-12,
                                 max_iters=2000).fit(ds)
        Ad = ds.counts.toarray().astype(float)
        Wd = fitted.weights_.toarray()
        for j in range(10):
            r = Ad[:, j] - Ad @ Wd[:, j]
            for i in range(10):
                if i == j or np.sum(Ad[:, i] ** 2) == 0:
                    continue
                g = -Ad[:, i] @ r + 0.2 * Wd[i, j]
                if Wd[i, j] > 0:
                    assert abs(g + 0.1) <= 1e-6
                else:
                    assert g + 0.1 >= -1e-6
    _pass("slim: monotone updates, KKT residuals, lattice-search agreement")


def test_multivae_gradients_and_kl():
    """Analytic gradients match central differences on 10 random tiny nets;
    the KL term is non-negative on 100k random draws."""
    h = 1e-5
    for seed in range(10):
        params, x, eps, beta = tiny_instance(seed)
        grads = gradient(x, params, eps, beta)
        for key in PARAM_KEYS:
            p = params[key]
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                up = elbo_loss(x, params, eps, beta)[0]
                p[idx] = orig - h
                down = elbo_loss(x, params, eps, beta)[0]
                p[idx] = orig
                fd = (up - down) / (2 * h)
                analytic = float(grads[key][idx])
                assert abs(analytic - fd) <= 1e-7 + 1e-4 * max(abs(analytic), abs(fd))

    rng = np.random.default_rng(99)
    mu = rng.normal(0, 2, size=(100_000, 4))
    logvar = rng.uniform(-4, 4, size=(100_000, 4))
    assert kl_gaussian(mu, logvar).min() >= 0.0
    _pass("multivae: finite-difference gradients and KL non-negativity")


def test_gapcalc_fixtures(tmp_path):
    """Hand-computed lift fixtures reproduce to 6 decimals; the all-equal
    fixture reports 0.00 lift; the crafted near-significance case stays above
    p = 0.05."""
    # single user, profile phi {0.2, 0.4}, recommendations {0.1, 0.2}
    path = records_path(tmp_path, [
        "spotify,solo,medium,profile-seed,A,,0.2",
        "spotify,solo,medium,profile-seed,B,,0.4",
        "spotify,solo,medium,recommended,C,,0.1",
        "spotify,solo,medium,recommended,D,,0.2",
    ], name="hand.csv")
    entry = gapcalc(read_simulated_records(path)).get("spotify", "overall", "lfm")
    assert f"{entry.delta_gap:.6f}" == "-0.500000"

    rows = []
    groups = ["low"] * 4 + ["medium"] * 4 + ["high"] * 4
    for i, group in enumerate(groups):
        score = 30 + 3 * i
        rows.append(f"spotify,u{i},{group},profile-seed,P{i},{score},")
        rows.append(f"spotify,u{i},{group},recommended,R{i},{score},")
    report = gapcalc(read_simulated_records(records_path(tmp_path, rows, name="eq.csv")))
    for group in ("overall", "low", "medium", "high"):
        assert f"{report.get('spotify', group, 'spotify').delta_gap:.2f}" == "0.00"

    rows = []
    for i, (p, r) in enumerate(zip(NEAR_SIGNIFICANT_PROFILE, NEAR_SIGNIFICANT_REC)):
        rows.append(f"youtube,u{i},low,profile-seed,P{i},{p},")
        rows.append(f"youtube,u{i},low,recommended,R{i},{r},")
    near = gapcalc(read_simulated_records(records_path(tmp_path, rows, name="near.csv")))
    cell = near.get("youtube", "low", "spotify")
    assert cell.delta_gap > 0
    assert cell.p_value > 0.05
    _pass(
        f"gapcalc fixtures: hand lift -0.500000, all-equal 0.00, "
        f"near-significance p={cell.p_value:.3f} > 0.05"
    )


def test_rerun_reports_byte_identical(tmp_path):
    """Two runs of the same config produce byte-identical report.kv files."""
    raw = {
        "seed": 8,
        "dataset": {
            "synthetic": {"num_users": 45, "num_artists": 120,
                          "profile_size_range": [5, 12]},
            "seed": 4,
        },
        "split": {"holdout_fraction": 0.2, "seed": 6},
        "models": [
            {"name": "popularity"},
            {"name": "random"},
            {"name": "wrmf", "hyperparams": {"factors": 8, "sweeps": 4}},
            {"name": "multivae", "hyperparams": {
                "latent_dim": 4, "hidden_dim": 12, "epochs": 3, "batch_size": 16,
            }},
        ],
    }
    config = ExperimentConfig.from_dict(raw)
    run_experiment(config, out_dir=tmp_path / "first")
    run_experiment(config, out_dir=tmp_path / "second")
    first = (tmp_path / "first" / "report.kv").read_bytes()
    second = (tmp_path / "second" / "report.kv").read_bytes()
    assert first == second
    _pass("rerun determinism: report.kv byte-identical")


LFM_PATH = os.environ.get("POPBIAS_LFM1B_SUBSET")


@pytest.mark.skipif(not LFM_PATH, reason="POPBIAS_LFM1B_SUBSET not set")
def test_real_corpus_counts_and_coverage():
    """Optional: corpus statistics of the real listening subset."""
    dataset = ingest_interactions(LFM_PATH)
    assert dataset.num_users == 3000
    assert dataset.num_artists == 352_805
    assert dataset.num_pairs == 1_755_361
    stats = long_tail_stats(dataset)
    assert stats.coverage_at(0.05) >= 0.62
    split = split_mask(dataset, 0.2, seed=0)
    trainable = int((split.train.counts.getnnz(axis=0) > 0).sum())
    assert trainable == approx(305_000, rel=0.05)
    _pass(
        f"real corpus: 3000/352805/1755361 ingested, coverage@5% "
        f"{stats.coverage_at(0.05):.3f}, trainable {trainable}"
    )
