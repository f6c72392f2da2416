import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popbias.corpus import (
    COVERAGE_FRACTIONS,
    InteractionDataset,
    SyntheticConfig,
    assign_mainstream_groups,
    compute_popularity,
    generate_synthetic,
    ingest_interactions,
    long_tail_stats,
    read_group_file,
    split_mask,
    user_mainstreaminess,
    write_interactions,
)
from popbias.errors import ParseError, ValidationError

from conftest import make_dataset, random_dataset


def write_lines(path, lines):
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


class TestIngest:
    def test_three_line_file(self, tmp_path):
        f = tmp_path / "x.tsv"
        write_lines(f, ["u1\ta1\t5", "u1\ta2\t1", "u2\ta1\t2"])
        ds = ingest_interactions(f)
        assert ds.num_users == 2
        assert ds.num_artists == 2
        assert ds.num_pairs == 3
        assert ds.counts[0, 0] == 5

    def test_duplicate_pairs_are_summed(self, tmp_path):
        f = tmp_path / "x.tsv"
        write_lines(f, ["u1\ta1\t5", "u1\ta2\t1", "u2\ta1\t2", "u1\ta1\t3"])
        ds = ingest_interactions(f)
        assert ds.counts[ds.users.index("u1"), ds.artists.index("a1")] == 8

    def test_header_comments_and_blanks_skipped(self, tmp_path):
        f = tmp_path / "x.tsv"
        write_lines(f, ["user_id\tartist_id\tcount", "# comment", "", "u1\ta1\t5"])
        ds = ingest_interactions(f)
        assert ds.num_pairs == 1

    @pytest.mark.parametrize("count", ["3.5", "nan", "1e3"])
    def test_numeric_first_count_is_not_a_header(self, tmp_path, count):
        f = tmp_path / "x.tsv"
        write_lines(f, ["# comment", f"u1\ta1\t{count}", "u1\ta2\t5"])
        with pytest.raises(ParseError, match=f"line 2: count '{count}' is not an integer"):
            ingest_interactions(f)

    def test_malformed_line_reports_line_number(self, tmp_path):
        f = tmp_path / "x.tsv"
        write_lines(f, ["u1\ta1\t5", "u2\ta1"])
        with pytest.raises(ParseError, match="line 2"):
            ingest_interactions(f)

    def test_non_integer_count_after_first_line(self, tmp_path):
        f = tmp_path / "x.tsv"
        write_lines(f, ["u1\ta1\t5", "u2\ta1\tbogus"])
        with pytest.raises(ParseError, match="line 2"):
            ingest_interactions(f)

    def test_count_below_one_rejected(self, tmp_path):
        f = tmp_path / "x.tsv"
        write_lines(f, ["u1\ta1\t5", "u2\ta1\t0"])
        with pytest.raises(ValidationError, match="line 2"):
            ingest_interactions(f)

    @pytest.mark.parametrize("lines", [
        ["u1\ta1\t5", "u2\ta7\t99999999999999999999"],
        ["u1\ta1\t5", f"u2\ta7\t{2**62}", "u1\ta2\t1", f"u2\ta7\t{2**62}"],
    ], ids=["single", "duplicate-sum"])
    def test_count_beyond_int64_rejected(self, tmp_path, lines):
        f = tmp_path / "x.tsv"
        write_lines(f, lines)
        with pytest.raises(ValidationError, match="user 'u2', artist 'a7'"):
            ingest_interactions(f)

    def test_count_past_the_int_string_limit(self, tmp_path):
        f = tmp_path / "x.tsv"
        write_lines(f, ["u1\ta1\t" + "0" * 5000 + "12", "u2\ta7\t" + "0" * 10 + "9" * 4999])
        with pytest.raises(ValidationError) as info:
            ingest_interactions(f)
        assert str(info.value) == (f"{f}: line 2: play count of 4999 digits for user 'u2', "
                                   f"artist 'a7' exceeds {2**63 - 1}")
        write_lines(f, ["u1\ta1\t" + "0" * 5000 + "12"])
        assert ingest_interactions(f).counts[0, 0] == 12

    @pytest.mark.parametrize("lines, lineno", [
        (["u1\ta1\t5", f"u2\ta7\t{2**62}", "u1\ta2\t1", f"u2\ta7\t{2**62}"], 4),
        ([f"u2\ta7\t{2**62}", "# plays", f"u2\ta7\t{2**62}"]
         + [f"u{u}\ta1\t1" for u in range(5)] + ["u1\ta2\tbogus"], 3),
    ], ids=["duplicate-sum", "before-later-bad-count"])
    def test_count_overflow_names_file_and_first_faulty_line(self, tmp_path, lines, lineno):
        f = tmp_path / "x.tsv"
        write_lines(f, lines)
        with pytest.raises(ValidationError) as info:
            ingest_interactions(f)
        assert str(info.value) == (f"{f}: line {lineno}: play count {2**63} for user 'u2', "
                                   f"artist 'a7' exceeds {2**63 - 1}")

    def test_header_after_comment_skipped(self, tmp_path):
        f = tmp_path / "x.tsv"
        write_lines(f, ["# plays", "user_id\tartist_id\tcount", "u1\ta1\t5"])
        assert ingest_interactions(f).num_pairs == 1

    @pytest.mark.parametrize("lines", [[], ["# plays", ""], ["user\tartist\tcount"]],
                             ids=["empty", "comments-only", "header-only"])
    def test_no_records_rejected_naming_the_file(self, tmp_path, lines):
        f = tmp_path / "x.tsv"
        write_lines(f, lines)
        with pytest.raises(ValidationError) as info:
            ingest_interactions(f)
        assert str(info.value) == f"{f}: no interaction records"

    def test_count_summing_to_int64_max_kept(self, tmp_path):
        f = tmp_path / "x.tsv"
        write_lines(f, [f"u1\ta1\t{2**62}", "u2\ta1\t1", f"u1\ta1\t{2**62 - 1}"])
        ds = ingest_interactions(f)
        assert ds.counts[0, 0] == np.iinfo(np.int64).max

    def test_group_file_unknown_user_rejected(self, tmp_path):
        f = tmp_path / "x.tsv"
        g = tmp_path / "g.tsv"
        write_lines(f, ["u1\ta1\t5", "u2\ta1\t2"])
        write_lines(g, ["u1\tlow", "u2\thigh", "u9\tmedium"])
        with pytest.raises(ValidationError, match="unknown user"):
            ingest_interactions(f, g)

    def test_group_file_missing_user_rejected(self, tmp_path):
        f = tmp_path / "x.tsv"
        g = tmp_path / "g.tsv"
        write_lines(f, ["u1\ta1\t5", "u2\ta1\t2"])
        write_lines(g, ["u1\tlow"])
        with pytest.raises(ValidationError, match="missing label"):
            ingest_interactions(f, g)

    def test_group_file_bad_label(self, tmp_path):
        g = tmp_path / "g.tsv"
        write_lines(g, ["u1\tlow", "u2\tsideways"])
        with pytest.raises(ParseError, match="line 2"):
            read_group_file(g)

    @pytest.mark.parametrize("header", ["user\tgroup", "user_id\tLabel"])
    def test_group_file_header_skipped(self, tmp_path, header):
        g = tmp_path / "g.tsv"
        write_lines(g, ["# mainstream groups", header, "u1\tlow", "u2\thigh"])
        assert read_group_file(g) == {"u1": "low", "u2": "high"}

    def test_group_file_first_line_with_unknown_label_is_not_a_header(self, tmp_path):
        g = tmp_path / "g.tsv"
        write_lines(g, ["u1\tlo", "u2\thigh"])
        with pytest.raises(ParseError) as info:
            read_group_file(g)
        assert str(info.value) == f"{g}: line 1: unknown group label 'lo'"

    def test_groups_loaded(self, tmp_path):
        f = tmp_path / "x.tsv"
        g = tmp_path / "g.tsv"
        write_lines(f, ["u1\ta1\t5", "u2\ta1\t2"])
        write_lines(g, ["u1\tlow", "u2\thigh"])
        ds = ingest_interactions(f, g)
        assert ds.group_labels == ["low", "high"]

    def test_repeated_identifiers_are_held_once(self, tmp_path):
        # 10,000 records over 40 users and 250 artists: lengthening every
        # identifier may raise the peak by the distinct identifiers' size,
        # not by one copy of each identifier per record (about 10 MB here)
        def peak(pad):
            f = tmp_path / f"pad{pad}.tsv"
            write_lines(f, (f"u{u:03d}{'x' * pad}\ta{a:03d}{'y' * pad}\t1"
                            for u in range(40) for a in range(250)))
            tracemalloc.start()
            try:
                ingest_interactions(f)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        pad = 500
        assert peak(pad) - peak(0) < 4 * (40 + 250) * pad


class TestDatasetInvariants:
    def test_zero_counts_never_stored(self):
        ds = make_dataset([[1, 0], [2, 3]])
        assert ds.num_pairs == 3
        assert ds.counts.data.min() >= 1

    def test_empty_profile_rejected(self):
        with pytest.raises(ValidationError, match="empty profile"):
            make_dataset([[1, 2], [0, 0]])

    def test_duplicate_users_rejected(self):
        with pytest.raises(ValidationError, match="duplicate user"):
            InteractionDataset(["u", "u"], ["a"], np.array([[1], [2]]))

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            make_dataset([[1, -2]])

    @pytest.mark.parametrize("users, artists, counts, labels, message", [
        (["u"], ["a", "b"], [[1]], None,
         r"matrix shape \(1, 1\) does not match 1 users x 2 artists"),
        (["u"], ["a", "a"], [[1, 1]], None, "duplicate artist identifiers"),
        (["u", "v"], ["a"], [[1], [1]], ["low"], "group labels do not cover every user"),
        (["u"], ["a"], [[1]], ["mid"], r"unknown group labels: \['mid'\]"),
    ], ids=["shape", "duplicate-artists", "label-count", "unknown-label"])
    def test_inconsistent_parts_rejected(self, users, artists, counts, labels, message):
        with pytest.raises(ValidationError, match=message):
            InteractionDataset(users, artists, np.array(counts), labels)

    def test_writing_groups_needs_labels(self, tmp_path):
        with pytest.raises(ValidationError, match="dataset has no group labels to write"):
            write_interactions(make_dataset([[1]]), tmp_path / "d.tsv", tmp_path / "g.tsv")
        assert list(tmp_path.iterdir()) == []


interaction_records = st.lists(
    st.tuples(
        st.integers(0, 5),  # user
        st.integers(0, 8),  # artist
        st.integers(1, 9),  # count
    ),
    min_size=1,
    max_size=40,
).map(lambda recs: [(f"u{u}", f"a{a:02d}", c) for u, a, c in recs])


@given(interaction_records, st.booleans())
@settings(max_examples=60, deadline=None)
def test_round_trip_write_then_ingest(tmp_path_factory, records, with_groups):
    out = tmp_path_factory.mktemp("roundtrip")
    raw = out / "raw.tsv"
    write_lines(raw, [f"{u}\t{a}\t{c}" for u, a, c in records])
    ds = ingest_interactions(raw)
    if with_groups:
        labels = ["low", "medium", "high"]
        ds = InteractionDataset(
            ds.users, ds.artists, ds.counts,
            [labels[i % 3] for i in range(ds.num_users)],
        )
    f = out / "data.tsv"
    g = out / "groups.tsv" if with_groups else None
    write_interactions(ds, f, g)
    again = ingest_interactions(f, g)
    assert again == ds


class TestPopularity:
    def test_everyone_listens(self):
        ds = make_dataset([[3, 1], [2, 0]])
        pop = compute_popularity(ds)
        assert pop[0] == 1.0

    def test_quarter(self):
        ds = make_dataset([[1, 1], [1, 0], [1, 0], [1, 0]])
        pop = compute_popularity(ds)
        assert pop[1] == 0.25

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError, match="cannot compute popularity of an empty"):
            compute_popularity(make_dataset(np.zeros((0, 2), dtype=int)))

    def test_phi_is_a_float64_vector(self):
        phi = compute_popularity(make_dataset([[1, 1], [1, 0], [1, 0], [1, 0]]))
        assert type(phi) is np.ndarray and phi.dtype == np.float64
        assert phi.tolist() == [1.0, 0.25]

    def test_train_vs_all_bounded_by_masked_listeners(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            ds = random_dataset(rng)
            split = split_mask(ds, 0.3, seed=trial)
            pop_all = compute_popularity(ds)
            pop_train = compute_popularity(split.train)
            masked_listeners = np.zeros(ds.num_artists)
            for hidden in split.masked:
                masked_listeners[hidden] += 1
            gap_vec = np.abs(pop_train - pop_all)
            assert np.all(gap_vec <= masked_listeners / ds.num_users + 1e-15)
            assert np.all(pop_train <= pop_all + 1e-15)


class TestMainstreamGroups:
    def test_three_users(self):
        # nested profiles: the narrower the profile, the more mainstream it is
        ds = make_dataset([
            [1, 1, 1],
            [1, 1, 0],
            [1, 0, 0],
        ])
        pop = compute_popularity(ds)
        scores = user_mainstreaminess(ds, pop)
        assert scores[0] < scores[1] < scores[2]
        assert assign_mainstream_groups(ds, pop) == ["low", "medium", "high"]

    def test_six_users_two_per_group(self):
        counts = np.zeros((6, 6), dtype=int)
        for u in range(6):
            counts[u, : u + 1] = 1  # nested profiles -> strictly increasing score
        ds = make_dataset(counts)
        labels = assign_mainstream_groups(ds, compute_popularity(ds))
        assert labels.count("low") == labels.count("medium") == labels.count("high") == 2

    def test_boundary_ties_break_by_user_index(self):
        # users 0 and 1 tie; ascending index puts user 0 in the lower tercile
        ds = make_dataset([
            [1, 1, 0],
            [1, 1, 0],
            [1, 0, 0],
        ])
        pop = compute_popularity(ds)
        scores = user_mainstreaminess(ds, pop)
        assert scores[0] == scores[1] < scores[2]
        labels = assign_mainstream_groups(ds, pop)
        assert labels == ["low", "medium", "high"]

    def test_phi_of_another_catalogue_rejected(self):
        ds = make_dataset([[1, 1, 0], [1, 0, 1]])
        with pytest.raises(ValidationError, match="popularity table does not cover all artists"):
            user_mainstreaminess(ds, np.zeros(ds.num_artists + 1))


class TestSplitMask:
    def test_fraction_of_ten(self):
        ds = make_dataset([np.ones(10, dtype=int)])
        split = split_mask(ds, 0.2, seed=0)
        assert len(split.masked[0]) == 2
        assert split.train.profile(0).size == 8

    def test_single_artist_user_never_masked(self):
        ds = make_dataset([[4]])
        split = split_mask(ds, 0.2, seed=0)
        assert len(split.masked[0]) == 0
        assert split.train.profile(0).size == 1

    def test_two_artist_user_masks_one(self):
        ds = make_dataset([[1, 1]])
        split = split_mask(ds, 0.2, seed=0)
        assert len(split.masked[0]) == 1

    def test_never_masks_everything(self):
        ds = make_dataset([[1, 1]])
        split = split_mask(ds, 0.99, seed=0)
        assert split.train.profile(0).size == 1

    def test_same_seed_identical(self):
        rng = np.random.default_rng(11)
        ds = random_dataset(rng, num_users=8, num_artists=12)
        a = split_mask(ds, 0.25, seed=42)
        b = split_mask(ds, 0.25, seed=42)
        for ma, mb in zip(a.masked, b.masked):
            assert np.array_equal(ma, mb)
        assert a.train == b.train

    def test_bad_fraction(self):
        ds = make_dataset([[1, 1]])
        for frac in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValidationError):
                split_mask(ds, frac, seed=0)

    @given(st.integers(0, 2**16), st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, seed, fraction):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng)
        split = split_mask(ds, fraction, seed=seed)
        for u in range(ds.num_users):
            original = set(ds.profile(u).tolist())
            kept = set(split.train.profile(u).tolist())
            hidden = set(split.masked[u].tolist())
            assert kept | hidden == original
            assert kept & hidden == set()
            if len(original) >= 2:
                assert 1 <= len(hidden) <= len(original) - 1
            # train counts unchanged for kept artists
            for a in kept:
                assert split.train.counts[u, a] == ds.counts[u, a]


class TestTailStats:
    def test_uniform_dataset_diagonal(self):
        # 10 users x 20 artists, everyone listens to everything
        ds = make_dataset(np.ones((10, 20), dtype=int))
        stats = long_tail_stats(ds)
        for frac in COVERAGE_FRACTIONS[1:]:  # multiples of 0.05
            assert stats.coverage_at(frac) == pytest.approx(frac, abs=1e-12)

    def test_curve_monotone_and_ends_at_one(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, num_users=10, num_artists=25)
        stats = long_tail_stats(ds)
        fracs = [f for f, _ in stats.coverage_curve]
        covs = [c for _, c in stats.coverage_curve]
        assert fracs == sorted(fracs)
        assert covs == sorted(covs)
        assert stats.coverage_curve[-1] == (1.0, pytest.approx(1.0))

    def test_unsampled_fraction_rejected(self):
        stats = long_tail_stats(make_dataset(np.ones((2, 4), dtype=int)))
        with pytest.raises(ValidationError, match="not sampled at fraction 0.02"):
            stats.coverage_at(0.02)

    def test_export(self, tmp_path):
        ds = make_dataset(np.ones((4, 20), dtype=int))
        out = tmp_path / "coverage.tsv"
        long_tail_stats(ds).write_coverage(out)
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == len(COVERAGE_FRACTIONS)
        first = rows[0].split("\t")
        assert float(first[0]) == 0.01


class TestSynthetic:
    def test_coverage_exceeds_uniform(self):
        config = SyntheticConfig(num_users=501, num_artists=2000, zipf_exponent=1.0,
                                 profile_size_range=(5, 30))
        ds = generate_synthetic(config, seed=0)
        stats = long_tail_stats(ds)
        assert stats.coverage_at(0.05) > 0.05

    def test_three_users_one_per_group(self):
        config = SyntheticConfig(num_users=3, num_artists=30, profile_size_range=(2, 5))
        ds = generate_synthetic(config, seed=1)
        assert ds.group_labels == ["low", "medium", "high"]

    def test_determinism_byte_identical(self, tmp_path):
        config = SyntheticConfig(num_users=30, num_artists=50, profile_size_range=(2, 8))
        a = generate_synthetic(config, seed=9)
        b = generate_synthetic(config, seed=9)
        assert a == b
        fa, fb = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_interactions(a, fa)
        write_interactions(b, fb)
        assert fa.read_bytes() == fb.read_bytes()

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            generate_synthetic(SyntheticConfig(num_users=4, num_artists=10), seed=0)
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            generate_synthetic(
                SyntheticConfig(num_users=3, num_artists=10, profile_size_range=(2, 5)), seed=-1
            )
        with pytest.raises(ValidationError):
            generate_synthetic(
                SyntheticConfig(num_users=3, num_artists=10, zipf_exponent=0.0), seed=0
            )
        with pytest.raises(ValidationError):
            generate_synthetic(
                SyntheticConfig(num_users=3, num_artists=10, profile_size_range=(5, 20)),
                seed=0,
            )
        with pytest.raises(ValidationError, match="three finite non-negative biases"):
            generate_synthetic(
                SyntheticConfig(num_users=3, num_artists=10, profile_size_range=(2, 5),
                                mainstream_mix=(np.nan, 1, 2)),
                seed=0,
            )

    @pytest.mark.parametrize("knobs, message", [
        # 3 ** -1000 underflows to 0: only artists 0 and 1 keep a weight
        ({"mainstream_mix": (0.3, 1.0, 1000.0)}, "group 'high': only 2 artists"),
        # 6 ** 400 overflows: artists 0-4 alone have a base popularity
        ({"zipf_exponent": 400.0}, "group 'low': only 5 artists"),
    ])
    def test_underflowing_weights_rejected(self, knobs, message):
        config = SyntheticConfig(num_users=3, num_artists=30, profile_size_range=(2, 6),
                                 **knobs)
        with pytest.raises(ValidationError, match=f"{message} .* largest profile size 6"):
            generate_synthetic(config, seed=0)

    def test_steeper_exponent_dominates_coverage(self):
        # first-order dominance checked at the 5% point, averaged over seeds
        def mean_coverage(exponent):
            config = SyntheticConfig(num_users=60, num_artists=200,
                                     zipf_exponent=exponent, profile_size_range=(5, 15))
            vals = []
            for seed in range(10):
                ds = generate_synthetic(config, seed=seed)
                vals.append(long_tail_stats(ds).coverage_at(0.05))
            return float(np.mean(vals))

        assert mean_coverage(0.6) < mean_coverage(1.2) < mean_coverage(2.0)
