import math

import numpy as np
import pytest
from pytest import approx
from scipy import stats as scipy_stats

from popbias.errors import ParseError, ValidationError
from popbias.harness import gapcalc, read_simulated_records, welch_one_tailed
from popbias.harness.gapcalc import EXPECTED_HEADER

HEADER = ",".join(EXPECTED_HEADER)

# Four low-mainstream users whose service scores average 52.8 in the profile
# and 58.0 in the recommendations, dispersed so the one-tailed Welch test
# lands near p = 0.09: a visible but not significant lift.
NEAR_SIGNIFICANT_PROFILE = [46.86, 51.19, 54.90, 58.25]
NEAR_SIGNIFICANT_REC = [v + 5.2 for v in NEAR_SIGNIFICANT_PROFILE]


def write_csv(path, rows):
    path.write_text("\n".join([HEADER] + rows) + "\n", encoding="utf-8")


def records_path(tmp_path, rows, name="records.csv"):
    path = tmp_path / name
    write_csv(path, rows)
    return path


class TestReading:
    def test_minimal_file(self, tmp_path):
        path = records_path(tmp_path, [
            "spotify,alice,low,profile-seed,Artist A,50,0.5",
            "spotify,alice,low,recommended,Artist B,60,0.6",
        ])
        records = read_simulated_records(path)
        assert len(records) == 2
        assert records[0].spotify_popularity == 50.0
        assert records[1].lfm_phi == 0.6

    def test_empty_optional_fields_allowed(self, tmp_path):
        path = records_path(tmp_path, [
            "spotify,a,low,profile-seed,X,50,",
            "spotify,a,low,recommended,Y,,0.4",
        ])
        records = read_simulated_records(path)
        assert records[0].lfm_phi is None
        assert records[1].spotify_popularity is None

    def test_missing_both_popularity_fields_reports_row(self, tmp_path):
        path = records_path(tmp_path, [
            "spotify,a,low,profile-seed,X,50,0.5",
            "spotify,a,low,recommended,Y,,",
        ])
        with pytest.raises(ValidationError, match="line 3"):
            read_simulated_records(path)

    def test_errors_name_the_file_line_after_a_multiline_field(self, tmp_path):
        # the quoted artist spans lines 2-3, so the bad record is on line 4
        path = records_path(tmp_path, [
            'spotify,a,low,profile-seed,"Two\nLines",50,0.5',
            "spotify,a,low,recommended,Y,500,0.5",
        ])
        with pytest.raises(ValidationError) as info:
            read_simulated_records(path)
        assert str(info.value) == (
            f"{path}: line 4: spotify_popularity 500.0 outside [0.0, 100.0]")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("who,what\nx,y\n", encoding="utf-8")
        with pytest.raises(ParseError, match="header"):
            read_simulated_records(path)

    def test_unknown_role_rejected(self, tmp_path):
        path = records_path(tmp_path, [
            "spotify,a,low,profile-seed,X,50,",
            "spotify,a,low,suggested,Y,60,",
        ])
        with pytest.raises(ValidationError, match="role"):
            read_simulated_records(path)

    def test_out_of_range_popularity_rejected(self, tmp_path):
        path = records_path(tmp_path, [
            "spotify,a,low,profile-seed,X,150,",
            "spotify,a,low,recommended,Y,60,",
        ])
        with pytest.raises(ValidationError, match="outside"):
            read_simulated_records(path)

    def test_user_without_recommended_records_rejected(self, tmp_path):
        path = records_path(tmp_path, [
            "spotify,a,low,profile-seed,X,50,",
            "spotify,b,low,profile-seed,Y,60,",
            "spotify,b,low,recommended,Z,55,",
        ])
        with pytest.raises(ValidationError, match="lacks"):
            read_simulated_records(path)


class TestGapArithmetic:
    def test_hand_computed_single_user(self, tmp_path):
        # profile phi {0.2, 0.4} -> GAP_p 0.3; recs {0.1, 0.2} -> GAP_r 0.15
        path = records_path(tmp_path, [
            "spotify,solo,medium,profile-seed,A,,0.2",
            "spotify,solo,medium,profile-seed,B,,0.4",
            "spotify,solo,medium,recommended,C,,0.1",
            "spotify,solo,medium,recommended,D,,0.2",
        ])
        report = gapcalc(read_simulated_records(path))
        entry = report.get("spotify", "overall", "lfm")
        assert entry.gap_p == approx(0.3, abs=1e-12)
        assert entry.gap_r == approx(0.15, abs=1e-12)
        assert entry.delta_gap == approx(-0.5, abs=1e-12)
        assert math.isnan(entry.t_stat)  # one user: no dispersion to test

    def test_equal_popularity_gives_zero_lift(self, tmp_path):
        rows = []
        groups = ["low"] * 4 + ["medium"] * 4 + ["high"] * 4
        for i, group in enumerate(groups):
            score = 30 + 3 * i
            rows.append(f"spotify,u{i},{group},profile-seed,P{i},{score},")
            rows.append(f"spotify,u{i},{group},recommended,R{i},{score},")
        report = gapcalc(read_simulated_records(records_path(tmp_path, rows)))
        for group in ("overall", "low", "medium", "high"):
            assert report.get("spotify", group, "spotify").delta_gap == approx(0.0, abs=1e-12)

    def test_near_significant_lift_is_not_significant(self, tmp_path):
        rows = []
        for i, (p, r) in enumerate(zip(NEAR_SIGNIFICANT_PROFILE, NEAR_SIGNIFICANT_REC)):
            rows.append(f"youtube,u{i},low,profile-seed,P{i},{p},")
            rows.append(f"youtube,u{i},low,recommended,R{i},{r},")
        report = gapcalc(read_simulated_records(records_path(tmp_path, rows)))
        entry = report.get("youtube", "low", "spotify")
        assert entry.gap_p == approx(52.8, abs=1e-9)
        assert entry.gap_r == approx(58.0, abs=1e-9)
        assert entry.delta_gap > 0
        assert 0.05 < entry.p_value < 0.2
        # independent scipy oracle for the Welch machinery
        t_ref, p_ref = scipy_stats.ttest_ind(
            NEAR_SIGNIFICANT_REC, NEAR_SIGNIFICANT_PROFILE,
            equal_var=False, alternative="greater",
        )
        assert entry.t_stat == approx(float(t_ref), rel=1e-10)
        assert entry.p_value == approx(float(p_ref), rel=1e-10)

    def test_scaling_one_measure_preserves_delta_gap(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = []
        for i in range(6):
            group = ["low", "medium", "high"][i % 3]
            for j in range(3):
                s = rng.uniform(20, 90)
                rows.append(f"amazon,u{i},{group},profile-seed,P{i}{j},{s:.4f},{s / 100:.6f}")
            for j in range(3):
                s = rng.uniform(20, 90)
                rows.append(f"amazon,u{i},{group},recommended,R{i}{j},{s:.4f},{s / 100:.6f}")
        report = gapcalc(read_simulated_records(records_path(tmp_path, rows)))
        for group in ("overall", "low", "medium", "high"):
            spotify = report.get("amazon", group, "spotify")
            lfm = report.get("amazon", group, "lfm")
            assert spotify.delta_gap == approx(lfm.delta_gap, abs=1e-9)
            assert spotify.gap_p != approx(lfm.gap_p)

    def test_per_group_and_overall_user_counts(self, tmp_path):
        rows = []
        for i in range(6):
            group = ["low", "medium", "high"][i % 3]
            rows.append(f"spotify,u{i},{group},profile-seed,P{i},{40 + i},")
            rows.append(f"spotify,u{i},{group},recommended,R{i},{50 + i},")
        report = gapcalc(read_simulated_records(records_path(tmp_path, rows)))
        assert report.get("spotify", "overall", "spotify").n_users == 6
        for group in ("low", "medium", "high"):
            assert report.get("spotify", group, "spotify").n_users == 2

    def test_measure_without_values_omitted(self, tmp_path):
        path = records_path(tmp_path, [
            "spotify,a,low,profile-seed,X,50,",
            "spotify,a,low,recommended,Y,60,",
        ])
        report = gapcalc(read_simulated_records(path))
        with pytest.raises(KeyError):
            report.get("spotify", "overall", "lfm")


class TestWelch:
    def test_matches_scipy_on_random_samples(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.normal(50, 10, size=int(rng.integers(3, 12)))
            b = rng.normal(55, 8, size=int(rng.integers(3, 12)))
            t_ref, p_ref = scipy_stats.ttest_ind(b, a, equal_var=False,
                                                 alternative="greater")
            t, p = welch_one_tailed(a, b)
            assert t == approx(float(t_ref), rel=1e-10)
            assert p == approx(float(p_ref), rel=1e-10)

    def test_degenerate_samples_yield_nan(self):
        assert all(math.isnan(v) for v in welch_one_tailed([1.0], [2.0, 3.0]))
        assert all(math.isnan(v) for v in welch_one_tailed([2.0, 2.0], [3.0, 3.0]))


class TestOutput:
    def fixture_report(self, tmp_path):
        rows = []
        for i in range(4):
            group = ["low", "medium", "high", "low"][i]
            rows.append(f"spotify,u{i},{group},profile-seed,P{i},{40 + i},{(40 + i) / 100}")
            rows.append(f"spotify,u{i},{group},recommended,R{i},{45 + i},{(45 + i) / 100}")
        return gapcalc(read_simulated_records(records_path(tmp_path, rows)))

    def test_kv_lines_parse(self, tmp_path):
        report = self.fixture_report(tmp_path)
        for line in report.to_kv_lines():
            key, value = line.split("=", 1)
            assert key.count(".") == 3
            float(value)

    def test_text_contains_table(self, tmp_path):
        report = self.fixture_report(tmp_path)
        text = report.to_text()
        assert "overall" in text
        assert "spotify" in text

    def test_write_files(self, tmp_path):
        report = self.fixture_report(tmp_path)
        txt, kv = report.write(tmp_path / "out")
        assert txt.exists() and kv.exists()
        assert txt.read_text().startswith("Popularity lift")
