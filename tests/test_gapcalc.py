import csv
import io
import math
import random
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx
from scipy import stats as scipy_stats

from conftest import bom_copy
from gapcalc_reference import reference_gapcalc, reference_read
from popbias.corpus import GROUP_LABELS
from popbias.errors import ParseError, PopBiasError, ValidationError
from popbias.harness.gapcalc import (
    EXPECTED_HEADER,
    ROLES,
    gapcalc,
    read_simulated_records,
    welch_one_tailed,
)

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
        assert records.spotify_popularity[0] == 50.0
        assert records.lfm_phi[1] == 0.6

    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        path = records_path(tmp_path, [
            "spotify,alice,low,profile-seed,Artist A,50,0.5",
            "spotify,alice,low,recommended,Artist B,,0.6",
        ])
        plain, marked = read_simulated_records(path), read_simulated_records(bom_copy(path))
        for want, got in zip(astuple(plain), astuple(marked), strict=True):
            np.testing.assert_array_equal(got, want)

    def test_empty_optional_fields_allowed(self, tmp_path):
        path = records_path(tmp_path, [
            "spotify,a,low,profile-seed,X,50,",
            "spotify,a,low,recommended,Y,,0.4",
        ])
        records = read_simulated_records(path)
        assert math.isnan(records.lfm_phi[0])
        assert math.isnan(records.spotify_popularity[1])

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

    @pytest.mark.parametrize("column, text", [
        ("spotify_popularity", "٣٠"),
        ("spotify_popularity", "1_0"),
        ("spotify_popularity", "５"),
        ("lfm_phi", "0.٥"),
        ("lfm_phi", "0.1_0"),
    ])
    def test_measure_that_is_not_an_ascii_number_rejected(self, tmp_path, column, text):
        cells = f"{text}," if column == "spotify_popularity" else f",{text}"
        path = records_path(tmp_path, [
            "spotify,a,low,profile-seed,X,50,0.5",
            f"spotify,a,low,recommended,Y,{cells}",
        ])
        with pytest.raises(ParseError) as info:
            read_simulated_records(path)
        assert str(info.value) == f"{path}: line 3: {column} {text!r} is not a number"

    def test_blank_rows_are_not_records(self, tmp_path):
        path = records_path(tmp_path, [
            "",
            "spotify,a,low,profile-seed,X,50,",
            ",,,,,,",
            " , ,  , , , , ",
            "   ",
            "spotify,a,low,recommended,Y,60,",
        ])
        assert len(read_simulated_records(path)) == 2

    def test_padded_names_share_one_code(self, tmp_path):
        path = records_path(tmp_path, [
            " spotify ,a, low ,profile-seed,X,50,",
            "spotify, a ,low, recommended ,Y,60,",
        ])
        records = read_simulated_records(path)
        assert records.services == ["spotify"] and records.users == ["a"]
        assert records.service.tolist() == [0, 0] and records.user.tolist() == [0, 0]
        assert records.group.tolist() == [0, 0]
        assert records.role.tolist() == [0, 1]

    def test_user_with_two_group_labels_rejected(self, tmp_path):
        path = records_path(tmp_path, [
            "svc,a,low,profile-seed,X,50,",
            "svc,b,high,profile-seed,X,50,",
            "svc,b,high,recommended,Y,60,",
            "svc,a,high,recommended,Y,60,",
            "svc,a,medium,recommended,Y,60,",
        ])
        with pytest.raises(ValidationError) as info:
            read_simulated_records(path)
        assert str(info.value) == (
            f"{path}: line 5: simulated user (svc, a) has group 'high', "
            "but its first record has 'low'")

    def test_group_label_is_per_service(self, tmp_path):
        path = records_path(tmp_path, [
            "svc,a,low,profile-seed,X,50,",
            "svc,a, low ,recommended,Y,60,",
            "other,a,high,profile-seed,X,50,",
            "other,a,high,recommended,Y,60,",
        ])
        report = gapcalc(read_simulated_records(path))
        assert report.get("svc", "low", "spotify").n_users == 1
        assert report.get("other", "high", "spotify").n_users == 1

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


def outcome(read, compute, path):
    """The services and every GapEntry field (floats as hex), or the error raised."""
    try:
        report = compute(read(path))
    except (PopBiasError, csv.Error) as exc:
        return type(exc), str(exc)
    entries = [(key, [v.hex() if isinstance(v, float) else v for v in astuple(entry)])
               for key, entry in report.entries.items()]
    return report.services, entries


def assert_matches_reference(path):
    got = outcome(read_simulated_records, gapcalc, path)
    want = outcome(reference_read, reference_gapcalc, path)
    assert got == want


BLANK_ROWS = ([], [""] * 7, [" "] * 7, ["  "])
# valid records past the text reader's first 8 KiB, so a later fault surfaces
# only after these have been parsed
PADDING = b"".join(b"s,a,low,%s,X,5,\n" % role.encode() for role in ROLES * 400)
HUGE_FIELD = b'"' + b"x" * (csv.field_size_limit() + 1) + b'"\n'  # csv.Error


@st.composite
def session_records(draw):
    """(records, write options) of a group-consistent session CSV.

    Records are cell lists in file order; the layouts vary in padding,
    quoting, line endings, multi-line and blank fields, empty groups and
    one-user services.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pad = draw(st.booleans())
    blank_rate = draw(st.sampled_from([0.0, 0.3, 0.7]))
    users_max = draw(st.sampled_from([1, 4, 12, 300]))
    labels = draw(st.lists(st.sampled_from(GROUP_LABELS), min_size=1, max_size=3, unique=True))

    def cell(text):
        return " " * rng.randint(0, 2) + text + " " * rng.randint(0, 2) if pad else text

    def value(lo, hi):
        x = rng.choice([lo, hi, rng.uniform(lo, hi)])
        return cell(rng.choice([repr(x), f"{x:.3f}", str(round(x)), f"{x:.2e}"]))

    records = []
    services = rng.sample(["spotify", "youtube", "amazon"], draw(st.integers(1, 3)))
    for service in services:
        n_users = rng.choice([1, users_max, rng.randint(1, users_max)])
        for u in range(n_users):
            user, group = f"u{u}", rng.choice(labels)
            for role in ROLES:
                for _ in range(rng.randint(1, 4)):
                    spotify, lfm = value(0.0, 100.0), value(0.0, 1.0)
                    if rng.random() < blank_rate:  # one measure blank, never both
                        blank = cell("")
                        spotify, lfm = (blank, lfm) if rng.random() < 0.5 else (spotify, blank)
                    artist = rng.choice(["Art", "Two\nLines", "a, b", 'say "hi"', ""])
                    records.append([cell(service), cell(user), cell(group), cell(role),
                                    artist, spotify, lfm])
    rng.shuffle(records)
    options = {
        "quoting": draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
        "lineterminator": draw(st.sampled_from(["\n", "\r\n"])),
        "blank_rows": draw(st.booleans()),
        "seed": rng.random(),
    }
    return records, options


def write_records(path, records, quoting=csv.QUOTE_MINIMAL, lineterminator="\n",
                  blank_rows=False, seed=0):
    """Write ``records`` under the header, optionally with blank rows between them."""
    rng = random.Random(seed)
    out = io.StringIO()
    writer = csv.writer(out, quoting=quoting, lineterminator=lineterminator)
    writer.writerow(EXPECTED_HEADER)
    for record in records:
        if blank_rows and rng.random() < 0.1:
            writer.writerow(rng.choice(BLANK_ROWS))
        writer.writerow(record)
    Path(path).write_bytes(out.getvalue().encode("utf-8"))
    return path


# each fault sets the cells of one record; "fields" adds one
FAULTS = {
    "group": {2: "mid"},
    "blank group": {2: " "},
    "role": {3: "suggested"},
    "spotify text": {5: "lots"},
    "spotify range": {5: "100.5"},
    "spotify nan": {5: " nan "},
    "lfm text": {6: "0,5"},
    "lfm range": {6: "-inf"},
    "no value": {5: "", 6: " "},
    "fields": None,
}


def inject(record, fault):
    if FAULTS[fault] is None:
        return record + ["extra"]
    record = list(record)
    for column, text in FAULTS[fault].items():
        record[column] = text
    return record


class TestMatchesReference:
    """Bit-equal to the record-at-a-time reader and GAP table (tests/gapcalc_reference.py)."""

    def test_golden_records(self):
        assert_matches_reference(Path(__file__).parent / "data" / "simulated_records.csv")

    @given(session_records())
    @settings(max_examples=60, deadline=None)
    def test_generated_csvs(self, tmp_path_factory, generated):
        records, options = generated
        path = write_records(tmp_path_factory.mktemp("gen") / "s.csv", records, **options)
        assert_matches_reference(path)

    def test_cells_past_numpy_pairwise_blocks(self, tmp_path):
        # 300 users in one group cell and a user with 300 records per role:
        # both exceed NumPy's 128-value pairwise summation block
        rng = np.random.default_rng(5)
        records = []
        for service in ("spotify", "youtube"):
            for u in range(300):
                rows = 300 if u == 7 else int(rng.integers(1, 12))
                for role in ROLES:
                    for x in rng.uniform(0, 1, rows):
                        records.append([service, f"u{u}", "low", role, "A",
                                        repr(float(100 * x)), repr(float(x))])
        rng.shuffle(records)
        assert_matches_reference(write_records(tmp_path / "big.csv", records))

    def test_every_slice_length_in_one_cell(self, tmp_path):
        # user u has u + 1 profile and 260 - u recommended records, so every
        # slice length from 1 to 260 occurs twice in the one group cell
        rng = np.random.default_rng(6)
        records = []
        for u in range(260):
            for role, rows in zip(ROLES, (u + 1, 260 - u)):
                for x in rng.uniform(0, 1, rows):
                    records.append(["spotify", f"u{u}", "low", role, "A",
                                    repr(float(100 * x)), repr(float(x))])
        rng.shuffle(records)
        path = write_records(tmp_path / "lengths.csv", records)
        assert len(gapcalc(read_simulated_records(path)).entries) == 4
        assert_matches_reference(path)

    @given(session_records(), st.lists(st.tuples(st.integers(0, 10**6),
                                                 st.sampled_from(sorted(FAULTS))),
                                       min_size=1, max_size=3),
           st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_faulty_csvs_raise_the_same_error(self, tmp_path_factory, generated, faults,
                                              same_record):
        records, options = generated
        for i, fault in faults:
            k = faults[0][0] % len(records) if same_record else i % len(records)
            records[k] = inject(records[k], fault)
        path = write_records(tmp_path_factory.mktemp("bad") / "s.csv", records, **options)
        assert isinstance(outcome(reference_read, reference_gapcalc, path)[0], type)
        assert_matches_reference(path)

    @pytest.mark.parametrize("body", [
        b"",
        b"who,what\nx,y\n",
        HEADER.encode() + b"\n",
        HEADER.encode() + b"\n\n,,,,,,\n  ,\n",
        HEADER.encode() + b'\ns,a,low,profile-seed,"Two\nLines",50,0.5\ns,a,low,recommended\n',
        HEADER.encode() + b"\ns,a,mid,suggested,X,abc,2\n",  # group wins over role and values
        HEADER.encode() + b"\ns,a,low,suggested,X,,\n",  # role wins over no value
        HEADER.encode() + b"\ns,a,low,profile-seed,X,abc,2\n",  # spotify wins over lfm
        HEADER.encode() + b"\ns,a,low,profile-seed,X,1,2\ns,a,low,recommended,Y,5\n",
        HEADER.encode() + b"\ns,a,low,profile-seed,X,1\ns,a,low,recommended,Y,500,\n",
        HEADER.encode() + b"\ns,a,low,profile-seed,X,500,\n" + PADDING + b"caf\xe9\n",
        HEADER.encode() + b"\n" + PADDING + b"caf\xe9\n",
        HEADER.encode() + b"\ns,a,low,profile-seed,X,500,\n" + PADDING + HUGE_FIELD,
        HEADER.encode() + b"\n" + PADDING + HUGE_FIELD,
        HEADER.encode() + b"\ns,b,low,profile-seed,X,5,\ns,a,low,profile-seed,X,5,\n"
        + b"s,a,low,recommended,X,5,\n",  # lacks
        HEADER.encode() + b"\nt,b,low,recommended,X,5,\ns,z,low,recommended,X,5,\n"
        + b"s,z,low,profile-seed,X,5,\nt,a,high,profile-seed,X,5,\n",  # first lacking in order
        HEADER.encode() + b"\ns,a,low,profile-seed,X,5,\ns,a,low,recommended,X,,0.5\n",
        HEADER.encode() + b"\ns,a,low,profile-seed,X,5,\ns,a,low,recommended,X,500,\n"
        + b"s,b,low,profile-seed,X,500,\n",  # one faulty text, two records
    ], ids=["empty", "header", "no records", "only blank rows", "fields after multiline",
            "group and role", "role and no value", "spotify and lfm", "fields after fault",
            "fault after fields", "fault before bad utf-8", "bad utf-8 after records",
            "fault before huge field", "huge field after records",
            "lacks", "lacks sorted", "no computable cells", "shared faulty text"])
    def test_errors_match(self, tmp_path, body):
        path = tmp_path / "s.csv"
        path.write_bytes(body)
        got = outcome(read_simulated_records, gapcalc, path)
        assert isinstance(got[0], type)  # every case is an error
        assert got == outcome(reference_read, reference_gapcalc, path)
