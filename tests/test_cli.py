import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from popbias.cli import main
from popbias.corpus import ingest_interactions
from popbias.models import PopularityRecommender

from test_gapcalc import HEADER


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def data_file(tmp_path):
    return write(
        tmp_path / "plays.tsv",
        "u1\ta1\t5\nu1\ta2\t1\nu2\ta1\t2\nu2\ta3\t4\nu3\ta1\t1\nu3\ta2\t2\n",
    )


def test_ingest_summary(data_file, capsys):
    assert main(["ingest", "--data", str(data_file)]) == 0
    out = capsys.readouterr().out
    assert "users\t3" in out
    assert "artists\t3" in out
    assert "pairs\t6" in out


def test_ingest_missing_file_exits_2(tmp_path, capsys):
    assert main(["ingest", "--data", str(tmp_path / "nope.tsv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_ingest_bad_line_exits_2(tmp_path, capsys):
    bad = write(tmp_path / "bad.tsv", "u1\ta1\t5\nu2\tonly-two-fields\n")
    assert main(["ingest", "--data", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_ingest_count_beyond_int64_exits_2(tmp_path, capsys):
    big = write(tmp_path / "big.tsv", "u1\ta1\t5\nu2\ta7\t99999999999999999999\n")
    assert main(["ingest", "--data", str(big)]) == 2
    err = capsys.readouterr().err
    assert "user 'u2', artist 'a7'" in err
    assert "Traceback" not in err


# argv templates reading one non-UTF-8 file {bad}; {data} is a valid interactions file
@pytest.mark.parametrize("argv, content", [
    (["ingest", "--data", "{bad}"], b"u1\tcaf\xe9\t5\n"),
    (["ingest", "--data", "{data}", "--groups", "{bad}"], b"u1\tlow\nu2\tcaf\xe9\n"),
    (["gapcalc", "--records", "{bad}"],
     HEADER.encode() + b"\nspotify,a,low,profile-seed,caf\xe9,50,0.5\n"),
    (["run", "--config", "{bad}"], b'{"seed": 3, "note": "caf\xe9"}\n'),
], ids=["interactions", "groups", "sessions", "config"])
def test_input_not_utf8_exits_2(tmp_path, data_file, capsys, argv, content):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(content)
    assert main([arg.format(bad=bad, data=data_file) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: not UTF-8" in err
    assert "Traceback" not in err


# each subcommand's arguments, minus --out
OUT_COMMANDS = {
    "run": lambda tmp, data: ["run", "--config", str(run_config(tmp, [{"name": "popularity"}]))],
    "tune": lambda tmp, data: [
        "tune", "--config", str(run_config(tmp, [{"name": "popularity", "grid": [{}]}]))],
    "gapcalc": lambda tmp, data: ["gapcalc", "--records", str(records_file(tmp))],
    "synth": lambda tmp, data: ["synth", "--users", "3", "--artists", "5",
                                "--profile-min", "1", "--profile-max", "2"],
    "split": lambda tmp, data: ["split", "--data", str(data)],
    "tailplot": lambda tmp, data: ["tailplot", "--data", str(data)],
    "ingest": lambda tmp, data: ["ingest", "--data", str(data)],
}


@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_out_under_a_regular_file_exits_2(tmp_path, data_file, capsys, command):
    argv = OUT_COMMANDS[command](tmp_path, data_file) + ["--out", str(data_file / "x")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"cannot write {data_file / 'x'}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "tune"])
def test_unwritable_out_rejected_before_any_fit(tmp_path, data_file, capsys, monkeypatch,
                                                command):
    fits = []
    monkeypatch.setattr(PopularityRecommender, "fit", lambda self, train: fits.append(self))
    argv = OUT_COMMANDS[command](tmp_path, data_file) + ["--out", str(data_file / "x")]
    assert main(argv) == 2
    assert f"cannot write {data_file / 'x'}: {data_file} is not a directory" in (
        capsys.readouterr().err)
    assert fits == []


def test_run_failed_report_write_leaves_no_report(tmp_path, capsys):
    config = run_config(tmp_path, [{"name": "popularity"}])
    out = tmp_path / "out"
    (out / "report.kv").mkdir(parents=True)  # report.txt is written, report.kv cannot be
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert f"cannot write {out / 'report.kv'}" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["report.kv"]
    assert (out / "report.kv").is_dir()


def test_synth_then_split_pipeline(tmp_path, capsys):
    out = tmp_path / "synth"
    rc = main([
        "synth", "--users", "9", "--artists", "30", "--profile-min", "3",
        "--profile-max", "6", "--seed", "4", "--out", str(out),
    ])
    assert rc == 0
    ds = ingest_interactions(out / "interactions.tsv", out / "groups.tsv")
    assert ds.num_users == 9
    assert ds.group_labels.count("low") == 3

    split_out = tmp_path / "split"
    rc = main([
        "split", "--data", str(out / "interactions.tsv"), "--fraction", "0.25",
        "--seed", "1", "--out", str(split_out),
    ])
    assert rc == 0
    assert (split_out / "train.tsv").exists()
    masked_lines = (split_out / "masked.tsv").read_text().splitlines()
    train = ingest_interactions(split_out / "train.tsv")
    assert train.num_pairs + len(masked_lines) == ds.num_pairs


def run_config(tmp_path, models):
    return write(tmp_path / "config.json", json.dumps({
        "seed": 3,
        "dataset": {
            "synthetic": {"num_users": 30, "num_artists": 60,
                          "profile_size_range": [4, 8]},
            "seed": 1,
        },
        "split": {"holdout_fraction": 0.2, "seed": 2},
        "models": models,
    }))


def test_run_writes_reports(tmp_path, capsys):
    config = run_config(tmp_path, [{"name": "popularity"}, {"name": "random"}])
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "report.txt").exists()
    kv = (out / "report.kv").read_text()
    assert "auc_mean.popularity.all=" in kv
    assert "delta_gap.random.all=" in kv


def test_run_seed_override_changes_hash(tmp_path):
    config = run_config(tmp_path, [{"name": "random"}])
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(config), "--seed", "99", "--out", str(out2)]) == 0
    kv1 = (out1 / "report.kv").read_text()
    kv2 = (out2 / "report.kv").read_text()
    assert kv1 != kv2


def test_run_bad_config_exits_2(tmp_path, capsys):
    config = write(tmp_path / "c.json", json.dumps({"models": []}))
    assert main(["run", "--config", str(config)]) == 2


def test_run_all_grid_points_failing_exits_3(tmp_path, capsys):
    config = run_config(tmp_path, [{"name": "wrmf", "grid": [{"factors": 0}]}])
    assert main(["run", "--config", str(config)]) == 3
    assert "stage" in capsys.readouterr().err


def test_run_overflowing_confidence_exits_3(tmp_path, capsys):
    config = run_config(tmp_path, [
        {"name": "wrmf", "hyperparams": {"alpha": 1e308, "factors": 2, "sweeps": 1}},
    ])
    with np.errstate(over="ignore"):
        assert main(["run", "--config", str(config)]) == 3
    assert "confidence" in capsys.readouterr().err


def test_tune_command(tmp_path, capsys):
    config = run_config(tmp_path, [
        {"name": "wrmf", "grid": [
            {"factors": 2, "sweeps": 2}, {"factors": 3, "sweeps": 2},
        ]},
    ])
    out = tmp_path / "tuneout"
    assert main(["tune", "--config", str(config), "--out", str(out)]) == 0
    saved = json.loads((out / "tuning.json").read_text())
    assert "wrmf" in saved
    assert len(saved["wrmf"]["log"]) == 2


def records_file(tmp_path):
    return write(tmp_path / "records.csv", "\n".join([
        HEADER,
        "spotify,a,low,profile-seed,X,50,0.5",
        "spotify,a,low,recommended,Y,60,0.6",
        "spotify,b,high,profile-seed,Z,70,0.7",
        "spotify,b,high,recommended,W,60,0.6",
    ]) + "\n")


def test_gapcalc_command(tmp_path, capsys):
    records = records_file(tmp_path)
    out = tmp_path / "gc"
    assert main(["gapcalc", "--records", str(records), "--out", str(out)]) == 0
    assert (out / "gapcalc.kv").exists()
    assert "delta_gap.spotify.overall.spotify=" in (out / "gapcalc.kv").read_text()


def test_gapcalc_invalid_records_exit_2(tmp_path):
    records = write(tmp_path / "r.csv", HEADER + "\nspotify,a,low,profile-seed,X,,\n")
    assert main(["gapcalc", "--records", str(records)]) == 2


def test_gapcalc_user_with_two_groups_exits_2(tmp_path, capsys):
    records = write(tmp_path / "r.csv", "\n".join([
        HEADER,
        "svc,a,low,profile-seed,X,50,",
        "svc,a,high,recommended,Y,60,",
    ]) + "\n")
    assert main(["gapcalc", "--records", str(records)]) == 2
    err = capsys.readouterr().err
    assert (f"{records}: line 3: simulated user (svc, a) has group 'high', "
            "but its first record has 'low'") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, text, message", [
    ("run", '{"seed": ' + "1" * 5001 + "}", "invalid JSON: Exceeds the limit"),
    ("run", "[" * 100_000 + "]" * 100_000, "invalid JSON: maximum recursion depth"),
    ("gapcalc", HEADER + "\ns,a,low,profile-seed,X,5,\n" + "x" * (2**17 + 1) + "\n",
     "line 3: field larger than field limit"),
    ("gapcalc", "x" * (2**17 + 1) + "\n", "line 1: field larger than field limit"),
], ids=["5001-digit seed", "100000-deep array", "csv field over 131072 characters",
        "csv header field over 131072 characters"])
def test_input_past_a_parser_limit_exits_2(tmp_path, capsys, command, text, message):
    path = write(tmp_path / "input", text)
    flag = {"run": "--config", "gapcalc": "--records"}[command]
    assert main([command, flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: {message}" in err
    assert "Traceback" not in err


def test_tailplot_command(data_file, tmp_path, capsys):
    out = tmp_path / "tail"
    assert main(["tailplot", "--data", str(data_file), "--out", str(out)]) == 0
    assert (out / "tail_rank_phi.tsv").exists()
    assert (out / "tail_coverage.tsv").exists()


@pytest.mark.parametrize("mutate, message", [
    (lambda raw: raw["dataset"].update(synthetic=5), "dataset.synthetic must be dict"),
    (lambda raw: raw.update(split=[1]), "split must be dict"),
    (lambda raw: raw.update(models=[7]), r"models\[0\] must be str or dict"),
    (lambda raw: raw["dataset"]["synthetic"].update(num_users="3"),
     "num_users must be int"),
    (lambda raw: raw.update({"top-n": 3}), "unknown config key 'top-n'"),
    (lambda raw: raw.update(seed=1.7), "seed must be int"),
    (lambda raw: raw.update(threads=2), "unknown config key 'threads'"),
    (lambda raw: raw.update(models=[{"name": "multivae", "hyperparams": {"momentum": 0.9}}]),
     r"unknown config key 'models\[0\].hyperparams.momentum'"),
])
def test_run_malformed_config_exits_2(tmp_path, capsys, mutate, message):
    config = run_config(tmp_path, [{"name": "popularity"}])
    raw = json.loads(config.read_text())
    mutate(raw)
    write(config, json.dumps(raw))
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert re.search(message, err)
    assert "Traceback" not in err


def test_run_config_with_bare_nan_exits_2(tmp_path, capsys):
    config = run_config(tmp_path, [{"name": "slim", "hyperparams": {"l1_penalty": 0.5}}])
    write(config, config.read_text().replace('"l1_penalty": 0.5', '"l1_penalty": NaN'))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config models[0].hyperparams.l1_penalty must be a finite number, got nan" in err
    assert not (tmp_path / "out").exists()


def test_run_config_with_huge_integer_exits_2(tmp_path, capsys):
    config = run_config(tmp_path, [{"name": "popularity"}])
    write(config, config.read_text().replace('"num_users": 30', '"zipf_exponent": 1' + "0" * 400
                                             + ', "num_users": 30'))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert ("config dataset.synthetic.zipf_exponent must be a finite number, "
            "got an integer too large for a float") in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, message", [
    (["--mix", "nan", "1", "2"], "three finite non-negative biases"),
    (["--mix", "0.3", "1", "1000"], "group 'high': only 2 artists"),
    (["--exponent", "400"], "group 'low': only 5 artists"),
])
def test_synth_bad_weights_exit_2(tmp_path, capsys, flags, message):
    out = tmp_path / "synth"
    argv = ["synth", "--users", "3", "--artists", "30", "--profile-max", "12", "--out", str(out)]
    assert main(argv + flags) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_synth_catalogue_larger_than_memory_exits_3(tmp_path, capsys):
    out = tmp_path / "synth"
    argv = ["synth", "--users", "3", "--artists", str(10**13), "--profile-min", "1",
            "--profile-max", "1", "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert re.search(r"a synthetic dataset of 3 users x 10,000,000,000,000 artists needs "
                     r"[\d,]+ bytes, more than the [\d,]+ bytes", err)
    assert "Traceback" not in err
    assert not out.exists()


def test_run_config_not_an_object_exits_2(tmp_path, capsys):
    config = write(tmp_path / "c.json", "[1, 2]")
    assert main(["run", "--config", str(config), "--seed", "4"]) == 2
    assert "config root must be dict" in capsys.readouterr().err


def test_bench_tracer_runs_against_library(tmp_path):
    """perfbench/child.py wraps harness names and model methods by attribute."""
    root = Path(__file__).resolve().parents[1]
    config = root / "tests" / "data" / "golden_learners_config.json"
    marks = tmp_path / "marks.json"
    traced = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"), "trace", str(marks),
         "run", "--config", str(config), "--out", str(tmp_path / "traced")],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert traced.returncode == 0, traced.stderr
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "plain")]) == 0

    def report(name):
        lines = (tmp_path / name / "report.kv").read_text().splitlines()
        return [line for line in lines if not line.startswith("provenance.version.")]

    assert report("traced") == report("plain")
    spans = json.loads(marks.read_text())["spans"]
    assert {"rank_candidates", "evaluate:slim", "slim.fit", "wrmf.score"} <= {
        span[0] for span in spans}

    def under_evaluate(span):  # span = [name, start, end, parent, counts]
        while span[3] >= 0:
            span = spans[span[3]]
            if span[0].startswith("evaluate:"):
                return True
        return False

    # evaluate.rank_s sums these spans; without one it would read 0 however ranking performs
    assert any(span[0] == "rank_candidates" and under_evaluate(span) for span in spans)


def test_bench_tracer_runs_against_gapcalc(tmp_path):
    """perfbench/child.py wraps the gapcalc names and counts records with len()."""
    root = Path(__file__).resolve().parents[1]
    records = root / "tests" / "data" / "simulated_records.csv"
    marks = tmp_path / "marks.json"
    traced = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"), "trace", str(marks),
         "gapcalc", "--records", str(records), "--out", str(tmp_path / "traced")],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert traced.returncode == 0, traced.stderr
    assert main(["gapcalc", "--records", str(records), "--out", str(tmp_path / "plain")]) == 0
    assert ((tmp_path / "traced" / "gapcalc.kv").read_bytes()
            == (tmp_path / "plain" / "gapcalc.kv").read_bytes())
    spans = {span[0]: span for span in json.loads(marks.read_text())["spans"]}
    assert {"read_simulated_records", "gapcalc", "GapcalcReport.write"} <= set(spans)
    # gapcalc.records_per_s divides by this count
    assert spans["read_simulated_records"][4] == {"records": 27}


def test_ingest_groups_first_line_typo_exits_2(data_file, tmp_path, capsys):
    groups = write(tmp_path / "groups.tsv", "u1\tlo\nu2\thigh\nu3\tlow\n")
    assert main(["ingest", "--data", str(data_file), "--groups", str(groups)]) == 2
    assert f"{groups}: line 1: unknown group label 'lo'" in capsys.readouterr().err


@pytest.mark.parametrize("groups, message", [
    ("u1\tlow\nu9\thigh\n", "group file references unknown user(s): ['u9']"),
    ("u1\tlow\nu2\thigh\n", "group file missing label for user(s): ['u3']"),
], ids=["unknown user", "missing label"])
def test_ingest_group_cross_check_names_the_groups_file(data_file, tmp_path, capsys, groups,
                                                        message):
    groups = write(tmp_path / "groups.tsv", groups)
    assert main(["ingest", "--data", str(data_file), "--groups", str(groups)]) == 2
    err = capsys.readouterr().err
    assert f"error: {groups}: {message}" in err
    assert "Traceback" not in err


def test_ingest_count_past_the_int_string_limit_exits_2(tmp_path, capsys):
    big = write(tmp_path / "big.tsv", "u1\ta1\t5\nu2\ta7\t" + "9" * 5001 + "\n")
    limit = sys.get_int_max_str_digits()
    try:
        for max_digits in (limit, 0):  # the message does not depend on the limit
            sys.set_int_max_str_digits(max_digits)
            assert main(["ingest", "--data", str(big)]) == 2
            err = capsys.readouterr().err
            assert (f"error: {big}: line 2: play count of 5001 digits for user 'u2', "
                    f"artist 'a7' exceeds {2**63 - 1}") in err
            assert "9" * 100 not in err
            assert "Traceback" not in err
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("count", ["٣", "５", "1_000", "+5", " 7", "-1"],
                         ids=["arabic-indic", "full-width", "underscore", "plus", "padded",
                              "negative"])
def test_ingest_count_that_is_not_ascii_digits_exits_2(tmp_path, capsys, count):
    data = write(tmp_path / "d.tsv", f"u1\ta1\t5\nu2\ta7\t{count}\n")
    out = tmp_path / "out.tsv"
    assert main(["ingest", "--data", str(data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {data}: line 2: count {count!r} is not an integer" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_ingest_zero_count_exits_2_as_below_one(tmp_path, capsys):
    data = write(tmp_path / "d.tsv", "u1\ta1\t5\nu2\ta7\t000\n")
    assert main(["ingest", "--data", str(data)]) == 2
    assert f"error: {data}: line 2: count 0 < 1" in capsys.readouterr().err


def _never_called(*args, **kwargs):
    raise AssertionError("the memory check let an impossible allocation through")


@pytest.mark.parametrize("model, allocator, message", [
    ({"name": "wrmf", "hyperparams": {"factors": 4_000_000_000}},
     "popbias.models.wrmf._confidences", "WRMF with 4000000000 factors needs "),
    ({"name": "multivae", "hyperparams": {"hidden_dim": 4_000_000_000}},
     "popbias.models.multivae.init_params", "Multi-VAE with hidden_dim 4000000000 needs "),
], ids=["wrmf factors", "multivae hidden_dim"])
def test_run_state_larger_than_memory_exits_3(tmp_path, capsys, monkeypatch, model,
                                              allocator, message):
    # the first call that allocates the state fails the test instead of allocating
    monkeypatch.setattr(allocator, _never_called)
    config = run_config(tmp_path, [model])
    assert main(["run", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert re.search(re.escape(message) + r"[\d,]+ bytes, more than the [\d,]+ bytes", err)
    assert "Traceback" not in err
