import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import popbias.cli
import popbias.harness.experiment
from popbias.cli import main
from popbias.corpus import ingest_interactions
from popbias.models.base import PopularityRecommender
from popbias.models.multivae import MultiVaeRecommender
from popbias.models.slim import SlimRecommender
from popbias.models.wrmf import WrmfRecommender

from conftest import bom_copy
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


# Runs the CLI on argv[1:] with SIGXFSZ ignored and RLIMIT_FSIZE at 1,500 B,
# set in this child only, so a write past 1,500 B fails with EFBIG.
FILE_SIZE_LIMITED = """
import resource, signal, sys
from popbias.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (1500, 1500))
sys.exit(main(sys.argv[1:]))
"""


def test_run_failed_report_write_keeps_the_earlier_reports(tmp_path):
    # report.txt fits under the limit and report.kv does not
    config = Path(__file__).parent / "data" / "golden_config.json"
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--seed", "9", "--out", str(out)]) == 0
    earlier = {path.name: path.read_bytes() for path in out.iterdir()}
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", FILE_SIZE_LIMITED, "run", "--config", str(config),
         "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 2, done.stderr
    assert f"cannot write {out / 'report.kv'}: [Errno 27]" in done.stderr
    assert {path.name: path.read_bytes() for path in out.iterdir()} == earlier


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


def run_config(tmp_path, models, name="config.json"):
    return write(tmp_path / name, json.dumps({
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


def test_run_negative_seed_exits_2_before_any_fit(tmp_path, capsys, monkeypatch):
    # WRMF's derived seed would be -250 + 202, after SLIM was fitted and evaluated
    fits = []
    for model in (SlimRecommender, WrmfRecommender):
        monkeypatch.setattr(model, "fit", lambda self, train: fits.append(self))
    config = run_config(tmp_path, ["slim", "wrmf"])
    assert main(["run", "--config", str(config), "--seed", "-250"]) == 2
    assert capsys.readouterr().err == "error: config seed must be >= 0, got -250\n"
    assert fits == []


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
    assert main(["run", "--config", str(config)]) == 3
    assert "confidence" in capsys.readouterr().err


@pytest.mark.parametrize("models, code, message", [
    ([{"name": "multivae", "hyperparams": {"learning_rate": 1e308, "batch_size": 8}}],
     3, "stage 'fit:multivae': non-finite loss at epoch 0, batch 1"),
    ([{"name": "wrmf", "hyperparams": {"alpha": 1e308, "factors": 2, "sweeps": 1}}],
     3, "stage 'fit:wrmf': confidence 1 + alpha * f(count) overflows"),
    ([{"name": "wrmf"}, {"name": "popularity"}, {"name": "wrmf", "grid": [{"factors": 2}]}],
     2, "config models[2] lists model 'wrmf' again, after models[0]"),
    ([{"name": "popularity", "hyperparams": {"weighting": "plays"},
       "grid": [{"weighting": "listeners"}]}],
     2, "config models[0] has both hyperparams and a grid"),
    # the only update leaves huge but finite parameters, so scoring overflows
    ([{"name": "multivae", "hyperparams": {"learning_rate": 1e308, "epochs": 1}}],
     3, "stage 'evaluate:multivae': non-finite score for user 'u00'"),
])
def test_run_mistake_prints_only_the_error(tmp_path, models, code, message):
    # in a fresh interpreter, where NumPy's warnings would reach stderr
    root = Path(__file__).resolve().parents[1]
    config = run_config(tmp_path, models)
    done = subprocess.run(
        [sys.executable, "-W", "default", "-m", "popbias.cli", "run", "--config", str(config)],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == code, done.stderr
    assert done.stderr.startswith(f"error: {message}"), done.stderr
    assert done.stderr.count("\n") == 1, done.stderr


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


def test_tune_failure_names_its_stage(tmp_path, capsys):
    config = write(tmp_path / "config.json", json.dumps({
        "dataset": {"interactions": str(tmp_path / "missing.tsv")},
        "models": [{"name": "wrmf", "grid": [{"factors": 2}]}],
    }))
    assert main(["tune", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: stage 'dataset': cannot read ")


def test_tune_without_grid_reads_no_data(tmp_path, capsys, monkeypatch):
    def loader(*args):
        raise AssertionError("tune loaded the dataset")
    for name in ("ingest_interactions", "generate_synthetic"):
        monkeypatch.setattr(popbias.harness.experiment, name, loader)
    config = run_config(tmp_path, ["popularity", {"name": "wrmf"}])
    assert main(["tune", "--config", str(config)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "no model in the config declares a tuning grid\n"


def test_ingest_out_re_ingests_to_the_same_dataset(tmp_path, capsys):
    data = write(tmp_path / "plays.tsv",
                 "user\tartist\tcount\nu2\ta3\t4\nu1\ta2\t1\nu1\ta1\t5\nu2\ta1\t2\nu1\ta2\t3\n")
    groups = write(tmp_path / "groups.tsv", "u1\tlow\nu2\thigh\n")
    out = tmp_path / "normalized.tsv"
    assert main(["ingest", "--data", str(data), "--groups", str(groups), "--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote normalized interactions to {out}\n")
    assert ingest_interactions(out, groups) == ingest_interactions(data, groups)


def test_ingest_out_of_a_synth_output_is_byte_identical(tmp_path):
    synth = tmp_path / "synth"
    assert main(["synth", "--users", "9", "--artists", "30", "--profile-min", "3",
                 "--profile-max", "6", "--seed", "4", "--out", str(synth)]) == 0
    out = tmp_path / "normalized.tsv"
    assert main(["ingest", "--data", str(synth / "interactions.tsv"),
                 "--groups", str(synth / "groups.tsv"), "--out", str(out)]) == 0
    assert out.read_bytes() == (synth / "interactions.tsv").read_bytes()


@pytest.mark.parametrize("command", ["split", "tailplot"])
def test_split_and_tailplot_take_no_groups(tmp_path, data_file, capsys, command):
    groups = write(tmp_path / "groups.tsv", "u1\tlow\nu2\tmedium\nu3\thigh\n")
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--data", str(data_file), "--groups", str(groups),
              "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: popbias ")
    assert f"popbias: error: unrecognized arguments: --groups {groups}" in err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("command", ["run", "tune"])
@pytest.mark.parametrize("old, new, key", [
    ('"seed": 3', '"seed": 1, "seed": 3', "seed"),
    ('"models": [', '"models": ["slim"], "models": [', "models"),
    ('{"name": "wrmf"', '{"name": "slim", "name": "wrmf"', "name"),
    ('"factors": 3', '"factors": 4, "factors": 3', "factors"),
    ('"weighting": "plays"', '"weighting": "plays", "weighting": "listeners"', "weighting"),
])
def test_config_with_a_duplicate_key_exits_2(tmp_path, capsys, command, old, new, key):
    config = run_config(tmp_path, [{"name": "wrmf", "grid": [{"factors": 2, "sweeps": 1},
                                                             {"factors": 3, "sweeps": 1}]},
                                   {"name": "popularity", "hyperparams": {"weighting": "plays"}}])
    text = config.read_text()
    assert text.count(old) == 1
    write(config, text.replace(old, new))
    assert main([command, "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {config}: duplicate key {key!r}\n"
    assert captured.out == ""


def test_config_with_a_leading_byte_order_mark_runs_as_without(tmp_path):
    config = run_config(tmp_path, [{"name": "popularity"}])
    reports = []
    for path in (config, bom_copy(config)):
        out = tmp_path / f"out-{path.stem}"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        reports.append((out / "report.kv").read_text(encoding="utf-8"))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command", ["run", "tune"])
def test_bad_synthetic_section_exits_2_at_load(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(popbias.harness.experiment, "generate_synthetic",
                        lambda *args: pytest.fail("the dataset stage ran"))
    config = run_config(tmp_path, ["popularity"])
    write(config, config.read_text().replace('"num_users": 30', '"num_users": 500'))
    assert main([command, "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: config dataset.synthetic: "
                            "num_users must be divisible by 3 (three groups)\n")
    assert captured.out == ""


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


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 14.7 MiB for an array with shape (64, 30000)")


@pytest.mark.parametrize("argv, patched, message", [
    (["run", "--config", "CONFIG"], (MultiVaeRecommender, "fit"), "stage 'fit:multivae': "),
    (["ingest", "--data", "DATA"], (popbias.cli, "ingest_interactions"), ""),
    (["tune", "--config", "GRID"], (MultiVaeRecommender, "fit"), "stage 'tune:multivae': "),
], ids=["run learner", "ingest", "tune learner"])
def test_out_of_memory_exits_3_with_one_line(tmp_path, data_file, capsys, monkeypatch, argv,
                                             patched, message):
    monkeypatch.setattr(*patched, _out_of_memory)
    paths = {"DATA": str(data_file), "CONFIG": str(run_config(tmp_path, [{"name": "multivae"}])),
             "GRID": str(run_config(tmp_path, [{"name": "multivae", "grid": [{"epochs": 1}]}],
                                    "grid.json"))}
    assert main([paths.get(arg, arg) for arg in argv]) == 3
    err = capsys.readouterr().err
    assert err == (f"error: {message}out of memory (Unable to allocate 14.7 MiB for an array "
                   "with shape (64, 30000))\n")


@pytest.mark.parametrize("argv", [
    ["synth", "--users", "٣٠", "--artists", "60", "--profile-min", "5", "--profile-max", "10"],
    ["synth", "--users", "30", "--artists", "6_0", "--profile-min", "5", "--profile-max", "10"],
    ["synth", "--users", "30", "--artists", "60", "--seed", "١"],
    ["synth", "--users", "30", "--artists", "60", "--exponent", "1_0"],
    ["synth", "--users", "30", "--artists", "60", "--mix", "0.3", "1.٠", "2"],
    ["split", "--data", "DATA", "--fraction", "0.٥"],
    ["split", "--data", "DATA", "--seed", "１"],
    ["tune", "--config", "CONFIG", "--seed", "1_0"],
    ["run", "--config", "CONFIG", "--seed", "1_0"],
], ids=["synth users arabic-indic", "synth artists underscore", "synth seed arabic-indic",
        "synth exponent underscore", "synth mix arabic-indic", "split fraction arabic-indic",
        "split seed full-width", "tune seed underscore", "run seed underscore"])
def test_numeric_option_that_is_not_ascii_exits_2(tmp_path, data_file, capsys, argv):
    config = run_config(tmp_path, [{"name": "popularity"}])
    out = tmp_path / "out"
    paths = {"DATA": str(data_file), "CONFIG": str(config)}
    with pytest.raises(SystemExit) as exc:
        main([paths.get(a, a) for a in argv] + ["--out", str(out)])
    assert exc.value.code == 2
    assert "invalid ascii_" in capsys.readouterr().err
    assert not out.exists()


def test_bad_fixed_hyperparameter_exits_2_before_the_dataset_stage(tmp_path, capsys,
                                                                  monkeypatch):
    monkeypatch.setattr("popbias.harness.experiment.generate_synthetic",
                        lambda *args: pytest.fail("the dataset stage ran"))
    config = run_config(tmp_path, [{"name": "popularity"},
                                   {"name": "multivae", "hyperparams": {"epochs": 0}}])
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "error: config models[1].hyperparams: epochs and batch_size must be >= 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["gapcalc", "split", "synth", "tailplot"])
def test_out_is_checked_before_data_is_read_or_generated(tmp_path, data_file, capsys,
                                                         monkeypatch, command):
    for name in ("generate_synthetic", "ingest_interactions", "read_simulated_records"):
        monkeypatch.setattr(f"popbias.cli.{name}",
                            lambda *args: pytest.fail("data was read or generated"))
    argv = OUT_COMMANDS[command](tmp_path, data_file) + ["--out", str(data_file / "x")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {data_file / 'x'}: {data_file} is not a directory\n")


def test_run_multivae_loss_overflow_exits_3(tmp_path, capsys):
    # three batches: the first update leaves parameters that overflow the second loss
    config = run_config(tmp_path, [{"name": "multivae", "hyperparams": {
        "learning_rate": 1e308, "epochs": 1, "batch_size": 10}}])
    assert main(["run", "--config", str(config)]) == 3
    assert capsys.readouterr().err == (
        "error: stage 'fit:multivae': non-finite loss at epoch 0, batch 1\n")


def test_split_negative_seed_exits_2(data_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["split", "--data", str(data_file), "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: seed must be a non-negative integer\n"
    assert not out.exists()


def test_run_out_name_too_long_exits_2(tmp_path, capsys):
    config = run_config(tmp_path, [{"name": "popularity"}])
    out = tmp_path / ("o" * 256)
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: [Errno 36] File name too long"), err
    assert err.count("\n") == 1
