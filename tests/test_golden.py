"""Golden-file checks for the two report formats.

``report.kv`` pins the two baselines; ``learners.kv`` pins SLIM, WRMF and
Multi-VAE on a tiny synthetic config so solver rewrites must keep their
report values.

Environment-version provenance lines are excluded from the comparison; full
byte determinism within one environment is covered by the rerun tests.
"""

import json
from pathlib import Path

import pytest

from popbias.harness.experiment import ExperimentConfig, run_experiment
from popbias.harness.gapcalc import gapcalc, read_simulated_records

DATA = Path(__file__).parent / "data"


def strip_versions(text: str) -> list[str]:
    return [
        line
        for line in text.splitlines()
        if "version" not in line
    ]


def run_config(tmp_path_factory, name: str) -> Path:
    out = tmp_path_factory.mktemp(name)
    with open(DATA / f"{name}.json", encoding="utf-8") as fh:
        config = ExperimentConfig.from_dict(json.load(fh))
    run_experiment(config, out_dir=out)
    return out


@pytest.fixture(scope="module")
def experiment_outputs(tmp_path_factory):
    return run_config(tmp_path_factory, "golden_config")


def test_report_kv_matches_golden(experiment_outputs):
    got = strip_versions((experiment_outputs / "report.kv").read_text())
    want = strip_versions((DATA / "golden" / "report.kv").read_text())
    assert got == want


def test_report_txt_matches_golden(experiment_outputs):
    got = strip_versions((experiment_outputs / "report.txt").read_text())
    want = strip_versions((DATA / "golden" / "report.txt").read_text())
    assert got == want


def test_learners_kv_matches_golden(tmp_path_factory):
    out = run_config(tmp_path_factory, "golden_learners_config")
    got = strip_versions((out / "report.kv").read_text())
    want = strip_versions((DATA / "golden" / "learners.kv").read_text())
    assert got == want


@pytest.fixture(scope="module")
def gapcalc_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_gap")
    records = read_simulated_records(DATA / "simulated_records.csv")
    gapcalc(records).write(out)
    return out


def test_gapcalc_kv_matches_golden(gapcalc_outputs):
    got = (gapcalc_outputs / "gapcalc.kv").read_bytes()
    want = (DATA / "golden" / "gapcalc.kv").read_bytes()
    assert got == want


def test_gapcalc_txt_matches_golden(gapcalc_outputs):
    got = (gapcalc_outputs / "gapcalc.txt").read_bytes()
    want = (DATA / "golden" / "gapcalc.txt").read_bytes()
    assert got == want
