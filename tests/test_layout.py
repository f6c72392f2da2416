"""The file boundary: only ``corpus.read_lines`` and ``corpus.write_lines``
open, create or write files; every other module calls them.  The session
analysis in ``harness/gapcalc.py`` reads and writes through ``corpus``, not
through the experiment harness, and imports no learner; a fresh interpreter
that imports it and runs ``gapcalc``, ``ingest``, ``split`` and ``tailplot``
loads no learner, no experiment harness and no ``scipy.linalg``.  ``metrics.py`` takes
popularity as a plain φ vector and imports nothing from popbias but its
errors.  Entry points that only tests call live in ``tests/``, not ``src/``.
Each subcommand takes only the options it reads."""

import argparse
import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import popbias.models
from popbias.cli import build_parser

SRC = Path(__file__).resolve().parents[1] / "src" / "popbias"
FILE_ACCESS = re.compile(r"open\(|\.read_text\(|\.write_text\(|\.mkdir\(")
BOUNDARY = ("read_lines", "write_lines")


def boundary_lines() -> set[int]:
    """Line numbers of the two boundary functions in ``corpus.py``."""
    tree = ast.parse((SRC / "corpus.py").read_text(encoding="utf-8"))
    found = {node.name: range(node.lineno, node.end_lineno + 1)
             for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name in BOUNDARY}
    assert sorted(found) == sorted(BOUNDARY), f"corpus.py defines only {sorted(found)}"
    return {lineno for lines in found.values() for lineno in lines}


def test_files_are_touched_only_through_the_corpus_boundary():
    allowed = boundary_lines()
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            if FILE_ACCESS.search(line) and not (
                path == SRC / "corpus.py" and lineno in allowed
            ):
                hits.append(f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    assert not hits, "file access outside corpus.read_lines/write_lines:\n" + "\n".join(hits)


def imported_names(path: Path) -> set[str]:
    """Absolute names of the modules ``path`` imports and of the names it imports from them."""
    package = ["popbias", *path.relative_to(SRC).parent.parts]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) + 1 - node.level] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_gapcalc_imports_no_learner():
    banned = ("popbias.models", "popbias.harness.experiment")
    hits = sorted(name for name in imported_names(SRC / "harness" / "gapcalc.py")
                  if any(name == b or name.startswith(f"{b}.") for b in banned))
    assert not hits, f"harness/gapcalc.py imports {hits}"


# Runs each CLI argv given as JSON in argv[1] and prints the exit codes and
# which of the modules that only ``run`` and ``tune`` need got loaded.
NO_LEARNER_SCRIPT = """
import contextlib, io, json, sys
import popbias.harness.gapcalc
from popbias import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
learner_side = ("popbias.models", "popbias.harness.experiment", "scipy.linalg")
print(json.dumps([codes, [name for name in learner_side if name in sys.modules]]))
"""


def test_non_learner_subcommands_load_no_learner_in_a_fresh_interpreter(tmp_path):
    data = tmp_path / "plays.tsv"
    data.write_text("u1\ta1\t3\nu1\ta2\t1\nu2\ta1\t2\nu3\ta3\t5\nu3\ta1\t1\n",
                    encoding="utf-8")
    records = SRC.parents[1] / "tests" / "data" / "simulated_records.csv"
    runs = [
        ["gapcalc", "--records", str(records), "--out", str(tmp_path / "gap")],
        ["ingest", "--data", str(data), "--out", str(tmp_path / "normalized.tsv")],
        ["split", "--data", str(data), "--out", str(tmp_path / "split")],
        ["tailplot", "--data", str(data), "--out", str(tmp_path / "tail")],
    ]
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_LEARNER_SCRIPT, json.dumps(runs)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0, 0, 0], []]


def test_models_export_no_test_only_entry_point():
    assert sorted(popbias.models.__all__) == [
        "MultiVaeRecommender", "PopularityRecommender", "RandomRecommender",
        "RecommenderModel", "SlimRecommender", "WrmfRecommender", "kl_gaussian",
        "positive_ranks", "rank_candidates", "wrmf_objective",
    ]
    moved = {"elbo_loss", "gradient", "_batch_loss_and_grads", "recommend_top_n", "PARAM_KEYS",
             "solve_factors"}
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            hits.extend(f"{path.relative_to(SRC)}:{node.lineno}: {name}"
                        for name in names if name in moved)
    assert not hits, "test-only entry points defined under src/:\n" + "\n".join(hits)


def test_each_subcommand_takes_only_the_options_it_reads():
    (sub,) = [action for action in build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    options = {name: sorted(action.dest for action in parser._actions if action.dest != "help")
               for name, parser in sub.choices.items()}
    assert options == {
        "ingest": ["data", "groups", "out"],
        "synth": ["artists", "exponent", "mix", "out", "profile_max", "profile_min", "seed",
                  "users"],
        "split": ["data", "fraction", "out", "seed"],
        "tune": ["config", "out", "seed"],
        "run": ["config", "out", "seed"],
        "gapcalc": ["out", "records"],
        "tailplot": ["data", "out"],
    }


def test_metrics_imports_only_errors_from_popbias():
    hits = sorted(name for name in imported_names(SRC / "metrics.py")
                  if name.split(".")[0] == "popbias"
                  and not (name == "popbias.errors" or name.startswith("popbias.errors.")))
    assert not hits, f"metrics.py imports {hits}"
