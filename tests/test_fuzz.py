"""Mutated input files and configs never end in a traceback.

Small valid inputs for ``ingest`` (with and without a groups file),
``split``, ``tailplot`` and ``gapcalc`` are mutated (truncated, byte-flipped,
fields swapped for huge, non-finite, negative or overlong values, blank and
duplicated lines) and fed to ``cli.main`` in-process, with any ``--out`` in
the same temporary directory.  A small valid ``run``/``tune`` config is
mutated through its JSON tree (keys dropped or added, values wrapped or
swapped for hostile ones) and its text (truncated, byte-flipped).  Every run
must return 0, 2 or 3 and raise nothing.  The example budgets are fixed and
the search derandomized, so each test costs the same few seconds on every
run.
"""

import contextlib
import copy
import io
import json
import math
import random
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from popbias.cli import main

from test_gapcalc import HEADER

INTERACTIONS = b"user\tartist\tcount\nu1\ta1\t3\nu1\ta2\t1\nu2\ta1\t2\nu3\ta3\t5\nu3\ta1\t1\n"
GROUPS = b"user\tgroup\nu1\tlow\nu2\tmedium\nu3\thigh\n"
RECORDS = "\n".join([
    HEADER,
    "spotify,a,low,profile-seed,X,50,0.5",
    "spotify,a,low,recommended,Y,60,0.6",
    "spotify,b,high,profile-seed,Z,70,0.7",
    "spotify,b,high,recommended,W,60,0.6",
    "lastfm,a,low,profile-seed,X,,0.5",
    "lastfm,a,low,recommended,V,,0.1",
]).encode() + b"\n"

FIELDS = [
    "", " ", "0", "-1", "1.5", "nan", "NaN", "inf", "-inf", "1e400", "-0",
    "9" * 19, "9" * 40, "9" * 5000, "0" * 5000 + "7", "x" * 140_000, "\x00",
    "١", "#", "low", "high", "recommended", "profile-seed", "u1", "a1",
]

MUTATION = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0, 1)),
    st.tuples(st.just("flip"), st.floats(0, 1), st.integers(1, 255)),
    st.tuples(st.just("field"), st.integers(0, 20), st.integers(0, 7), st.sampled_from(FIELDS)),
    st.tuples(st.just("blank"), st.integers(0, 20)),
    st.tuples(st.just("duplicate"), st.integers(0, 20)),
)


def mutate(data: bytes, sep: bytes, mutations) -> bytes:
    """Apply each mutation in turn to the file's bytes."""
    for kind, *how in mutations:
        lines = data.split(b"\n")
        if kind == "truncate":
            data = data[: int(how[0] * len(data))]
        elif kind == "flip":
            if data:
                at = min(int(how[0] * len(data)), len(data) - 1)
                data = data[:at] + bytes([data[at] ^ how[1]]) + data[at + 1:]
        elif kind == "field":
            line, field, text = how
            fields = lines[line % len(lines)].split(sep)
            fields[field % len(fields)] = text.encode()
            lines[line % len(lines)] = sep.join(fields)
            data = b"\n".join(lines)
        else:
            line = how[0] % len(lines)
            lines.insert(line, b"" if kind == "blank" else lines[line])
            data = b"\n".join(lines)
    return data


# Each case: the argv, with file names standing for their paths, and the
# one file that is mutated.
CASES = [
    (["ingest", "--data", "d.tsv"], "d.tsv"),
    (["ingest", "--data", "d.tsv", "--groups", "g.tsv"], "d.tsv"),
    (["ingest", "--data", "d.tsv", "--groups", "g.tsv"], "g.tsv"),
    (["gapcalc", "--records", "r.csv"], "r.csv"),
    (["split", "--data", "d.tsv", "--out", "out"], "d.tsv"),
    (["tailplot", "--data", "d.tsv", "--out", "out"], "d.tsv"),
]
FILES = {"d.tsv": (INTERACTIONS, b"\t"), "g.tsv": (GROUPS, b"\t"), "r.csv": (RECORDS, b",")}
PATHS = {*FILES, "out"}  # argv names that stand for a path in the temp dir


@settings(max_examples=180, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=st.sampled_from(CASES), mutations=st.lists(MUTATION, min_size=1, max_size=4))
def test_mutated_inputs_exit_0_2_or_3(case, mutations):
    argv, mutated = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, (data, sep) in FILES.items():
            (Path(tmp) / name).write_bytes(mutate(data, sep, mutations) if name == mutated
                                           else data)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([str(Path(tmp) / a) if a in PATHS else a for a in argv])
    assert code in (0, 2, 3)


# Synthetic 30 x 60, four small learners and one two-point grid: about 60 ms
# a run.  A dropped key falls back to its default, which at this size still
# runs in well under a second.
CONFIG = {
    "seed": 1,
    "dataset": {
        "synthetic": {"num_users": 30, "num_artists": 60, "zipf_exponent": 1.0,
                      "profile_size_range": [4, 8], "mainstream_mix": [0.3, 1.0, 2.2],
                      "count_geometric_p": 0.5},
        "seed": 2,
    },
    "split": {"holdout_fraction": 0.2, "seed": 3},
    "models": [
        {"name": "popularity", "hyperparams": {"weighting": "plays"}},
        {"name": "wrmf", "hyperparams": {"factors": 2, "sweeps": 2, "alpha": 5.0}},
        {"name": "slim", "hyperparams": {"max_iters": 5, "l1_penalty": 0.5}},
        {"name": "multivae", "hyperparams": {"latent_dim": 2, "hidden_dim": 4, "epochs": 2,
                                             "batch_size": 8, "learning_rate": 0.3}},
        {"name": "random", "grid": [{"seed": 5}, {"seed": 6}]},
    ],
    "top_n": 5,
    "ap_k": 10,
    "tune_seed": 4,
    "popularity_scope": "train-only",
    "gap_profile": "train",
}
# A swapped leaf value keeps its JSON type three times in four.  Keys whose
# value sets the amount of work take only small or invalid values; every
# other key takes hostile ones (an int also goes into a float key).
WORK_KEYS = {"num_users", "num_artists", "epochs", "sweeps", "max_iters", "factors",
             "hidden_dim", "latent_dim", "batch_size", "profile_size_range"}
SMALL = [0, 1, 2, 3, 9, -1]
HOSTILE_INTS = [-1, 0, 2**31, 2**63, -(2**63), 10**30, 10**400]
HOSTILE = {
    int: HOSTILE_INTS,
    float: [math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 1e-12, 0.999, 1e12, -1.0,
            0.0, -0.0] + HOSTILE_INTS,
    str: ["", "x", "plays", "log", "slim", "multivae", "train", "full", "all-data"],
}
DEEP: list = []
for _ in range(200):
    DEEP = [DEEP]
WRONG_TYPE = ["3", 1.5, True, None, [], {}, [1], {"x": 1}, DEEP]
# Most of the other mutations fail at load; a swapped value often runs the pipeline.
CONFIG_MUTATIONS = ("value",) * 6 + ("drop", "unknown", "wrap", "truncate", "flip")


def draw_config_mutations(rng: random.Random) -> list[tuple]:
    """One to three mutations for ``mutate_config``, one mutation most often."""
    mutations = []
    for _ in range(rng.choice((1, 1, 2, 3))):
        kind = rng.choice(CONFIG_MUTATIONS)
        if kind == "truncate":
            mutations.append((kind, rng.random()))
        elif kind == "flip":
            mutations.append((kind, rng.random(), rng.randint(1, 255)))
        else:
            mutations.append((kind, rng.randrange(100), rng.randrange(100)))
    return mutations


def tree_paths(node, path=()):
    """``(container, key, path)`` for every value below ``node``, parents first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key, path + (key,)
        if isinstance(value, (dict, list)):
            yield from tree_paths(value, path + (key,))


def mutate_config(mutations) -> bytes:
    """Apply tree mutations to a copy of ``CONFIG``, then text mutations to its JSON."""
    raw = copy.deepcopy(CONFIG)
    text_mutations = []
    for kind, *how in mutations:
        places = list(tree_paths(raw))
        if kind in ("truncate", "flip"):
            text_mutations.append((kind, *how))
        elif kind == "unknown":
            dicts = [raw] + [c[k] for c, k, _ in places if isinstance(c[k], dict)]
            dicts[how[0] % len(dicts)]["zz_unknown"] = 1
        elif kind == "value":  # on a leaf: a swapped section fails at load anyway
            leaves = [p for p in places if not isinstance(p[0][p[1]], (dict, list))]
            if leaves:
                container, key, path = leaves[how[0] % len(leaves)]
                if how[1] % 4 == 0:
                    values = WRONG_TYPE
                elif WORK_KEYS.intersection(map(str, path)):
                    values = SMALL
                else:
                    values = HOSTILE.get(type(container[key]), WRONG_TYPE)
                container[key] = copy.deepcopy(values[how[1] // 4 % len(values)])
        elif places:
            container, key, _ = places[how[0] % len(places)]
            if kind == "drop":
                del container[key]
            else:
                container[key] = [container[key]] if how[1] % 2 else {"v": container[key]}
    # compact separators: a flipped byte can change a digit but never add one
    data = json.dumps(raw, separators=(",", ":")).encode()
    return mutate(data, b",", text_mutations)


def test_mutated_configs_exit_0_2_or_3():
    # a seeded draw covers leaves and values evenly; hypothesis' derandomized
    # examples keep repeating a few small choices
    rng = random.Random(0)
    for example in range(200):
        command = rng.choice(("run", "tune"))
        mutations = draw_config_mutations(rng)
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "c.json"
            config.write_bytes(mutate_config(mutations))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([command, "--config", str(config),
                             "--out", str(Path(tmp) / "out")])
        assert code in (0, 2, 3), (example, command, mutations)
