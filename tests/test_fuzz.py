"""Mutated input files never end in a traceback.

Small valid inputs for ``ingest`` (with and without a groups file),
``split``, ``tailplot`` and ``gapcalc`` are mutated (truncated, byte-flipped,
fields swapped for huge, non-finite, negative or overlong values, blank and
duplicated lines) and fed to ``cli.main`` in-process, with any ``--out`` in
the same temporary directory.  Every run must return 0, 2 or 3 and raise
nothing.  The example budget is fixed and the search derandomized, so the
test costs the same few seconds on every run.
"""

import contextlib
import io
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
