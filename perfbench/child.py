"""Run the popbias CLI once in this fresh process and record what happened.

usage: python3 perfbench/child.py {run,setup,trace} MARKS_JSON CLI_ARG...

Every mode records the monotonic time at which set-up ended: the first model
starts (``tune`` or ``build_model`` in the experiment harness) or, for
``gapcalc``, the GAP computation starts.  Modes:

- ``run``: the plain CLI run, with only that one-shot marker installed;
- ``setup``: stops at that marker, so set-up can be sampled cheaply;
- ``trace``: wraps each layer's public functions from outside, keeps one
  span per call in memory and writes all of them with the marks at exit.

The marks file holds ``main`` (imports done, ``cli.main`` about to start),
``setup``, ``end`` (after the CLI returned, report files written), ``rss_kb`` (peak resident set of this process), ``code`` (the CLI
exit code) and, when tracing, ``spans``: ``[name, start, end, parent, counts]``
with ``parent`` the index of the enclosing span or -1.
"""

from __future__ import annotations

import importlib
import json
import math
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


class SetupReached(Exception):
    """Raised at the set-up marker in ``setup`` mode to end the run there."""


class Tracer:
    """Records a span per call of every function wrapped through it."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, fn, name, counts=None):
        """Wrap ``fn``; ``name`` is a string or a function of the call's args.

        ``counts(args, result)`` returns a dict of work counts stored with
        the span, taken after its end time so it adds nothing to it.
        """
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name if isinstance(name, str) else name(args), time.monotonic(), 0.0,
                    open_spans[-1] if open_spans else -1, None]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                open_spans.pop()
            if counts is not None:
                span[4] = counts(args, result)
            return result

        return traced


# Work counts of one ``fit(train)`` call (args ``a``), from the model's
# settings and the train matrix.
FIT_COUNTS = {
    "slim": lambda a, r: {"nnz": int(a[0].weights_.nnz),
                          "gram_bytes": a[1].num_artists ** 2 * 8},
    "wrmf": lambda a, r: {"sweeps": a[0].sweeps,
                          "rows": (a[1].num_users + a[1].num_artists) * a[0].sweeps},
    "multivae": lambda a, r: {"epochs": a[0].epochs,
                              "steps": a[0].epochs * math.ceil(a[1].num_users / a[0].batch_size)},
}


def install_tracer(tracer: Tracer, cli, experiment, gapcalc_module) -> None:
    """Wrap the names the harness and CLI resolve at call time."""
    for attr, counts in (
        ("generate_synthetic", None),
        ("ingest_interactions", lambda a, r: {"pairs": r.num_pairs}),
        ("split_mask", None),
        ("compute_popularity", None),
        ("assign_mainstream_groups", None),
        ("rank_candidates", None),
        ("RankedCandidates", None),
        ("auc", None),
        ("average_precision_at_k", None),
        ("gap", None),
    ):
        setattr(experiment, attr, tracer.wrap(getattr(experiment, attr), attr, counts))
    experiment.tune = tracer.wrap(
        experiment.tune, lambda a: f"tune:{a[0]}",
        lambda a, r: {"points": len(a[1]),
                      "failed": sum(entry["error"] is not None for entry in r[1])},
    )
    experiment.evaluate_model = tracer.wrap(
        experiment.evaluate_model, lambda a: f"evaluate:{a[0].model_type}",
        lambda a, r: {"users": a[1].num_users,
                      "skipped": int(sum(math.isnan(x) for x in r.per_user_auc))},
    )
    for model_name, cls in experiment.MODEL_FACTORIES.items():
        cls.fit = tracer.wrap(cls.fit, f"{model_name}.fit", FIT_COUNTS.get(model_name))
        cls.score_user = tracer.wrap(cls.score_user, f"{model_name}.score")
    report_cls = experiment.ExperimentReport
    report_cls.write = tracer.wrap(report_cls.write, "ExperimentReport.write")
    cli.read_simulated_records = tracer.wrap(
        cli.read_simulated_records, "read_simulated_records",
        lambda a, r: {"records": len(r)},
    )
    cli.gapcalc = tracer.wrap(cli.gapcalc, "gapcalc")
    report_cls = gapcalc_module.GapcalcReport
    report_cls.write = tracer.wrap(report_cls.write, "GapcalcReport.write")


def install_setup_marker(marks: dict, stop: bool, cli, experiment) -> None:
    """Record (and in ``setup`` mode, stop at) the end of set-up."""

    def marked(fn):
        def first_call_marks(*args, **kwargs):
            if "setup" not in marks:
                marks["setup"] = time.monotonic()
                if stop:
                    raise SetupReached
            return fn(*args, **kwargs)

        return first_call_marks

    experiment.tune = marked(experiment.tune)
    experiment.build_model = marked(experiment.build_model)
    cli.gapcalc = marked(cli.gapcalc)


def main(argv: list[str]) -> int:
    mode, marks_path, cli_args = argv[0], Path(argv[1]), argv[2:]
    if mode not in ("run", "setup", "trace"):
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    from popbias import cli

    # by module path: the package re-exports a function named ``gapcalc``
    experiment = importlib.import_module("popbias.harness.experiment")
    gapcalc_module = importlib.import_module("popbias.harness.gapcalc")

    marks: dict = {}
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        install_tracer(tracer, cli, experiment, gapcalc_module)
    install_setup_marker(marks, mode == "setup", cli, experiment)
    marks["main"] = time.monotonic()
    try:
        code = cli.main(cli_args)
    except SetupReached:
        code = 0
    marks["end"] = time.monotonic()
    marks["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    marks["code"] = code
    if tracer is not None:
        marks["spans"] = tracer.spans
    marks_path.write_text(json.dumps(marks), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
