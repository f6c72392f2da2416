"""Command-line interface.

Subcommands: ingest, synth, split, tune, run, gapcalc, tailplot.  Numeric
options take ASCII numbers without ``_``, as the input files do.  Exit codes:
0 success; 2 validation/parse error, including an input that cannot be read
or is not UTF-8 and an output path that cannot be written; 3 numerical or
other processing error, or out of memory.  Only ``tune`` and ``run`` import
the experiment harness and, through it, the learners.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .corpus import (
    SyntheticConfig,
    ascii_float,
    ascii_int,
    check_writable_dir,
    emit_tail_plot_data,
    generate_synthetic,
    ingest_interactions,
    interaction_lines,
    long_tail_stats,
    read_lines,
    split_mask,
    write_interactions,
    write_lines,
)
from .errors import PopBiasError, ValidationError
# bound here, not in _cmd_gapcalc, so a caller can wrap them as cli attributes
from .harness.gapcalc import gapcalc, read_simulated_records

if TYPE_CHECKING:
    from .harness.experiment import ExperimentConfig


def _load_config(args) -> ExperimentConfig:
    from .harness.experiment import ExperimentConfig

    def unique_keys(pairs) -> dict:
        # json.loads would keep the last of two equal keys in an object
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValidationError(f"{args.config}: duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        raw = json.loads("".join(read_lines(args.config)), object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as exc:
        # json.JSONDecodeError is a ValueError; the decoder also raises a bare
        # ValueError for an integer past Python's int-string limit, and
        # RecursionError for nesting past the recursion limit
        raise ValidationError(f"{args.config}: invalid JSON: {exc}") from exc
    if getattr(args, "seed", None) is not None and isinstance(raw, dict):
        raw["seed"] = args.seed
    return ExperimentConfig.from_dict(raw)


def _cmd_ingest(args) -> int:
    dataset = ingest_interactions(args.data, args.groups)
    stats = long_tail_stats(dataset)
    print(f"users\t{dataset.num_users}")
    print(f"artists\t{dataset.num_artists}")
    print(f"pairs\t{dataset.num_pairs}")
    print(f"coverage@0.05\t{stats.coverage_at(0.05):.4f}")
    if args.out:
        write_interactions(dataset, args.out)
        print(f"wrote normalized interactions to {args.out}")
    return 0


def _cmd_synth(args) -> int:
    check_writable_dir(args.out)
    config = SyntheticConfig(
        num_users=args.users,
        num_artists=args.artists,
        zipf_exponent=args.exponent,
        profile_size_range=(args.profile_min, args.profile_max),
        mainstream_mix=tuple(args.mix),
    )
    dataset = generate_synthetic(config, args.seed)
    out = Path(args.out)
    interactions = out / "interactions.tsv"
    groups = out / "groups.tsv"
    write_interactions(dataset, interactions, groups)
    print(f"wrote {dataset.num_pairs} pairs for {dataset.num_users} users "
          f"x {dataset.num_artists} artists to {interactions}")
    return 0


def _cmd_split(args) -> int:
    check_writable_dir(args.out)
    dataset = ingest_interactions(args.data)
    split = split_mask(dataset, args.fraction, args.seed)
    out = Path(args.out)
    train_path = out / "train.tsv"
    masked_path = out / "masked.tsv"
    # one write_lines, so a failure leaves both files of the earlier split
    write_lines({train_path: interaction_lines(split.train),
                 masked_path: (f"{dataset.users[u]}\t{dataset.artists[artist]}"
                               for u, hidden in enumerate(split.masked) for artist in hidden)})
    n_masked = sum(len(m) for m in split.masked)
    print(f"train pairs\t{split.train.num_pairs}")
    print(f"masked pairs\t{n_masked}")
    print(f"wrote {train_path} and {masked_path}")
    return 0


def _cmd_tune(args) -> int:
    from .harness.experiment import _load_dataset, _stage, tune

    config = _load_config(args)
    tuned = [spec for spec in config.models if spec.grid is not None]
    if not tuned:
        print("no model in the config declares a tuning grid", file=sys.stderr)
        return 0
    if args.out:
        check_writable_dir(args.out)
    # staged as run_experiment stages them, so a failure names its stage
    dataset = _stage("dataset", _load_dataset, config)
    split = _stage("split", split_mask, dataset, **config.split)
    results = {}
    for spec in tuned:
        best, log = _stage(f"tune:{spec.name}", tune, spec.name, spec.grid, split.train,
                           config.tune_seed, config.ap_k)
        results[spec.name] = {"best": best, "log": log}
        print(f"{spec.name}\tbest: {json.dumps(best, sort_keys=True)}")
        for entry in log:
            score = "failed" if entry["mean_ap"] is None else f"{entry['mean_ap']:.6f}"
            print(f"  {json.dumps(entry['hyperparams'], sort_keys=True)}\t{score}")
    if args.out:
        (path,) = write_lines({Path(args.out) / "tuning.json":
                               [json.dumps(results, indent=2, sort_keys=True)]})
        print(f"wrote {path}")
    return 0


def _cmd_run(args) -> int:
    from .harness.experiment import run_experiment

    config = _load_config(args)
    report = run_experiment(config, out_dir=args.out)
    print(report.to_text())
    if args.out:
        print(f"wrote report.txt and report.kv to {args.out}")
    return 0


def _cmd_gapcalc(args) -> int:
    if args.out:
        check_writable_dir(args.out)
    records = read_simulated_records(args.records)
    report = gapcalc(records)
    print(report.to_text())
    if args.out:
        report.write(args.out)
        print(f"wrote gapcalc.txt and gapcalc.kv to {args.out}")
    return 0


def _cmd_tailplot(args) -> int:
    check_writable_dir(args.out)
    dataset = ingest_interactions(args.data)
    stats, paths = emit_tail_plot_data(dataset, args.out)
    print(f"artists\t{dataset.num_artists}")
    print(f"coverage@0.05\t{stats.coverage_at(0.05):.4f}")
    print(f"wrote {paths[0]} and {paths[1]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popbias",
        description="Implicit-feedback recommenders with popularity-bias measurement",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load and summarize an interactions file")
    p.add_argument("--data", required=True, help="tab-separated user/artist/count file")
    p.add_argument("--groups", help="optional user group file")
    p.add_argument("--out", help="write a normalized copy here")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic long-tail dataset")
    p.add_argument("--users", type=ascii_int, required=True)
    p.add_argument("--artists", type=ascii_int, required=True)
    p.add_argument("--exponent", type=ascii_float, default=SyntheticConfig.zipf_exponent)
    p.add_argument("--profile-min", type=ascii_int,
                   default=SyntheticConfig.profile_size_range[0])
    p.add_argument("--profile-max", type=ascii_int,
                   default=SyntheticConfig.profile_size_range[1])
    p.add_argument("--mix", type=ascii_float, nargs=3, default=SyntheticConfig.mainstream_mix,
                   metavar=("LOW", "MED", "HIGH"))
    p.add_argument("--seed", type=ascii_int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("split", help="mask a per-user holdout from a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--fraction", type=ascii_float, default=0.2)
    p.add_argument("--seed", type=ascii_int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("tune", help="grid-tune the models in a config")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--seed", type=ascii_int)
    p.add_argument("--out", help="write tuning.json here")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("run", help="run a full experiment from a config")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--seed", type=ascii_int)
    p.add_argument("--out", help="write report.txt / report.kv here")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("gapcalc", help="GAP lift analysis of recorded sessions")
    p.add_argument("--records", required=True, help="simulated-user CSV")
    p.add_argument("--out", help="write gapcalc.txt / gapcalc.kv here")
    p.set_defaults(func=_cmd_gapcalc)

    p = sub.add_parser("tailplot", help="export long-tail plot data")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_tailplot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PopBiasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
