"""Command-line interface: coldstart synth|train|predict|evaluate|verify.

Exit codes: 0 success, 2 usage error, 3 data error, 4 internal error.
Train accepts a JSON config file plus flag overrides; flags win.
"""

import argparse
import sys
from dataclasses import fields

from .ensemble import SCHEMES, TARGET_TRANSFORMS
from .errors import DataError
from .pipeline import RunConfig, run_evaluate, run_predict, run_train, run_verify
from .synth import GroundTruth, SynthConfig, generate
from .util import load_json


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coldstart",
        description="Cold-start viewership prediction: synthesize data, train, predict, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate synthetic episode data with known ground truth")
    p_synth.add_argument("--out", required=True, help="output directory for the CSVs")
    p_synth.add_argument("--seed", type=int, default=42)
    p_synth.add_argument("--series", type=int, default=50)
    p_synth.add_argument("--episodes-min", type=int, default=4)
    p_synth.add_argument("--episodes-max", type=int, default=16)
    p_synth.add_argument("--noise-sigma", type=float, default=0.3)

    p_train = sub.add_parser("train", help="train the model zoo and build the ensemble bundle")
    p_train.add_argument("--config", help="JSON config file; flags override its values")
    p_train.add_argument("--episodes")
    p_train.add_argument("--credits")
    p_train.add_argument("--genres")
    p_train.add_argument("--platform")
    p_train.add_argument("--genre-alias")
    p_train.add_argument("--out", dest="out_dir")
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--test-fraction", type=float)
    p_train.add_argument("--reference-date")
    p_train.add_argument("--families", help="comma-separated subset of the six families")
    p_train.add_argument("--n-iter", type=int)
    p_train.add_argument("--folds", type=int, dest="cv_folds")
    p_train.add_argument("--scheme", choices=SCHEMES)
    p_train.add_argument("--target-transform", choices=TARGET_TRANSFORMS)

    def add_io(p, with_out=True):
        p.add_argument("--bundle", required=True)
        p.add_argument("--episodes", required=True)
        p.add_argument("--credits", required=True)
        p.add_argument("--genres", required=True)
        p.add_argument("--platform", required=True)
        p.add_argument("--genre-alias")
        if with_out:
            p.add_argument("--out", required=True)

    p_predict = sub.add_parser("predict", help="predict views for new episodes from a bundle")
    add_io(p_predict)

    p_eval = sub.add_parser("evaluate", help="score a bundle against episodes with known views")
    add_io(p_eval)

    p_verify = sub.add_parser("verify", help="recompute a training report's numbers from its bundle")
    add_io(p_verify, with_out=False)
    p_verify.add_argument("--report", required=True)

    return parser


def _train_config(args):
    base = {}
    if args.config:
        base = load_json(args.config)
        if not isinstance(base, dict):
            raise DataError(f"{args.config}: config must be a JSON object")
    # every train flag's dest is its RunConfig field; --families alone is parsed
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    overrides["families"] = [f.strip() for f in args.families.split(",") if f.strip()] if args.families else None
    base.update({k: v for k, v in overrides.items() if v is not None})
    for required in ("episodes", "credits", "genres", "platform", "out_dir"):
        if not base.get(required):
            raise UsageError(f"missing required input: --{required.replace('_', '-')} (or config key {required!r})")
    return RunConfig.from_dict(base)


class UsageError(Exception):
    pass


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)

    try:
        if args.command == "synth":
            config = SynthConfig(
                n_series=args.series,
                episodes_min=args.episodes_min,
                episodes_max=args.episodes_max,
                seed=args.seed,
                noise_sigma=args.noise_sigma,
            )
            paths = generate(config, args.out, GroundTruth())
            for name, path in sorted(paths.items()):
                print(f"{name}: {path}")
        elif args.command == "train":
            config = _train_config(args)
            result = run_train(config)
            print(f"bundle: {result['bundle']}")
            print(f"report: {result['report']}")
            print(f"selected: {', '.join(result['selected'])}")
            ens = result["ensemble_validation"]
            print(f"ensemble holdout MAPE {ens['mape']:.3f}%  SMAPE {ens['smape']:.3f}%")
        elif args.command == "predict":
            result = run_predict(
                args.bundle, args.episodes, args.credits, args.genres, args.platform,
                args.out, args.genre_alias,
            )
            print(f"wrote {result['n_rows']} predictions to {result['out']}")
            if result["n_clamped"]:
                print(f"clamped {result['n_clamped']} negative predictions to 0")
        elif args.command == "evaluate":
            result = run_evaluate(
                args.bundle, args.episodes, args.credits, args.genres, args.platform,
                args.out, args.genre_alias,
            )
            m = result["metrics"]
            print(f"report: {result['report']}")
            mape = "undefined" if m["mape"] is None else f"{m['mape']:.3f}%"
            r2 = "undefined" if m["r2"] is None else f"{m['r2']:.4f}"
            print(f"MAPE {mape}  SMAPE {m['smape']:.3f}%  R2 {r2}")
        elif args.command == "verify":
            ok, mismatches = run_verify(
                args.bundle, args.report, args.episodes, args.credits, args.genres,
                args.platform, args.genre_alias,
            )
            if not ok:
                for line in mismatches:
                    print(f"MISMATCH {line}", file=sys.stderr)
                print(f"{len(mismatches)} report values could not be reproduced", file=sys.stderr)
                return 4
            print("report verified: all values recomputed exactly")
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # the boundary: any other failure is internal, reported in one line
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
