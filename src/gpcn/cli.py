"""Command line interface: run / diagnose / lab subcommands."""

from __future__ import annotations

import argparse
import json
import sys

from .experiment import ConfigError, diagnose_trace, load_config, run_experiment
from .spectral import run_lab


def _at_least(low):
    """An argparse type: an integer >= ``low`` (argparse names the flag)."""
    def integer(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    return integer


def _build_parser():
    parser = argparse.ArgumentParser(prog="gpcn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the configured sampler sweep")
    run.add_argument("--config", required=True, help="flat key = value config file")
    run.add_argument("--seed", type=_at_least(0), default=None, help="override the master seed")
    run.add_argument("--out", default=None, help="override the output directory")
    run.add_argument("--threads", type=_at_least(1), default=1,
                     help="concurrent (variant, N, sigma) groups")

    diag = sub.add_parser("diagnose", help="recompute ESS diagnostics from a trace CSV")
    diag.add_argument("trace")
    diag.add_argument("--out", default=None, help="write JSON here instead of stdout")

    lab = sub.add_parser("lab", help="randomized finite-state verification battery")
    lab.add_argument("--seed", type=_at_least(0), default=0)
    lab.add_argument("--instances", type=int, default=20)
    lab.add_argument("--states", type=int, default=10)
    lab.add_argument("--out", default=None)
    return parser


def _emit(payload: dict, out_path) -> None:
    text = json.dumps(payload, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = load_config(args.config)
            if args.seed is not None:
                cfg.seed = args.seed
            if args.out:
                cfg.out_dir = args.out
            rows = run_experiment(cfg, threads=args.threads)
            for row in rows:
                print(f"{row['variant']:>12s}  N={row['N']:<4d} sigma={row['sigma_eps']:<8g} "
                      f"rep={row['replicate']} acc={row['acceptance_rate']:.3f} "
                      f"ess_ims={row['ess_ims']:.1f}")
            print(f"wrote {len(rows)} summary rows to {cfg.out_dir}/summary.csv")
        elif args.command == "diagnose":
            _emit(diagnose_trace(args.trace), args.out)
        elif args.command == "lab":
            report = run_lab(args.seed, n_instances=args.instances, n_states=args.states)
            _emit(report, args.out)
            if not report["all_pass"]:
                return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
