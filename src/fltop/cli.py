"""Command-line front end.

Subcommands: run (one experiment from a JSON config), sweep (same config over
several compression ratios), accountant (epsilon for given noise/sampling/
rounds). A run writes the clipping threshold it calibrated to its
resolved_config.json. Exit codes: 0 success, 1 runtime failure, 2 usage/config
error, which includes a config, IDX file or output directory that cannot be
read or made; a failed write after the run is a runtime failure.
"""

import argparse
import json
import sys
from pathlib import Path

from . import config as config_mod, privacy
from .errors import ConfigError, DataError, FormatError
from .federation import run_experiment, trace_to_csv

USAGE_ERROR = 2
RUNTIME_ERROR = 1


def _output_dir(args, raw):
    """The directory `--output-dir` or the resolved config `raw` names, made."""
    out_dir = Path(args.output_dir or raw["output_dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        key = "--output-dir" if args.output_dir else "output_dir"
        raise ConfigError(f"{key}: cannot make {out_dir}: {e.strerror}") from None
    return out_dir


def cmd_run(args):
    exp = config_mod.resolve(config_mod.load_config(args.config))
    out_dir = _output_dir(args, exp.raw)
    trace, summary = run_experiment(exp.fed, exp.train, exp.part, exp.test,
                                    public=exp.public)
    (out_dir / "trace.csv").write_text(trace_to_csv(trace))
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    resolved = {**exp.raw, "output_dir": str(out_dir)}
    (out_dir / "resolved_config.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True) + "\n")
    print(f"{exp.fed.scheme}: best {summary['best_metric']}="
          f"{summary['best_value']:.4f} at round {summary['round']}; "
          f"outputs in {out_dir}")
    if clamps := trace[-1].clamps:
        print(f"warning: the secure sum clamped {clamps} values", file=sys.stderr)
    return 0


def cmd_sweep(args):
    ratios = []
    for part in filter(None, map(str.strip, args.ratios.split(","))):
        try:
            r = float(part)
        except ValueError:
            raise ConfigError(f"--ratios: {part!r} is not a number") from None
        if r in ratios:
            print(f"warning: duplicate ratio {r} ignored", file=sys.stderr)
        else:
            ratios.append(r)
    if not ratios:
        raise ConfigError("no ratios given")

    raw = config_mod.load_config(args.config)
    configs = [{**raw, "federation": {**raw["federation"], "ratio": r}} for r in ratios]
    for cfg in configs:  # every ratio, before the first run
        config_mod.read_sections(cfg)
    rows = ["ratio,scheme,best_metric,best_value,round,down_kb,up_kb,epsilon"]
    out_dir = None
    for r, cfg in zip(ratios, configs):
        exp = config_mod.resolve(cfg)
        out_dir = out_dir or _output_dir(args, exp.raw)  # before the first run
        _, summary = run_experiment(exp.fed, exp.train, exp.part, exp.test,
                                    public=exp.public)
        rows.append(f"{r:.10g},{summary['scheme']},{summary['best_metric']},"
                    f"{summary['best_value']:.10g},{summary['round']},"
                    f"{summary['down_kb']:.10g},{summary['up_kb']:.10g},"
                    f"{summary['epsilon']:.10g}")
        print(rows[-1])
    (out_dir / "sweep.csv").write_text("\n".join(rows) + "\n")
    return 0


def cmd_accountant(args):
    query = privacy.AccountantQuery(args.sigma, args.sampling, args.rounds,
                                    args.delta, args.lambda_max)
    eps, lam = privacy.epsilon(query)
    print(f"epsilon = {eps:.6g} (lambda* = {lam})")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="fltop",
        description="Bandwidth-efficient private federated learning simulator")
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a JSON config")
    run_p.add_argument("config")
    run_p.add_argument("--output-dir", default=None)
    run_p.set_defaults(fn=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run the config at several ratios")
    sweep_p.add_argument("config")
    sweep_p.add_argument("--ratios", required=True,
                         help="comma-separated compression ratios, e.g. 0.005,0.05")
    sweep_p.add_argument("--output-dir", default=None)
    sweep_p.set_defaults(fn=cmd_sweep)

    acc_p = sub.add_parser("accountant", help="compute epsilon")
    acc_p.add_argument("--sigma", type=float, required=True)
    acc_p.add_argument("--sampling", type=float, required=True)
    acc_p.add_argument("--rounds", type=int, required=True)
    acc_p.add_argument("--delta", type=float, default=1e-5)
    acc_p.add_argument("--lambda-max", type=int, default=64)
    acc_p.set_defaults(fn=cmd_accountant)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ConfigError, FormatError, DataError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
