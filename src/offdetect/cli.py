"""Command-line entry points: run, export-features, sweep, inspect-model.

Exit codes: 0 success, 1 usage error (or standard output closed before
the command's output files were reported), 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .errors import DataError, NumericError
from .evaluation import format_pct, render_report
from .experiment import (
    ExperimentConfig,
    export_feature_lines,
    parse_config,
    run_experiment,
    run_sweep,
    write_artifacts,
)
from .experiment import build_pipeline  # noqa: F401  (bench/launch.py wraps it here as well)
from .learn import GnbModel, LinearModel
from .model_io import load_model
from .rks import PRNG_ID

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="offdetect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_opts(p):
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override the training seed")
        p.add_argument("--out", default=None, help="override the output directory")

    p_run = sub.add_parser("run", help="train, evaluate, and write report/model/manifest")
    add_config_opts(p_run)

    p_export = sub.add_parser("export-features", help="dump per-tweet feature vectors")
    add_config_opts(p_export)

    p_sweep = sub.add_parser("sweep", help="repeat runs over C or map dimension")
    add_config_opts(p_sweep)
    p_sweep.add_argument("--sweep-C", dest="sweep_c", default=None,
                         help="comma-separated control-parameter values")
    p_sweep.add_argument("--sweep-dim", dest="sweep_dim", default=None,
                         help="comma-separated map output dimensions")

    p_inspect = sub.add_parser("inspect-model", help="describe a saved model file")
    p_inspect.add_argument("model", help="path to a model file")
    return parser


def _load_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_dir=Path(args.out))
    cfg.validate()
    return cfg


def _parse_values(raw: str, convert, what: str) -> list:
    values = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            values.append(convert(piece))
        except ValueError:
            raise UsageError(f"invalid {what} value {piece!r}") from None
    if not values:
        raise UsageError(f"empty {what} list")
    return values


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    result = run_experiment(cfg)
    _, text = render_report([(cfg.name, result.report)])
    sys.stdout.write(text)
    sys.stdout.write(f"artifacts written to {cfg.out_dir}\n")
    return EXIT_OK


def _cmd_export(args) -> int:
    cfg = _load_config(args)
    lines = export_feature_lines(cfg)
    write_artifacts(cfg.out_dir, {"features.txt": "".join(line + "\n" for line in lines)})
    sys.stdout.write(f"{len(lines)} feature rows written to {Path(cfg.out_dir) / 'features.txt'}\n")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if bool(args.sweep_c) == bool(args.sweep_dim):
        raise UsageError("sweep needs exactly one of --sweep-C or --sweep-dim")
    cfg = _load_config(args)
    if args.sweep_c:
        if cfg.classifier != "svm":
            raise UsageError(
                f"--sweep-C trains SVMs; the config's classifier is {cfg.classifier!r}"
            )
        lines, dest = run_sweep(cfg, "C", _parse_values(args.sweep_c, float, "C"))
    else:
        lines, dest = run_sweep(cfg, "D", _parse_values(args.sweep_dim, int, "dimension"))
    for line in lines:
        sys.stdout.write(line.replace(",", "\t") + "\n")
    sys.stdout.write(f"sweep table written to {dest}\n")
    return EXIT_OK


def _cmd_inspect(args) -> int:
    try:
        with open(args.model, "rb") as fh:
            model = load_model(fh)
    except OSError as exc:
        raise DataError(f"cannot read model file: {exc}") from exc
    if isinstance(model, LinearModel):
        sys.stdout.write(f"kind: {model.kind}\n")
        sys.stdout.write(f"weights: {model.w.shape[0]}\n")
        sys.stdout.write(f"bias: {model.bias!r}\n")
        for key in sorted(model.hyper):
            sys.stdout.write(f"hyper.{key}: {model.hyper[key]}\n")
        if model.rks is not None:
            sys.stdout.write(
                f"map: {model.rks.d_in} -> {model.rks.dim_out} "
                f"(sigma={model.rks.sigma!r}, seed={model.rks.seed}, prng={PRNG_ID})\n"
            )
        else:
            sys.stdout.write("map: none\n")
    elif isinstance(model, GnbModel):
        sys.stdout.write("kind: gnb\n")
        sys.stdout.write(f"features: {model.means.shape[1]}\n")
        sys.stdout.write(f"priors: OFF={format_pct(100 * model.priors[0])}% "
                         f"NOT={format_pct(100 * model.priors[1])}%\n")
        sys.stdout.write(f"var_floor: {model.var_floor!r}\n")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "export-features": _cmd_export,
    "sweep": _cmd_sweep,
    "inspect-model": _cmd_inspect,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout went away (`offdetect run ... | head -0`); every
        # output file is written by then.  Point stdout at devnull so the
        # interpreter's flush at exit does not fail again, and exit 1 as
        # Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except DataError as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return EXIT_DATA
    except NumericError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
