"""Command-line front end over the experiment drivers.

Subcommands map one-to-one onto the drivers in experiments.py. Exit
status: 0 when every check in the report passed, 1 when at least one
check failed, 2 on a validation or unsupported-configuration error
(message on stderr). Reports are printed to stdout and, when --out is
given, written into that directory as well.
"""

import argparse
import functools
import sys

from .errors import UnsupportedConfigError, ValidationError
from .experiments import (
    DEFAULT_N_GRID,
    DEFAULT_T_GRID,
    ExperimentConfig,
    run,
)
from .instances import PROFILES


def _float_list(text):
    try:
        values = tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid value: {exc}") from exc
    if not values:
        raise argparse.ArgumentTypeError("grid must be nonempty")
    return values


def _int_list(text):
    try:
        values = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid value: {exc}") from exc
    if not values:
        raise argparse.ArgumentTypeError("grid must be nonempty")
    return values


@functools.cache
def build_parser():
    """The argument parser; built once per process, as it depends only on
    constants."""
    parser = argparse.ArgumentParser(
        prog="specforms",
        description="Higher-order derivative and operator-integral experiments.",
    )
    parser.add_argument(
        "--out", default="", help="directory to write the run report into"
    )
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )
    parser.add_argument(
        "--tol-quad", type=float, default=1e-9, help="quadrature tolerance"
    )

    # The global flags are also accepted after the subcommand; SUPPRESS
    # keeps the subparser from clobbering values parsed at the top level.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    common.add_argument(
        "--format",
        choices=("json", "csv"),
        default=argparse.SUPPRESS,
        help=argparse.SUPPRESS,
    )
    common.add_argument(
        "--tol-quad", type=float, default=argparse.SUPPRESS, help=argparse.SUPPRESS
    )

    sub = parser.add_subparsers(dest="mode", required=True)

    p_der = sub.add_parser(
        "derivative", parents=[common], help="evaluate delta^(k) at matrices from disk"
    )
    p_der.add_argument("--p", type=float, required=True)
    p_der.add_argument("--order", type=int, default=0)
    p_der.add_argument("--matrix", required=True, help="base matrix JSON file")
    p_der.add_argument(
        "--dir",
        dest="dirs",
        action="append",
        default=[],
        required=True,
        help="direction matrix JSON file (repeat once per slot)",
    )

    p_tay = sub.add_parser("taylor-scan", parents=[common], help="Taylor remainder decay scan")
    p_tay.add_argument("--p", type=float, default=2.5)
    p_tay.add_argument("--dim", type=int, default=4)
    p_tay.add_argument("--seed", type=int, default=1)
    p_tay.add_argument("--profile", choices=PROFILES, default="generic")
    p_tay.add_argument("--t-grid", type=_float_list, default=DEFAULT_T_GRID)

    p_moi = sub.add_parser("moi-convergence", parents=[common], help="spectral-bin convergence study")
    p_moi.add_argument("--p", type=float, default=2.5)
    p_moi.add_argument("--dim", type=int, default=4)
    p_moi.add_argument("--seed", type=int, default=1)
    p_moi.add_argument("--n-grid", type=_int_list, default=DEFAULT_N_GRID)

    p_hol = sub.add_parser("holder-scan", parents=[common], help="fractional smoothness scan")
    p_hol.add_argument("--p", type=float, default=2.5)
    p_hol.add_argument("--dim", type=int, default=4)
    p_hol.add_argument("--seed", type=int, default=1)
    p_hol.add_argument("--t-grid", type=_float_list, default=DEFAULT_T_GRID)

    p_per = sub.add_parser("perturbation-check", parents=[common], help="first-variable identity battery")
    p_per.add_argument("--dim", type=int, default=4)
    p_per.add_argument("--seed", type=int, default=1)

    p_self = sub.add_parser("selftest", parents=[common], help="full cross-check battery")
    p_self.add_argument("--p", type=float, default=2.5)
    p_self.add_argument("--dim", type=int, default=4)
    p_self.add_argument("--seed", type=int, default=1)

    return parser


def _config_from_args(args):
    kwargs = {
        "mode": args.mode,
        "quad_tol": args.tol_quad,
        "out_dir": args.out,
        "fmt": args.format,
    }
    for name in ("p", "dim", "seed", "profile", "order"):
        if hasattr(args, name):
            kwargs[name] = getattr(args, name)
    if hasattr(args, "t_grid"):
        kwargs["t_grid"] = args.t_grid
    if hasattr(args, "n_grid"):
        kwargs["n_grid"] = args.n_grid
    if hasattr(args, "matrix"):
        kwargs["matrix_path"] = args.matrix
        kwargs["dir_paths"] = tuple(args.dirs)
    return ExperimentConfig(**kwargs)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        report = run(config)
    except (ValidationError, UnsupportedConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.out_dir:
        report.save(config.out_dir, config.fmt)
    sys.stdout.write(report.to_csv() if config.fmt == "csv" else report.to_json() + "\n")
    if not report.passed:
        failed = [row["name"] for row in report.checks if not row["passed"]]
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
