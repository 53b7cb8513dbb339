"""Command-line front end over the experiment drivers.

Subcommands map one-to-one onto the drivers in experiments.py. Each flag
stores into the ExperimentConfig field named by its dest and has no
default of its own: the parsed namespace holds the subcommand and the
flags given, and ExperimentConfig supplies every other value. The global
flags (--out, --format) are accepted before or after the subcommand; given
on both sides, the later one wins. derivative takes its order from the
number of --dir files.

Exit status: 0 when every check in the report passed, 1 when at least one
check failed, 2 on invalid configuration or input, an unreadable matrix
file or an --out that is not a directory (message on stderr). Reports are
printed to stdout and, when --out is given, written into that directory
as well.
"""

import argparse
import functools
import sys

from .errors import UnsupportedConfigError, ValidationError
from .experiments import ExperimentConfig, run
from .instances import PROFILES


def _grid(kind):
    """argparse type for a comma-separated grid of `kind` values."""

    def parse(text):
        try:
            return tuple(kind(x) for x in text.split(",") if x.strip())
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad grid value: {exc}") from exc

    return parse


def _parent():
    """A parent parser whose flags have no default: a flag not given stays
    out of the namespace."""
    return argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)


@functools.cache
def build_parser():
    """The argument parser; built once per process, as it depends only on
    constants."""
    common = _parent()
    common.add_argument("--out", dest="out_dir", metavar="DIR", help="directory for the report")
    common.add_argument("--format", dest="fmt", choices=("json", "csv"), help="report format")
    exponent = _parent()
    exponent.add_argument("--p", type=float)
    seeded = _parent()
    seeded.add_argument("--dim", type=int)
    seeded.add_argument("--seed", type=int)
    t_grid = _parent()
    t_grid.add_argument("--t-grid", type=_grid(float))

    parser = argparse.ArgumentParser(
        prog="specforms",
        description="Higher-order derivative and operator-integral experiments.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    def add(mode, text, *parents):
        return sub.add_parser(
            mode, parents=[common, *parents], help=text, argument_default=argparse.SUPPRESS
        )

    p_der = add("derivative", "evaluate delta^(k) at matrices from disk", exponent)
    p_der.add_argument(
        "--matrix", dest="matrix_path", metavar="FILE", required=True, help="base matrix JSON file"
    )
    p_der.add_argument(
        "--dir",
        dest="dir_paths",
        metavar="FILE",
        action="append",
        required=True,
        help="direction matrix JSON file (repeat once per slot: the order is their number)",
    )
    add("taylor-scan", "Taylor remainder decay scan", exponent, seeded, t_grid).add_argument(
        "--profile", choices=PROFILES
    )
    add("moi-convergence", "spectral-bin convergence study", exponent, seeded).add_argument(
        "--n-grid", type=_grid(int)
    )
    add("holder-scan", "fractional smoothness scan", exponent, seeded, t_grid)
    add("perturbation-check", "first-variable identity battery", seeded)
    add("selftest", "full cross-check battery", exponent, seeded)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = ExperimentConfig(**vars(args))
        report = run(config)
        if config.out_dir:
            report.save(config.out_dir, config.fmt)
    except (ValidationError, UnsupportedConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.to_csv() if config.fmt == "csv" else report.to_json() + "\n")
    if not report.passed:
        failed = [row["name"] for row in report.checks if not row["passed"]]
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
