"""Command-line interface.

Subcommands: ``point`` (closed forms at one operating point), ``sweep``
(config- or preset-driven tables), ``optimize`` (relay-power search), and
``switch`` (AF/DF switching points).  Exit codes: 0 success, 2 config error,
3 numeric/domain error, 4 I/O error.
"""
import argparse
import functools
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import decision, sweep
from .analytic import Scheme, scheme_report
from .params import DB_FIELDS, SystemParams, from_decibel, validate
from .sweep import ConfigError

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first main() call and reused: parse_args keeps no state
    # between calls (a fresh Namespace each time, usage and help written to
    # the sys.stdout/sys.stderr of the call), and building costs more than
    # a closed-form command.
    parser = argparse.ArgumentParser(
        prog="secrelay",
        description="Secrecy performance of large-antenna AF/DF relay links",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    point = sub.add_parser("point",
                           help="closed-form report for both schemes at one operating point")
    # One flag per SystemParams field, in field order; an omitted flag keeps
    # the field's default.
    for field in fields(SystemParams):
        what = DB_FIELDS.get(field.name)
        flag = field.name.replace("_", "-") + ("-db" if what else "")
        point.add_argument(f"--{flag}", dest=field.name, metavar=flag.upper().replace("-", "_"),
                           type=field.type, default=argparse.SUPPRESS,
                           help=f"{what}, dB" if what else None)

    sweep_cmd = sub.add_parser("sweep", help="run a parameter sweep and write a table")
    source = sweep_cmd.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", type=Path, help="JSON sweep configuration")
    source.add_argument("--preset", choices=sweep.PRESETS, help="built-in figure preset")
    sweep_cmd.add_argument("--out", type=Path, required=True, help="output path")
    sweep_cmd.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep_cmd.add_argument("--seed", type=int, default=None,
                           help="override the Monte Carlo master seed (u64)")
    sweep_cmd.add_argument("--trials", type=int, default=None,
                           help="override the Monte Carlo trial count")

    optimize = sub.add_parser("optimize",
                              help="find the relay power maximizing secrecy outage capacity")
    optimize.add_argument("--config", type=Path, required=True,
                          help="config with variable=relay-power-db; its grid is the bracket")

    switch = sub.add_parser("switch",
                            help="locate AF/DF switching points along a power axis")
    switch.add_argument("--config", type=Path, required=True,
                        help="config with a power-axis variable; its grid is the bracket")
    return parser


def _cmd_point(args) -> int:
    given = vars(args)
    params = validate(SystemParams(**{
        f.name: from_decibel(given[f.name]) if f.name in DB_FIELDS else given[f.name]
        for f in fields(SystemParams) if f.name in given
    }))
    out = {scheme.value: vars(scheme_report(scheme, params)) for scheme in (Scheme.AF, Scheme.DF)}
    print(json.dumps(out, indent=2))
    return 0


def _out_path(base: Path, label: str) -> Path:
    if not label:
        return base
    return base.with_name(f"{base.stem}-{label}{base.suffix}")


def _cmd_sweep(args) -> int:
    if args.out.is_dir():
        raise IsADirectoryError(f"--out {args.out} is a directory, not a file")
    if args.preset:
        runs = sweep.preset_specs(args.preset)
    else:
        runs = [("", sweep.parse_config(args.config.read_text()))]
    overrides = {key: value for key in ("trials", "seed")
                 if (value := getattr(args, key)) is not None}
    for label, spec in runs:
        path = _out_path(args.out, label)
        rows = sweep.run_sweep(sweep.with_mc_settings(spec, overrides))
        written = sweep.emit_report(rows, args.format, path)
        print(f"wrote {written} bytes to {path}")
    return 0


def _power_bracket(spec: sweep.SweepSpec, allowed) -> tuple:
    if spec.variable not in allowed:
        raise ConfigError("variable", f"must be one of {allowed}, got {spec.variable!r}")
    if spec.montecarlo_active:
        raise ConfigError("mode", f"must be 'analytic': the search runs no Monte Carlo, "
                                  f"got {spec.mode!r}")
    if len(spec.grid) < 2:
        raise ConfigError("grid", f"needs two points to bracket the search, got {len(spec.grid)}")
    return float(spec.grid[0]), float(spec.grid[-1])


def _cmd_optimize(args) -> int:
    spec = sweep.parse_config(args.config.read_text())
    lo_db, hi_db = _power_bracket(spec, ("relay-power-db",))
    out = {}
    for scheme in spec.schemes:
        opt = decision.optimal_relay_power(spec.base, lo_db, hi_db, scheme)
        out[scheme.value] = asdict(opt)
    print(json.dumps(out, indent=2))
    return 0


def _cmd_switch(args) -> int:
    spec = sweep.parse_config(args.config.read_text())
    lo_db, hi_db = _power_bracket(spec, ("source-power-db", "relay-power-db"))
    axis = "source-power" if spec.variable == "source-power-db" else "relay-power"
    crossings = decision.find_switching_point(spec.base, axis, lo_db, hi_db)
    print(json.dumps({"axis": axis, "crossings_db": crossings}, indent=2))
    return 0


_COMMANDS = {
    "point": _cmd_point,
    "sweep": _cmd_sweep,
    "optimize": _cmd_optimize,
    "switch": _cmd_switch,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
