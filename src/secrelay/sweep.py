"""Sweep configuration, execution, and report emission.

Configs are flat JSON documents; decibel inputs carry a ``_db`` key suffix
and are converted at parse time, so everything downstream is linear.  Report
emission is deterministic byte-for-byte and atomic (temp file + rename).
"""
import json
import os
import tempfile
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import montecarlo
from .analytic import Scheme, scheme_report
from .params import DB_FIELDS, FLOAT_OVERFLOW, ParameterError, SystemParams, from_decibel, validate

DEFAULT_SEED = 42
DEFAULT_TRIALS = 10_000
MAX_GRID_POINTS = 1_000_000  # cap on a {lo, hi, step} range, checked before expansion

_SWEEP_KEYS = ("variable", "grid", "schemes", "mode", "trials", "seed")


class ConfigError(ValueError):
    """Configuration rejected; ``field`` holds the offending key path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


# Swept variable -> (SystemParams field it sets, conversion of a grid value).
_VARIABLE_FIELDS = {
    "source-power-db": ("p_s", from_decibel),
    "relay-power-db": ("p_r", from_decibel),
    "alpha-re": ("alpha_re", float),
    "n-r": ("n_r", int),
    "rho": ("rho", float),
    "epsilon": ("epsilon", float),
}
VARIABLES = tuple(_VARIABLE_FIELDS)
MODES = ("analytic", "montecarlo", "both")


@dataclass(frozen=True)
class SweepSpec:
    base: SystemParams
    variable: str             # one of VARIABLES
    grid: tuple               # strictly increasing values of the swept variable
    schemes: tuple            # subset of (Scheme.AF, Scheme.DF), canonical order
    mode: str                 # one of MODES
    trials: int | None = None  # required iff mode includes montecarlo
    seed: int | None = None    # required iff mode includes montecarlo

    @property
    def montecarlo_active(self) -> bool:
        return self.mode in ("montecarlo", "both")

    @property
    def min_epsilon(self) -> float:
        """The smallest outage probability any row uses."""
        return self.grid[0] if self.variable == "epsilon" else self.base.epsilon


class RowError(RuntimeError):
    """A row of a sweep failed; carries the row index and variable value."""

    def __init__(self, index: int, variable: str, value, cause: Exception):
        self.index = index
        super().__init__(f"row {index} ({variable}={value}): {cause}")


def _require_number(raw, key, *, integer=False):
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(key, f"expected a number, got {raw!r}")
    if not abs(raw) < FLOAT_OVERFLOW:  # NaN, inf, or an integer too large for a float
        raise ConfigError(key, f"expected a finite value, got {raw!r}")
    if integer and raw != int(raw):
        raise ConfigError(key, f"expected an integer, got {raw!r}")
    return int(raw) if integer else float(raw)


def _parse_grid(raw, variable: str):
    integer = _VARIABLE_FIELDS[variable][1] is int
    if isinstance(raw, list):
        if not raw:
            raise ConfigError("grid", "grid must be nonempty")
        values = [_require_number(v, "grid", integer=integer) for v in raw]
    elif isinstance(raw, dict):
        extra = set(raw) - {"lo", "hi", "step"}
        if extra:
            raise ConfigError("grid", f"unknown grid keys: {sorted(extra)}")
        missing = {"lo", "hi", "step"} - set(raw)
        if missing:
            raise ConfigError("grid", f"grid range needs lo/hi/step, missing {sorted(missing)}")
        lo = _require_number(raw["lo"], "grid.lo")
        hi = _require_number(raw["hi"], "grid.hi")
        step = _require_number(raw["step"], "grid.step")
        if step <= 0:
            raise ConfigError("grid", f"step must be > 0, got {step}")
        if hi < lo:
            raise ConfigError("grid", f"grid range is empty: hi={hi} < lo={lo}")
        limit = hi + 1e-9 * max(1.0, abs(hi))
        if (limit - lo) / step >= MAX_GRID_POINTS:
            raise ConfigError("grid", f"grid range has more than {MAX_GRID_POINTS} points")
        values = []
        i = 0
        while True:
            x = lo + i * step
            if x > limit:
                break
            values.append(int(round(x)) if integer else x)
            i += 1
    else:
        raise ConfigError("grid", "grid must be a list of values or a {lo, hi, step} object")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError("grid", "grid values must be strictly increasing")
    return tuple(values)


def with_mc_settings(spec: SweepSpec, settings: dict) -> SweepSpec:
    """``spec`` with its ``trials``/``seed`` set from config keys or flags, checked.

    The trials must resolve the outage quantile of every row
    (``montecarlo.check_trials`` at the sweep's smallest epsilon).  A sweep
    without Monte Carlo checks the settings, then ignores them.
    """
    checked = {}
    for key, raw in settings.items():
        value = _require_number(raw, key, integer=True)
        if key == "trials":
            try:
                montecarlo.check_trials(value, spec.min_epsilon)
            except montecarlo.InsufficientSampleError as exc:
                raise ConfigError(key, str(exc)) from None
        if key == "seed" and value < 0:
            raise ConfigError(key, f"must be >= 0, got {value}")
        if key == "seed" and value >= 2**64:
            raise ConfigError(key, "must fit in 64 bits")
        checked[key] = value
    return replace(spec, **checked) if spec.montecarlo_active else spec


def parse_config(text: str) -> SweepSpec:
    """Parse and validate a flat JSON sweep configuration."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, too many digits, too deep
        raise ConfigError("<document>", f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("<document>", "top level must be a JSON object")

    # One key per SystemParams field, and a "_db" form of each DB_FIELDS one.
    param_fields = fields(SystemParams)
    known = {f.name for f in param_fields} | {k + "_db" for k in DB_FIELDS} | set(_SWEEP_KEYS)
    for key in doc:
        if key not in known:
            raise ConfigError(key, "unknown key")

    values = {}
    for field in param_fields:
        key, db_key = field.name, field.name + "_db"
        if key in DB_FIELDS and db_key in doc:
            if key in doc:
                raise ConfigError(db_key, f"conflicts with {key}; give one or the other")
            db = _require_number(doc[db_key], db_key)
            try:
                values[key] = from_decibel(db)
            except ValueError as exc:
                raise ConfigError(db_key, str(exc)) from None
        elif key in doc:
            values[key] = _require_number(doc[key], key, integer=field.type is int)
    try:
        base = validate(SystemParams(**values))
    except ParameterError as exc:
        names = ", ".join(e.split(" ", 1)[0] for e in exc.errors)
        raise ConfigError(names, str(exc)) from None

    for key in ("variable", "grid", "schemes", "mode"):
        if key not in doc:
            raise ConfigError(key, "required key is missing")
    variable = doc["variable"]
    if variable not in VARIABLES:
        raise ConfigError("variable", f"must be one of {VARIABLES}, got {variable!r}")
    grid = _parse_grid(doc["grid"], variable)

    raw_schemes = doc["schemes"]
    if not isinstance(raw_schemes, list) or not raw_schemes:
        raise ConfigError("schemes", "expected a nonempty list drawn from ['AF', 'DF']")
    try:
        requested = {Scheme(s) for s in raw_schemes}
    except ValueError:
        raise ConfigError("schemes", f"expected values from ['AF', 'DF'], got {raw_schemes!r}") from None
    schemes = tuple(s for s in (Scheme.AF, Scheme.DF) if s in requested)

    mode = doc["mode"]
    if mode not in MODES:
        raise ConfigError("mode", f"must be one of {MODES}, got {mode!r}")

    spec = SweepSpec(base=base, variable=variable, grid=grid, schemes=schemes, mode=mode)
    for key in ("trials", "seed"):
        if spec.montecarlo_active and key not in doc:
            raise ConfigError(key, "required when mode includes montecarlo")
        if not spec.montecarlo_active and key in doc:
            raise ConfigError(key, "only valid when mode includes montecarlo")
    return with_mc_settings(spec, {key: doc[key] for key in ("trials", "seed") if key in doc})


def run_sweep(spec: SweepSpec):
    """Evaluate every grid point, one row per point, in grid order.

    A row is a dict from report column name to value, in report order:
    ``value``, then per scheme (AF before DF) its closed-form columns and,
    when Monte Carlo is on, its Monte Carlo columns.  Monte Carlo rows
    reseed with seed XOR row-index so rows are independent while the whole
    sweep stays a pure function of (config, seed).  The schemes of a row
    share its channel draws.  Closed forms run before Monte Carlo, so a row
    whose closed form fails reports that error.
    """
    field, convert = _VARIABLE_FIELDS[spec.variable]
    rows = []
    for index, value in enumerate(spec.grid):
        try:
            p = validate(replace(spec.base, **{field: convert(value)}))
            reports = {scheme: scheme_report(scheme, p) for scheme in spec.schemes}
            estimates = {}
            if spec.montecarlo_active:
                estimates = montecarlo.estimate_schemes(
                    spec.schemes, p, spec.trials, spec.seed ^ index
                )
        except (ValueError, ArithmeticError) as exc:
            raise RowError(index, spec.variable, value, exc) from exc
        row = {"value": float(value)}
        for scheme, report in reports.items():
            prefix = scheme.value.lower()
            row[f"{prefix}_c_d"] = report.c_d
            row[f"{prefix}_c_soc_analytic"] = report.c_soc
            row[f"{prefix}_p0_analytic"] = report.p0
            if scheme in estimates:
                est = estimates[scheme]
                row[f"{prefix}_c_soc_mc"] = est.c_soc.value
                row[f"{prefix}_c_soc_mc_stderr"] = est.c_soc.std_error
                row[f"{prefix}_p0_mc"] = est.p0.value
                row[f"{prefix}_p0_mc_stderr"] = est.p0.std_error
        rows.append(row)
    return rows


def _fmt(value: float) -> str:
    return format(value, ".9g")


def emit_report(rows, format: str, destination) -> int:
    """Write ``run_sweep`` rows as CSV or JSON; returns the byte count written.

    The first row's keys are the CSV header; JSON keeps each row's keys.
    Output is byte-identical for identical inputs and is written atomically.
    """
    if not rows:
        raise ValueError("no rows to emit")
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    if format == "csv":
        lines = [",".join(rows[0])]
        lines.extend(",".join(_fmt(c) for c in row.values()) for row in rows)
        payload = "\n".join(lines) + "\n"
    else:
        objects = [{name: float(_fmt(cell)) for name, cell in row.items()} for row in rows]
        payload = json.dumps(objects, indent=2) + "\n"
    data = payload.encode("utf-8")

    destination = Path(destination)
    fd, tmp_path = tempfile.mkstemp(dir=destination.parent, prefix=destination.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, destination)
    except OSError:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    return len(data)


_PRESET_BASE = {
    "p_s_db": 20.0, "p_r_db": 20.0, "rho": 0.9, "n_r": 100, "w_hz": 10_000.0,
    "epsilon": 0.01, "variable": "alpha-re", "grid": {"lo": 0.1, "hi": 3.0, "step": 0.1},
    "schemes": ["AF", "DF"], "mode": "both",
    "trials": DEFAULT_TRIALS, "seed": DEFAULT_SEED,
}
_POWER_SWEEP = {"p_s_db": 10.0, "p_r_db": 10.0, "epsilon": 0.05, "trials": 5000}
_FIG4 = [("", dict(_POWER_SWEEP, variable="source-power-db",
                   grid={"lo": -10.0, "hi": 40.0, "step": 1.0}))]
_FIG5 = [("", dict(_POWER_SWEEP, variable="relay-power-db",
                   grid={"lo": -10.0, "hi": 50.0, "step": 2.0}))]

# Reproduction presets for the reference figures: name -> labeled runs, each
# given as overrides of _PRESET_BASE; one output table per run.  fig6 and
# fig7 are the same runs as fig4 and fig5.
_PRESET_RUNS = {
    "fig2": [(f"eps{eps}", {"schemes": ["AF"], "epsilon": eps}) for eps in (0.001, 0.01, 0.1)],
    "fig3": [(f"eps{eps}", {"schemes": ["DF"], "epsilon": eps}) for eps in (0.001, 0.01, 0.1)],
    "fig3b": [(f"nr{n}", {"p_s_db": 10.0, "p_r_db": 10.0, "n_r": n, "trials": 5000})
              for n in (100, 200)],
    "fig4": _FIG4,
    "fig5": _FIG5,
    "fig6": _FIG4,
    "fig7": _FIG5,
}
PRESETS = tuple(_PRESET_RUNS)


def preset_specs(name: str):
    """Labeled SweepSpec list for a named preset."""
    if name not in _PRESET_RUNS:
        raise ConfigError("preset", f"unknown preset {name!r}; choose from {PRESETS}")
    return [(label, parse_config(json.dumps({**_PRESET_BASE, **overrides})))
            for label, overrides in _PRESET_RUNS[name]]
