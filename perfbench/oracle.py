"""Output checks against the committed reference (``reference.json``).

Closed-form outputs are compared with the reference at a tight relative
tolerance, and optimize/switch results to within the decision module's
resolution.  Monte Carlo columns are checked statistically against the closed
forms, never byte for byte, so that a new sampler with the same law passes,
and their standard errors against the reference simulation's, so that a
stderr reported too small does not pass.  Any non-finite or out-of-range
number is a failure.
"""
import json
import math
import statistics
from pathlib import Path

ANALYTIC_RTOL = 1e-7      # reports print 9 significant digits
OPT_VALUE_RTOL = 1e-6     # capacity at an optimum located to within DB_TOL
DB_TOL = 1e-3             # secrelay.decision.DB_TOL: optimize/switch resolution
# Worst relative gap between closed-form and simulated c_soc documented for
# the hardening approximation.  Cells where the reference run measured a
# larger gap use the measured gap plus three of its standard errors.
HARDENING_BIAS = 0.0285
K_SIGMA = 5.0             # standard errors allowed on top of the bias
# A reported c_soc stderr is compared with the reference simulation's, scaled
# to the run's trials.  It is the half-width of a band of only ~2*sqrt(k)
# order statistics (k = epsilon*trials), so one cell's ratio varies by
# 1/sqrt(that count): 27% at k = 50, 40% at k = 10.  One cell therefore only
# fails beyond this factor either way...
SE_CELL_FACTOR = 20.0
# ...and the run's cells together must have a mean log ratio within this
# allowance, plus K_SIGMA of its standard errors, of zero.  The allowance
# covers the estimator's small-sample bias and the reference's own noise
# (measured over 30 seeds: mean log ratio -0.23 on nr-tail-af, -0.004 on
# fig5-both).
SE_POOLED_BIAS = 0.3

SCHEMES = ("AF", "DF")
ANALYTIC_FIELDS = ("c_d", "c_soc_analytic", "p0_analytic")
MC_FIELDS = ("c_soc_mc", "c_soc_mc_stderr", "p0_mc", "p0_mc_stderr")


def load_reference(path: Path) -> dict:
    return json.loads(path.read_text())


def read_report(path) -> tuple:
    """(header, rows) of a CSV report; rows are lists of floats."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty report")
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path}: ragged rows")
    return header, rows


def _in_range(name: str, x: float) -> bool:
    if not math.isfinite(x):
        return False
    if name == "value":
        return True
    if name.endswith("p0_analytic") or name.endswith("p0_mc") or name == "p0":
        return 0.0 <= x <= 1.0
    return x >= 0.0  # capacities and standard errors


def _close(x: float, ref: float, rtol: float) -> bool:
    return x == ref or abs(x - ref) <= rtol * max(abs(x), abs(ref))


def _range_errors(named_values) -> list:
    return [f"{name}={x!r} out of range" for name, x in named_values if not _in_range(name, x)]


def check_point(stdout: str, expect: dict) -> list:
    out = json.loads(stdout)
    errors = []
    for scheme, ref in expect.items():
        got = out[scheme]
        errors += _range_errors((k, float(got[k])) for k in ref)
        errors += [f"{scheme}.{k}={got[k]!r} != {v!r}" for k, v in ref.items()
                   if not _close(float(got[k]), v, ANALYTIC_RTOL)]
    return errors


def check_optimize(stdout: str, expect: dict) -> list:
    out = json.loads(stdout)
    errors = []
    for scheme, ref in expect.items():
        got = out[scheme]
        db, value = float(got["p_r_opt_db"]), float(got["c_soc_opt"])
        errors += _range_errors([("value", db), ("c_soc", value)])
        if not abs(db - ref["p_r_opt_db"]) <= DB_TOL:
            errors.append(f"{scheme}.p_r_opt_db={db!r} != {ref['p_r_opt_db']!r}")
        if not _close(value, ref["c_soc_opt"], OPT_VALUE_RTOL):
            errors.append(f"{scheme}.c_soc_opt={value!r} != {ref['c_soc_opt']!r}")
    return errors


def check_switch(stdout: str, expect: dict) -> list:
    out = json.loads(stdout)
    got = [float(x) for x in out["crossings_db"]]
    ref = expect["crossings_db"]
    errors = _range_errors(("value", x) for x in got)
    if out["axis"] != expect["axis"] or len(got) != len(ref):
        return errors + [f"switch {out['axis']} {got} != {expect['axis']} {ref}"]
    return errors + [f"crossing {x!r} != {r!r}" for x, r in zip(got, ref) if not abs(x - r) <= DB_TOL]


def check_analytic_report(path, expect: dict) -> list:
    header, rows = read_report(path)
    if header != expect["header"] or len(rows) != len(expect["rows"]):
        return [f"{path}: header or row count differs from the reference"]
    errors = []
    for row, ref in zip(rows, expect["rows"]):
        errors += _range_errors(zip(header, row))
        errors += [f"{name}={x!r} != {r!r}" for name, x, r in zip(header, row, ref)
                   if not _close(x, r, ANALYTIC_RTOL)]
    return errors


def mc_row_errors(named: dict, cells: dict, trials: int, ref_trials: int, se_log_ratios=None) -> list:
    """Errors of one Monte Carlo report row.

    ``named`` maps column name to value; ``cells`` is the reference entry of
    this row: per scheme, the closed forms and a high-trial simulation.  The
    log ratio of each reported c_soc stderr to the expected one is appended
    to ``se_log_ratios``, for ``pooled_stderr_errors``.
    """
    errors = _range_errors(named.items())
    if errors:
        return errors
    scale = math.sqrt(ref_trials / trials)
    # |stderr(p) - stderr(p')| for a binomial count: at most 1/(2*trials) per
    # standard error of the run, and 1.5/sqrt(trials*ref_trials) for the
    # reference's 3-sigma error in p.
    p0_se_allowed = K_SIGMA / (2.0 * trials) + 1.5 / math.sqrt(trials * ref_trials)
    for scheme, ref in cells.items():
        s = scheme.lower()
        for field in ANALYTIC_FIELDS:
            if not _close(named[f"{s}_{field}"], ref[field], ANALYTIC_RTOL):
                errors.append(f"{s}_{field}={named[f'{s}_{field}']!r} != {ref[field]!r}")
        analytic = ref["c_soc_analytic"]
        bias = max(HARDENING_BIAS * analytic,
                   abs(ref["c_soc_ref"] - analytic) + 3.0 * ref["c_soc_ref_stderr"])
        reported, expected = named[f"{s}_c_soc_mc_stderr"], ref["c_soc_ref_stderr"] * scale
        if expected > 0.0:
            if not expected / SE_CELL_FACTOR <= reported <= expected * SE_CELL_FACTOR:
                errors.append(f"{s}_c_soc_mc_stderr={reported!r} vs expected {expected:.4g}: "
                              f"beyond a factor {SE_CELL_FACTOR:g}")
            elif se_log_ratios is not None:
                se_log_ratios.append(math.log(reported / expected))
        stderr = max(reported, expected)
        if abs(named[f"{s}_c_soc_mc"] - analytic) > bias + K_SIGMA * stderr:
            errors.append(f"{s}_c_soc_mc={named[f'{s}_c_soc_mc']!r} vs closed form {analytic!r}: "
                          f"beyond {bias:.4g} + {K_SIGMA:g} x {stderr:.4g}")
        p0 = ref["p0_analytic"]
        p0_bias = abs(ref["p0_ref"] - p0) + 3.0 * ref["p0_ref_stderr"]
        p_true = ref["p0_ref"]
        p0_se = math.sqrt(max(p_true * (1.0 - p_true), 1.0 / trials) / trials)
        if abs(named[f"{s}_p0_mc"] - p0) > p0_bias + K_SIGMA * p0_se:
            errors.append(f"{s}_p0_mc={named[f'{s}_p0_mc']!r} vs closed form {p0!r}: "
                          f"beyond {p0_bias:.4g} + {K_SIGMA:g} x {p0_se:.4g}")
        p0_se_expected = math.sqrt(p_true * (1.0 - p_true) / trials)
        if abs(named[f"{s}_p0_mc_stderr"] - p0_se_expected) > p0_se_allowed:
            errors.append(f"{s}_p0_mc_stderr={named[f'{s}_p0_mc_stderr']!r} vs binomial "
                          f"{p0_se_expected:.4g}: beyond {p0_se_allowed:.4g}")
    return errors


def pooled_stderr_errors(se_log_ratios, trials: int, epsilon: float) -> list:
    """Errors of the c_soc stderr column taken over all of a run's cells.

    Each cell's log ratio to the expected stderr has a standard deviation of
    about 1/sqrt(b), b = 2*sqrt(trials*epsilon*(1-epsilon)) the order
    statistics its band spans; their mean must lie within SE_POOLED_BIAS +
    K_SIGMA of its standard errors of zero.
    """
    if not se_log_ratios:
        return []
    band = max(2.0 * math.sqrt(trials * epsilon * (1.0 - epsilon)), 1.0)
    allowed = SE_POOLED_BIAS + K_SIGMA / math.sqrt(band * len(se_log_ratios))
    mean = statistics.fmean(se_log_ratios)
    if abs(mean) <= allowed:
        return []
    return [f"c_soc_mc_stderr is off by a factor {math.exp(mean):.3g} over "
            f"{len(se_log_ratios)} cells, beyond a factor {math.exp(allowed):.3g}"]


def mc_expected_rows(reference: dict, workload: str, grid=()) -> dict:
    """Reference rows of a Monte Carlo workload, keyed by the report's value cell."""
    rows = reference["mc"][workload]["rows"]
    if not grid:
        return rows
    return {key: rows[key] for key in (format(float(v), ".9g") for v in grid)}


def check_mc_report(path, expected_rows: dict, trials: int, ref_trials: int, se_log_ratios=None) -> tuple:
    """(rows attempted, rows failed, errors) of a Monte Carlo sweep report.

    ``se_log_ratios``, if given, collects the cells' stderr log ratios.
    """
    try:
        header, rows = read_report(path)
    except (OSError, ValueError) as exc:
        return len(expected_rows), len(expected_rows), [str(exc)]
    schemes = {s for cells in expected_rows.values() for s in cells}
    want = ["value"] + [f"{s.lower()}_{f}" for s in SCHEMES if s in schemes
                        for f in ANALYTIC_FIELDS + MC_FIELDS]
    if header != want or len(rows) != len(expected_rows):
        return len(expected_rows), len(expected_rows), [f"{path}: header or row count differs"]
    failed, errors = 0, []
    for row, (key, cells) in zip(rows, expected_rows.items()):
        row_errors = mc_row_errors(dict(zip(header, row)), cells, trials, ref_trials, se_log_ratios)
        if format(row[0], ".9g") != key:
            row_errors.append(f"row value {row[0]!r} != {key}")
        if row_errors:
            failed += 1
            errors += [f"row {key}: {e}" for e in row_errors]
    return len(expected_rows), failed, errors


def check_command(command, code: int, stdout: str, catalogue: dict) -> list:
    """Errors of one analytic-cli command (empty when its output is right)."""
    if code != 0:
        return [f"{' '.join(command.argv)}: exit code {code}"]
    kind, index = command.ref.split("/")
    expect = catalogue[kind][int(index)]["expect"]
    try:
        if kind == "point":
            return check_point(stdout, expect)
        if kind == "optimize":
            return check_optimize(stdout, expect)
        if kind == "switch":
            return check_switch(stdout, expect)
        return check_analytic_report(command.out, expect)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{' '.join(command.argv)}: unreadable output: {exc!r}"]
