"""AF/DF scheme comparison, switching-point location, and relay-power
optimization over the closed-form secrecy outage capacity.

Optimization runs on the analytic expressions, never on Monte Carlo
estimates: the objective is smooth and deterministic, and estimator noise
would break the golden-section bracketing.
"""
import math
from dataclasses import dataclass
from enum import Enum

from .analytic import (
    Scheme,
    interception_probability_af,
    interception_probability_df,
    secrecy_outage_capacity_af,
    secrecy_outage_capacity_df,
)
from .params import SystemParams, from_decibel

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
DB_TOL = 1e-3        # refinement resolution on the dB axis
GRID_STEP_DB = 0.1   # default scan resolution
# A capacity gap this small relative to the larger scheme counts as a tie;
# ties go to AF on complexity grounds.
CAPACITY_TIE_REL = 1e-4
P0_TIE_ABS = 1e-9


class Criterion(str, Enum):
    CAPACITY = "capacity"
    INTERCEPTION = "interception"


class PowerAxis(str, Enum):
    SOURCE = "source-power"
    RELAY = "relay-power"


class NoOptimumError(ValueError):
    """The secrecy outage capacity vanishes over the whole bracket."""


@dataclass(frozen=True)
class ComparisonVerdict:
    delta_c_soc: float   # AF minus DF secrecy outage capacity, bit/s
    delta_p0: float      # AF minus DF interception probability
    recommended: Scheme
    criterion: Criterion


@dataclass(frozen=True)
class RelayPowerOptimum:
    p_r_opt_db: float
    c_soc_opt: float


def _db_grid(lo_db: float, hi_db: float, step_db: float):
    grid = []
    i = 0
    while True:
        x = lo_db + i * step_db
        if x > hi_db + 1e-12:
            break
        grid.append(min(x, hi_db))
        i += 1
    if grid[-1] < hi_db - 1e-12:
        grid.append(hi_db)
    return grid


def _finite(value: float, name: str, db: float | None = None) -> float:
    if not math.isfinite(value):
        where = "" if db is None else f" at {db:g} dB"
        raise ArithmeticError(f"{name} is not finite ({value}){where}")
    return value


def compare_schemes(params: SystemParams, criterion=Criterion.CAPACITY) -> ComparisonVerdict:
    """Compare AF and DF under the chosen criterion; near-ties go to AF.

    Raises:
        ArithmeticError: a closed-form capacity or probability is not finite.
    """
    criterion = Criterion(criterion)
    soc_af = _finite(secrecy_outage_capacity_af(params), "AF c_soc")
    soc_df = _finite(secrecy_outage_capacity_df(params), "DF c_soc")
    delta_c = soc_af - soc_df
    delta_p = (_finite(interception_probability_af(params), "AF p0")
               - _finite(interception_probability_df(params), "DF p0"))
    if criterion is Criterion.CAPACITY:
        tie = abs(delta_c) <= CAPACITY_TIE_REL * max(soc_af, soc_df)
        recommended = Scheme.AF if tie or delta_c > 0.0 else Scheme.DF
    else:
        tie = abs(delta_p) <= P0_TIE_ABS
        recommended = Scheme.AF if tie or delta_p < 0.0 else Scheme.DF
    return ComparisonVerdict(
        delta_c_soc=delta_c, delta_p0=delta_p, recommended=recommended, criterion=criterion
    )


def find_switching_point(
    params_template: SystemParams,
    sweep_var,
    lo_db: float,
    hi_db: float,
    *,
    grid_step_db: float = GRID_STEP_DB,
):
    """All sign changes of the AF-DF capacity gap along a power axis, in dB.

    The gap is scanned on a uniform dB grid and each sign change is refined
    by bisection to DB_TOL; an identically-zero gap yields no crossings.

    Raises:
        ArithmeticError: a capacity is not finite at a scanned point.
    """
    field = "p_s" if PowerAxis(sweep_var) is PowerAxis.SOURCE else "p_r"
    if not lo_db < hi_db:
        raise ValueError(f"invalid bracket: need lo_db < hi_db, got [{lo_db}, {hi_db}]")

    def f(db):
        power = {field: from_decibel(db)}
        return (_finite(secrecy_outage_capacity_af(params_template, **power), "AF c_soc", db)
                - _finite(secrecy_outage_capacity_df(params_template, **power), "DF c_soc", db))

    grid = _db_grid(lo_db, hi_db, grid_step_db)
    values = [f(x) for x in grid]
    crossings = []
    for i in range(len(grid) - 1):
        v0, v1 = values[i], values[i + 1]
        if v0 == 0.0:
            # An exact zero is a crossing only if the sign flips across it.
            if 0 < i and values[i - 1] * v1 < 0.0:
                crossings.append(grid[i])
            continue
        if v0 * v1 < 0.0:
            crossings.append(_bisect(f, grid[i], grid[i + 1], v0))
    return crossings


def _bisect(f, lo, hi, f_lo):
    while hi - lo > DB_TOL:
        mid = 0.5 * (lo + hi)
        v = f(mid)
        if v == 0.0:
            return mid
        if (v > 0.0) == (f_lo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def optimal_relay_power(
    params_template: SystemParams, lo_db: float, hi_db: float, scheme
) -> RelayPowerOptimum:
    """Relay power maximizing the closed-form secrecy outage capacity.

    Golden-section search on the dB axis to DB_TOL, backstopped by a
    GRID_STEP_DB scan; the better of the two results is returned.

    Raises:
        NoOptimumError: the capacity is zero across the scan grid.
        ArithmeticError: the capacity is not finite at an evaluated point.
    """
    scheme = Scheme(scheme)
    if not lo_db < hi_db:
        raise ValueError(f"invalid bracket: need lo_db < hi_db, got [{lo_db}, {hi_db}]")
    soc = secrecy_outage_capacity_af if scheme is Scheme.AF else secrecy_outage_capacity_df
    name = f"{scheme.value} c_soc"

    def f(db):
        return _finite(soc(params_template, p_r=from_decibel(db)), name, db)

    grid = _db_grid(lo_db, hi_db, GRID_STEP_DB)
    grid_values = [f(x) for x in grid]
    best_idx = max(range(len(grid)), key=grid_values.__getitem__)
    grid_best_db, grid_best = grid[best_idx], grid_values[best_idx]
    if grid_best <= 0.0:
        raise NoOptimumError(
            f"{scheme.value} secrecy outage capacity is zero across [{lo_db}, {hi_db}] dB"
        )

    a, b = lo_db, hi_db
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    f_c, f_d = f(c), f(d)
    while b - a > DB_TOL:
        if f_c > f_d:
            b, d, f_d = d, c, f_c
            c = b - _GOLDEN * (b - a)
            f_c = f(c)
        else:
            a, c, f_c = c, d, f_d
            d = a + _GOLDEN * (b - a)
            f_d = f(d)
    gs_db = 0.5 * (a + b)
    gs_value = f(gs_db)
    if gs_value >= grid_best:
        return RelayPowerOptimum(p_r_opt_db=gs_db, c_soc_opt=gs_value)
    return RelayPowerOptimum(p_r_opt_db=grid_best_db, c_soc_opt=grid_best)
