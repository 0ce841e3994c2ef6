"""Reference relay-power search: a 0.1 dB scan of the bracket plus a
golden-section search, the better of the two.

``decision.optimal_relay_power`` locates each optimum from the shape of the
closed forms.  This search assumes nothing of that shape, so tests compare
the two: the optimizer's capacity must be at least this search's best.  For
DF the optimizer keeps the same golden-section search and evaluates the scan
only next to the capacity's kink, so there the two agree exactly wherever
the capacity is not flat to rounding.
"""
import math

from secrelay.analytic import (
    Scheme,
    check_finite,
    secrecy_outage_capacity_af,
    secrecy_outage_capacity_df,
)
from secrelay.decision import NoOptimumError, RelayPowerOptimum
from secrelay.params import SystemParams, from_decibel

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
DB_TOL = 1e-3        # refinement resolution on the dB axis
GRID_STEP_DB = 0.1   # scan resolution of the backstop grid


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


def reference_relay_power(
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
        return check_finite(soc(params_template, p_r=from_decibel(db)), name, db)

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
