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
    check_finite,
    interception_probability_af,
    interception_probability_df,
    secrecy_outage_capacity_af,
    secrecy_outage_capacity_df,
)
from .params import SystemParams, from_decibel

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
DB_TOL = 1e-3        # refinement resolution on the dB axis
GRID_STEP_DB = 0.1   # scan resolution of optimal_relay_power's backstop grid
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


def compare_schemes(params: SystemParams, criterion=Criterion.CAPACITY) -> ComparisonVerdict:
    """Compare AF and DF under the chosen criterion; near-ties go to AF.

    Raises:
        ArithmeticError: a closed-form capacity or probability is not finite.
    """
    criterion = Criterion(criterion)
    soc_af = check_finite(secrecy_outage_capacity_af(params), "AF c_soc")
    soc_df = check_finite(secrecy_outage_capacity_df(params), "DF c_soc")
    delta_c = soc_af - soc_df
    delta_p = (check_finite(interception_probability_af(params), "AF p0")
               - check_finite(interception_probability_df(params), "DF p0"))
    if criterion is Criterion.CAPACITY:
        tie = abs(delta_c) <= CAPACITY_TIE_REL * max(soc_af, soc_df)
        recommended = Scheme.AF if tie or delta_c > 0.0 else Scheme.DF
    else:
        tie = abs(delta_p) <= P0_TIE_ABS
        recommended = Scheme.AF if tie or delta_p < 0.0 else Scheme.DF
    return ComparisonVerdict(delta_c_soc=delta_c, delta_p0=delta_p, recommended=recommended)


def find_switching_point(params_template: SystemParams, sweep_var, lo_db: float, hi_db: float):
    """The AF/DF switching point along a power axis, in dB, as a list.

    With A = p_s*alpha_sr*n_r, a = rho*n_r*alpha_rd, b = alpha_re*ln(1/eps)
    and P = p_r, AF has a positive capacity only when a > b.  Then the
    AF-DF gap is negative on the branch aP <= A and rises through zero
    exactly once on aP > A: at a*b*P^2 + b*P = A*(A + 1) on the relay
    axis, and at A^2 + A = b*P*(a*P + 1) on the source axis.  With a <= b,
    zero fixed power or eps = 1 (b = 0) there is no crossing.  The root is
    reported only strictly inside the bracket.

    Raises:
        ArithmeticError: a capacity at a bracket end, or the root, is not finite.
    """
    source = PowerAxis(sweep_var) is PowerAxis.SOURCE
    if not lo_db < hi_db:
        raise ValueError(f"invalid bracket: need lo_db < hi_db, got [{lo_db}, {hi_db}]")
    field = "p_s" if source else "p_r"
    # Overflow grows with the swept power, so the bracket ends bound it.
    for db in (lo_db, hi_db):
        power = {field: from_decibel(db)}
        check_finite(secrecy_outage_capacity_af(params_template, **power), "AF c_soc", db)
        check_finite(secrecy_outage_capacity_df(params_template, **power), "DF c_soc", db)

    p = params_template
    a = p.rho * p.n_r * p.alpha_rd
    b = -p.alpha_re * math.log(p.epsilon)
    if not a > b > 0.0:
        return []
    # Both equations read q^2*x^2 + lin*x = u^2 with x = P or A.  The squares
    # can overflow where the root does not, so it is formed from q and u.
    if source:
        u = math.sqrt(b * p.p_r) * math.sqrt(a * p.p_r + 1.0)
        q, lin, per_power = 1.0, 1.0, p.alpha_sr * p.n_r
    else:
        big_a = p.p_s * p.alpha_sr * p.n_r
        u = math.sqrt(big_a) * math.sqrt(big_a + 1.0)
        q, lin, per_power = math.sqrt(a) * math.sqrt(b), b, 1.0
    if u == 0.0:  # zero fixed power, or products of it that underflow
        return []
    root = 2.0 * u / (lin / u + math.hypot(lin / u, 2.0 * q)) / per_power
    root = check_finite(root, "switching point")
    root_db = 10.0 * math.log10(root) if root > 0.0 else -math.inf
    return [root_db] if lo_db < root_db < hi_db else []


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
