"""AF/DF scheme comparison, switching-point location, and relay-power
optimization over the closed-form secrecy outage capacity, whose optima come
from its shape (Monte Carlo estimates would blur it with noise).
"""
import math
from dataclasses import dataclass
from enum import Enum

from .analytic import (
    Scheme,
    check_finite,
    coefficients,
    interception_probability_af,
    interception_probability_df,
    secrecy_outage_capacity_af,
    secrecy_outage_capacity_df,
)
from .params import SystemParams, from_decibel

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
DB_TOL = 1e-3        # refinement resolution on the dB axis
GRID_STEP_DB = 0.1   # lattice of the DF optimum's candidate points on the dB axis
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


def _scan_neighbours(lo_db: float, hi_db: float, at_db: float) -> list:
    """The scan points next to at_db, one per side, formed by index.  The scan is
    lo_db + i*GRID_STEP_DB up to hi_db (each clipped to it), closed by hi_db."""
    j = math.floor((at_db - lo_db) / GRID_STEP_DB)
    scan = [min(x, hi_db) for i in range(max(j - 1, 0), j + 4)
            if (x := lo_db + i * GRID_STEP_DB) <= hi_db + 1e-12]
    scan += [hi_db] if scan[-1] < hi_db - 1e-12 else []
    return [x for x in scan if x <= at_db][-1:] + [x for x in scan if x > at_db][:1]


def _to_db(power: float) -> float:
    return 10.0 * math.log10(power) if power > 0.0 else -math.inf


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
    big_a, a, b = coefficients(p)
    if not a > b > 0.0:
        return []
    # Both equations read q^2*x^2 + lin*x = u^2 with x = P or A.  The squares
    # can overflow where the root does not, so it is formed from q and u.
    if source:
        u = math.sqrt(b * p.p_r) * math.sqrt(a * p.p_r + 1.0)
        q, lin, per_power = 1.0, 1.0, p.alpha_sr * p.n_r
    else:
        u = math.sqrt(big_a) * math.sqrt(big_a + 1.0)
        q, lin, per_power = math.sqrt(a) * math.sqrt(b), b, 1.0
    if u == 0.0:  # zero fixed power, or products of it that underflow
        return []
    root = 2.0 * u / (lin / u + math.hypot(lin / u, 2.0 * q)) / per_power
    root_db = _to_db(check_finite(root, "switching point"))
    return [root_db] if lo_db < root_db < hi_db else []


def optimal_relay_power(
    params_template: SystemParams, lo_db: float, hi_db: float, scheme
) -> RelayPowerOptimum:
    """Relay power maximizing the closed-form secrecy outage capacity.

    With find_switching_point's A, a and b, both capacities are zero unless
    a > b.  AF peaks at P* = sqrt((A + 1)/(a*b)), DF at hop balance A/a; each
    is clipped to the bracket.  DF returns the better of the GRID_STEP_DB scan
    points beside its peak and a golden-section search to DB_TOL.

    Raises:
        NoOptimumError: the capacity is zero at the optimum (AF: whenever a <= b).
        ArithmeticError: the capacity is not finite at a bracket end.
    """
    scheme = Scheme(scheme)
    if not lo_db < hi_db:
        raise ValueError(f"invalid bracket: need lo_db < hi_db, got [{lo_db}, {hi_db}]")
    soc = secrecy_outage_capacity_af if scheme is Scheme.AF else secrecy_outage_capacity_df

    def f(db):
        return check_finite(soc(params_template, p_r=from_decibel(db)), f"{scheme.value} c_soc", db)

    f(lo_db), f(hi_db)  # overflow grows with p_r, so the bracket ends bound it
    big_a, a, b = coefficients(params_template)
    best = (lo_db, 0.0)  # AF's capacity when a <= b
    if scheme is Scheme.DF:
        kink_db = max(lo_db, min(hi_db, _to_db(big_a / a) if a else math.inf))
        grid = _scan_neighbours(lo_db, hi_db, kink_db)
        best = max(zip(grid, map(f, grid)), key=lambda pair: pair[1])  # ties: the lower
    elif a > b:
        # From square roots, so that no product overflows where P* does not.
        star = math.sqrt(big_a + 1.0) / (math.sqrt(a) * math.sqrt(b)) if b > 0.0 else math.inf
        best_db = float(max(lo_db, min(hi_db, _to_db(star))))
        best = (best_db, f(best_db))
    if best[1] <= 0.0:
        raise NoOptimumError(f"{scheme.value} c_soc is zero across [{lo_db}, {hi_db}] dB")
    if scheme is Scheme.DF:
        c, d = hi_db - _GOLDEN * (hi_db - lo_db), lo_db + _GOLDEN * (hi_db - lo_db)
        f_c, f_d = f(c), f(d)
        while hi_db - lo_db > DB_TOL:
            if f_c > f_d:
                hi_db, d, f_d = d, c, f_c
                f_c = f(c := hi_db - _GOLDEN * (hi_db - lo_db))
            else:
                lo_db, c, f_c = c, d, f_d
                f_d = f(d := lo_db + _GOLDEN * (hi_db - lo_db))
        gs_db = 0.5 * (lo_db + hi_db)
        best = max((gs_db, f(gs_db)), best, key=lambda pair: pair[1])
    return RelayPowerOptimum(*best)
