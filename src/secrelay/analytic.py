"""Closed-form secrecy performance of AF and DF relaying under imperfect CSI.

Capacities in bit/s, probabilities in [0, 1].  Every secrecy outage capacity
is clamped at zero.  The large-antenna (channel-hardening) approximations are
exact in the limit and validated against simulation by the montecarlo module.
"""
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .params import SystemParams


class Scheme(str, Enum):
    AF = "AF"
    DF = "DF"


class Regime(str, Enum):
    LARGE_SOURCE_POWER = "large-source-power"
    LARGE_RELAY_POWER = "large-relay-power"


@dataclass(frozen=True)
class SchemeReport:
    c_d: float    # legitimate channel capacity, bit/s
    c_soc: float  # secrecy outage capacity, bit/s (clamped at 0)
    p0: float     # interception probability


class AsymptoticLimit(NamedTuple):
    c_soc_limit: float
    p0_limit: float


def coefficients(params: SystemParams, p_s: float | None = None) -> tuple:
    """(A, a, b) = (p_s*alpha_sr*n_r, rho*n_r*alpha_rd, alpha_re*ln(1/epsilon)).

    Every closed form reads its hardened SNRs from these, with P = p_r: AF's
    are ``xA/(1 + x + A)`` at x = aP (destination) and x = bP (eavesdropper), DF's
    ``min(A, aP)`` and ``bP``.  ``p_s``, when given, stands in for that of ``params``.

    Raises:
        ArithmeticError: b is not >= 0 (an epsilon outside (0, 1]).
    """
    b = -params.alpha_re * math.log(params.epsilon)
    if not b >= 0.0:
        raise ArithmeticError(f"alpha_re*ln(1/epsilon) = {b} is not >= 0")
    p_s = params.p_s if p_s is None else p_s
    return p_s * params.alpha_sr * params.n_r, params.rho * params.n_r * params.alpha_rd, b


def _af_capacity(w_hz: float, big_a: float, x: float) -> float:
    # SNR = xA/(1 + x + A) as 1/SNR = (1/x)(1 + 1/A) + 1/A: no step overflows or
    # cancels, and each rounds monotonically in x, so c_d <= c_e exactly where aP <= bP.
    if math.inf in (big_a, x):  # an overflowed A or x would silently drop a term
        return math.nan
    if big_a == 0.0 or x == 0.0:
        return 0.0
    return w_hz * math.log2(1.0 + 1.0 / ((1.0 / x) * (1.0 + 1.0 / big_a) + 1.0 / big_a))


def legit_capacity_af(params: SystemParams) -> float:
    """Hardened legitimate capacity of the AF link, bit/s."""
    big_a, a, _ = coefficients(params)
    return _af_capacity(params.w_hz, big_a, a * params.p_r)


def secrecy_outage_capacity_af(params: SystemParams, *, p_s: float | None = None,
                               p_r: float | None = None) -> float:
    """Secrecy outage capacity of AF relaying at outage level epsilon, bit/s.

    ``p_s``/``p_r``, when given, stand in for the powers of ``params``; the
    result equals that at ``replace(params, p_s=..., p_r=...)`` bit for bit.
    Overflowing coefficients give NaN, which ``check_finite`` reports.
    """
    big_a, a, b = coefficients(params, p_s)
    p_r = params.p_r if p_r is None else p_r
    # c_d - c_e: c_e is exactly 0 at epsilon = 1, and c_soc exactly 0 where a <= b.
    c_d = _af_capacity(params.w_hz, big_a, a * p_r)
    return max(c_d - _af_capacity(params.w_hz, big_a, b * p_r), 0.0)


def interception_probability_af(params: SystemParams) -> float:
    """Probability that the AF eavesdropper capacity reaches the legitimate one.

    The AF eavesdropper SNR reaches the destination's exactly when
    ``alpha_re*g_e >= alpha_rd*g_d``, so at positive powers the closed form
    does not depend on them.  Zero source or relay power is reported as the
    convention 1.0 (no secrecy is possible), not as a value of the closed form.
    """
    if params.p_s == 0.0 or params.p_r == 0.0:
        return 1.0
    _, a, _ = coefficients(params)
    return math.exp(-a / params.alpha_re)


def legit_capacity_df(params: SystemParams) -> float:
    """Hardened legitimate capacity of the DF link (min of the two hops), bit/s."""
    big_a, a, _ = coefficients(params)
    return params.w_hz * math.log2(1.0 + min(big_a, a * params.p_r))


def secrecy_outage_capacity_df(params: SystemParams, *, p_s: float | None = None,
                               p_r: float | None = None) -> float:
    """Secrecy outage capacity of DF relaying at outage level epsilon, bit/s.

    ``p_s``/``p_r``, when given, stand in for the powers of ``params``; the
    result equals that at ``replace(params, p_s=..., p_r=...)`` bit for bit.
    """
    big_a, a, b = coefficients(params, p_s)
    p_r = params.p_r if p_r is None else p_r
    c_d = params.w_hz * math.log2(1.0 + min(big_a, a * p_r))
    return max(c_d - params.w_hz * math.log2(1.0 + b * p_r), 0.0)


def interception_probability_df(params: SystemParams) -> float:
    """Probability that the DF eavesdropper capacity reaches the legitimate one.

    Zero relay power is reported as the convention 0.0 (nothing is
    transmitted, so nothing can be intercepted).
    """
    if params.p_r == 0.0:
        return 0.0
    big_a, a, _ = coefficients(params)
    return math.exp(-min(big_a / params.p_r, a) / params.alpha_re)  # no P*alpha_re to overflow


def eavesdropper_cdf_af(x: float, params: SystemParams) -> float:
    """CDF of the hardened AF eavesdropper SNR, defined on [0, p_s*alpha_sr*n_r)."""
    bound, e = coefficients(params)[0], params.p_r * params.alpha_re
    if bound <= 0.0 or e <= 0.0:
        raise ValueError("eavesdropper SNR law requires positive p_s and p_r")
    if not 0.0 <= x < bound:
        raise ValueError(f"x must lie in [0, {bound}), got {x}")
    return 1.0 - math.exp(-(bound + 1.0) * x / (e * (bound - x)))


def asymptotic_limit(params: SystemParams, regime, scheme) -> AsymptoticLimit:
    """High-power limits of (secrecy outage capacity, interception probability).

    Each is the limit of this module's closed forms, with ``coefficients``'
    A, a, b and P = p_r.  AF's interception probability is ``exp(-a/alpha_re)``
    in both regimes (1.0 if the other power is 0).  Large relay power collapses
    both secrecy outage capacities (to ``w*log2(1 + A)`` at epsilon = 1, if
    a > 0), and DF's interception probability tends to 1.  Large source power
    gives DF the ceiling ``w*log2((1 + aP)/(1 + bP))`` with AF's interception
    probability (0.0 at P = 0); at a finite ``p_r`` the AF capacity tends to
    that ceiling.  For AF this reports the power-free double limit, ``p_s``
    then ``p_r`` to infinity, ``w*log2(a/b)``, which acceptance criterion 4 pins.
    """
    regime, scheme = Regime(regime), Scheme(scheme)
    big_a, a, b = coefficients(params)
    p0 = math.exp(-a / params.alpha_re)
    if regime is Regime.LARGE_RELAY_POWER:
        c_soc = params.w_hz * math.log2(1.0 + big_a) if b == 0.0 < a else 0.0
        return AsymptoticLimit(c_soc, p0 if scheme is Scheme.AF and params.p_s > 0.0 else 1.0)
    if params.p_r == 0.0:  # the conventions of zero relay power hold at every p_s
        p0 = 1.0 if scheme is Scheme.AF else 0.0
    if scheme is Scheme.DF:  # its closed form, finite at p_s = inf: min(A, aP) = aP
        return AsymptoticLimit(secrecy_outage_capacity_df(params, p_s=math.inf), p0)
    if b == 0.0:
        raise ValueError("epsilon = 1 leaves the AF large-source-power limit unbounded")
    # a <= b, including rho = 0, collapses the ceiling entirely.
    return AsymptoticLimit(params.w_hz * (math.log2(a) - math.log2(b)) if a > b else 0.0, p0)


def check_finite(value: float, name: str, db: float | None = None) -> float:
    """Return ``value``; raise ArithmeticError naming it (and the dB point) if not finite."""
    if not math.isfinite(value):
        where = "" if db is None else f" at {db:g} dB"
        raise ArithmeticError(f"{name} is not finite ({value}){where}")
    return value


def scheme_report(scheme, params: SystemParams) -> SchemeReport:
    """Evaluate all three closed-form figures of merit for one scheme.

    Raises:
        ArithmeticError: a figure is not finite (the power products overflow).
    """
    scheme = Scheme(scheme)
    if scheme is Scheme.AF:
        figures = (legit_capacity_af, secrecy_outage_capacity_af, interception_probability_af)
    else:
        figures = (legit_capacity_df, secrecy_outage_capacity_df, interception_probability_df)
    return SchemeReport(*[check_finite(figure(params), f"{scheme.value} {name}")
                          for name, figure in zip(("c_d", "c_soc", "p0"), figures)])
