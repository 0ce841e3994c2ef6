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
class CompositeCoefficients:
    """Power/path-loss products shared by the SNR expressions.

    Built so that a == c*b and d == c*e_coef hold exactly in floating point.
    """

    a: float       # p_s * p_r * alpha_sr * alpha_rd
    b: float       # p_r * alpha_rd
    c: float       # p_s * alpha_sr
    d: float       # p_s * p_r * alpha_sr * alpha_re
    e_coef: float  # p_r * alpha_re


@dataclass(frozen=True)
class SchemeReport:
    scheme: Scheme
    c_d: float    # legitimate channel capacity, bit/s
    c_soc: float  # secrecy outage capacity, bit/s (clamped at 0)
    p0: float     # interception probability


class AsymptoticLimit(NamedTuple):
    c_soc_limit: float
    p0_limit: float


def _products(p_s: float, p_r: float, params: SystemParams):
    # (a, b, c, d, e_coef), in the field order of CompositeCoefficients.
    b = p_r * params.alpha_rd
    c = p_s * params.alpha_sr
    e_coef = p_r * params.alpha_re
    return c * b, b, c, c * e_coef, e_coef


def composite_coefficients(params: SystemParams) -> CompositeCoefficients:
    return CompositeCoefficients(*_products(params.p_s, params.p_r, params))


def _legit_snr_af(a: float, b: float, c: float, params: SystemParams) -> float:
    n = params.n_r
    return a * params.rho * n * n / (b * params.rho * n + c * n + 1.0)


def legit_capacity_af(params: SystemParams) -> float:
    """Hardened legitimate capacity of the AF link, bit/s."""
    a, b, c, _, _ = _products(params.p_s, params.p_r, params)
    return params.w_hz * math.log2(1.0 + _legit_snr_af(a, b, c, params))


def _eavesdropper_allowance_af(c: float, d: float, e_coef: float, params: SystemParams) -> float:
    # Rate ceded to the eavesdropper at outage level epsilon.  With
    # 0 < epsilon <= 1 both numerator and denominator of the ratio are
    # non-positive, so the log argument is >= 1; anything else (including
    # NaN from overflowing power products) means the inputs are unusable.
    n = params.n_r
    ln_eps = math.log(params.epsilon)
    arg = 1.0 + d * n * ln_eps / (e_coef * ln_eps - c * n - 1.0)
    if not arg >= 1.0:
        raise ArithmeticError(f"AF eavesdropper log argument {arg} is not >= 1")
    return params.w_hz * math.log2(arg)


def secrecy_outage_capacity_af(params: SystemParams, *, p_s: float | None = None,
                               p_r: float | None = None) -> float:
    """Secrecy outage capacity of AF relaying at outage level epsilon, bit/s.

    ``p_s``/``p_r``, when given, stand in for the powers of ``params``; the
    result equals that at ``replace(params, p_s=..., p_r=...)`` bit for bit.

    Raises:
        ArithmeticError: the eavesdropper log argument is not >= 1 (an
            out-of-range epsilon, or power products that overflow to NaN).
    """
    a, b, c, d, e_coef = _products(params.p_s if p_s is None else p_s,
                                   params.p_r if p_r is None else p_r, params)
    legit = params.w_hz * math.log2(1.0 + _legit_snr_af(a, b, c, params))
    return max(legit - _eavesdropper_allowance_af(c, d, e_coef, params), 0.0)


def interception_probability_af(params: SystemParams) -> float:
    """Probability that the AF eavesdropper capacity reaches the legitimate one.

    Zero source or relay power is reported as the convention 1.0 (no secrecy
    is possible), not as a value of the closed form.
    """
    if params.p_s == 0.0 or params.p_r == 0.0:
        return 1.0
    a, b, c, d, e_coef = _products(params.p_s, params.p_r, params)
    snr_d = _legit_snr_af(a, b, c, params)
    n = params.n_r
    p = math.exp(-(c * n + 1.0) * snr_d / (d * n - e_coef * snr_d))
    return min(max(p, 0.0), 1.0)


def _legit_snr_df(p_s: float, p_r: float, params: SystemParams) -> float:
    n = params.n_r
    return min(p_s * params.alpha_sr * n, p_r * params.alpha_rd * params.rho * n)


def legit_capacity_df(params: SystemParams) -> float:
    """Hardened legitimate capacity of the DF link (min of the two hops), bit/s."""
    return params.w_hz * math.log2(1.0 + _legit_snr_df(params.p_s, params.p_r, params))


def secrecy_outage_capacity_df(params: SystemParams, *, p_s: float | None = None,
                               p_r: float | None = None) -> float:
    """Secrecy outage capacity of DF relaying at outage level epsilon, bit/s.

    ``p_s``/``p_r``, when given, stand in for the powers of ``params``; the
    result equals that at ``replace(params, p_s=..., p_r=...)`` bit for bit.
    """
    p_s = params.p_s if p_s is None else p_s
    p_r = params.p_r if p_r is None else p_r
    allowance = params.w_hz * math.log2(1.0 - p_r * params.alpha_re * math.log(params.epsilon))
    return max(params.w_hz * math.log2(1.0 + _legit_snr_df(p_s, p_r, params)) - allowance, 0.0)


def interception_probability_df(params: SystemParams) -> float:
    """Probability that the DF eavesdropper capacity reaches the legitimate one.

    Zero relay power is reported as the convention 0.0 (nothing is
    transmitted, so nothing can be intercepted).
    """
    if params.p_r == 0.0:
        return 0.0
    snr_d = _legit_snr_df(params.p_s, params.p_r, params)
    p = math.exp(-snr_d / (params.p_r * params.alpha_re))
    return min(max(p, 0.0), 1.0)


def eavesdropper_cdf_af(x: float, params: SystemParams) -> float:
    """CDF of the hardened AF eavesdropper SNR, defined on [0, d*n_r/e_coef)."""
    k = composite_coefficients(params)
    if k.d <= 0.0 or k.e_coef <= 0.0:
        raise ValueError("eavesdropper SNR law requires positive p_s and p_r")
    n = params.n_r
    bound = k.d * n / k.e_coef
    if not 0.0 <= x < bound:
        raise ValueError(f"x must lie in [0, {bound}), got {x}")
    return 1.0 - math.exp(-(k.c * n + 1.0) * x / (k.d * n - k.e_coef * x))


def asymptotic_limit(params: SystemParams, regime, scheme) -> AsymptoticLimit:
    """High-power limits of (secrecy outage capacity, interception probability).

    Large relay power collapses the secrecy outage capacity for both schemes,
    with interception probability 0 (AF) or 1 (DF).  Large source power gives
    a power-free ceiling for AF and a relay-power-dependent one for DF, both
    with the same interception probability.
    """
    regime = Regime(regime)
    scheme = Scheme(scheme)
    if regime is Regime.LARGE_RELAY_POWER:
        return AsymptoticLimit(0.0, 0.0 if scheme is Scheme.AF else 1.0)
    if params.epsilon == 1.0:
        raise ValueError("epsilon = 1 leaves the large-source-power limit undefined")
    ln_eps = math.log(params.epsilon)
    rho_n = params.rho * params.n_r
    p0 = min(math.exp(-params.alpha_rd * rho_n / params.alpha_re), 1.0)
    if scheme is Scheme.AF:
        arg = -params.alpha_rd * rho_n / (params.alpha_re * ln_eps)
        # rho = 0 collapses the ceiling entirely (log argument 0).
        c_soc = params.w_hz * math.log2(arg) if arg > 0.0 else 0.0
    else:
        c_soc = params.w_hz * math.log2(
            (1.0 + params.p_r * params.alpha_rd * rho_n)
            / (1.0 - params.p_r * params.alpha_re * ln_eps)
        )
    return AsymptoticLimit(max(c_soc, 0.0), p0)


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
    values = {}
    for name, figure in zip(("c_d", "c_soc", "p0"), figures):
        values[name] = figure(params)
        if not math.isfinite(values[name]):
            raise ArithmeticError(f"{scheme.value} {name} is not finite ({values[name]})")
    return SchemeReport(scheme=scheme, **values)
