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


def af_snr(c, h, g_sr, g):
    """Per-realization AF end-to-end SNR at a receiver whose link gain is ``g``.

    ``c = p_s*alpha_sr``, ``h = p_r*alpha`` of the relay's link to that
    receiver, ``g_sr`` the first-hop gain.  Arithmetic only, so floats and
    numpy arrays both work.  Every AF closed form is this SNR at the
    channel-hardened gains g_sr = n_r, g_d = rho*n_r and g_e = ln(1/epsilon).
    """
    return c * h * g * g_sr / (h * g + c * g_sr + 1.0)


def legit_capacity_af(params: SystemParams) -> float:
    """Hardened legitimate capacity of the AF link, bit/s."""
    n = params.n_r
    snr = af_snr(params.p_s * params.alpha_sr, params.p_r * params.alpha_rd, n, params.rho * n)
    return params.w_hz * math.log2(1.0 + snr)


def secrecy_outage_capacity_af(params: SystemParams, *, p_s: float | None = None,
                               p_r: float | None = None) -> float:
    """Secrecy outage capacity of AF relaying at outage level epsilon, bit/s.

    ``p_s``/``p_r``, when given, stand in for the powers of ``params``; the
    result equals that at ``replace(params, p_s=..., p_r=...)`` bit for bit.

    Raises:
        ArithmeticError: the eavesdropper log argument is not >= 1 (an
            out-of-range epsilon, or power products that overflow to NaN).
    """
    c = (params.p_s if p_s is None else p_s) * params.alpha_sr
    p_r = params.p_r if p_r is None else p_r
    n = params.n_r
    legit = params.w_hz * math.log2(1.0 + af_snr(c, p_r * params.alpha_rd, n, params.rho * n))
    # Rate ceded to the eavesdropper at outage level epsilon.  With
    # 0 < epsilon <= 1 its hardened gain is >= 0, so the log argument is
    # >= 1; anything else (including NaN from overflowing power products)
    # means the inputs are unusable.
    arg = 1.0 + af_snr(c, p_r * params.alpha_re, n, -math.log(params.epsilon))
    if not arg >= 1.0:
        raise ArithmeticError(f"AF eavesdropper log argument {arg} is not >= 1")
    return max(legit - params.w_hz * math.log2(arg), 0.0)


def interception_probability_af(params: SystemParams) -> float:
    """Probability that the AF eavesdropper capacity reaches the legitimate one.

    The AF eavesdropper SNR reaches the destination's exactly when
    ``alpha_re*g_e >= alpha_rd*g_d``, so at positive powers the closed form
    does not depend on them.  Zero source or relay power is reported as the
    convention 1.0 (no secrecy is possible), not as a value of the closed form.
    """
    if params.p_s == 0.0 or params.p_r == 0.0:
        return 1.0
    return math.exp(-params.alpha_rd * (params.rho * params.n_r) / params.alpha_re)


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
    return math.exp(-snr_d / (params.p_r * params.alpha_re))


def eavesdropper_cdf_af(x: float, params: SystemParams) -> float:
    """CDF of the hardened AF eavesdropper SNR, defined on [0, p_s*alpha_sr*n_r)."""
    c = params.p_s * params.alpha_sr
    e = params.p_r * params.alpha_re
    if c <= 0.0 or e <= 0.0:
        raise ValueError("eavesdropper SNR law requires positive p_s and p_r")
    bound = c * params.n_r
    if not 0.0 <= x < bound:
        raise ValueError(f"x must lie in [0, {bound}), got {x}")
    return 1.0 - math.exp(-(bound + 1.0) * x / (e * (bound - x)))


def asymptotic_limit(params: SystemParams, regime, scheme) -> AsymptoticLimit:
    """High-power limits of (secrecy outage capacity, interception probability).

    Each limit is that of the closed forms of this module.  AF's interception
    probability is the power-free ``exp(-alpha_rd*rho*n_r/alpha_re)`` in both
    regimes.  Large relay power collapses the secrecy outage capacity of both
    schemes, and DF's interception probability tends to 1.  Large source
    power gives DF a relay-power-dependent ceiling with AF's interception
    probability, and AF a power-free ceiling: the double limit, ``p_s`` and
    then ``p_r`` to infinity (at a finite ``p_r`` the AF capacity tends to a
    ``p_r``-dependent value).  Acceptance criterion 4 pins that ceiling.
    """
    regime = Regime(regime)
    scheme = Scheme(scheme)
    rho_n = params.rho * params.n_r
    p0 = math.exp(-params.alpha_rd * rho_n / params.alpha_re)
    if regime is Regime.LARGE_RELAY_POWER:
        return AsymptoticLimit(0.0, p0 if scheme is Scheme.AF else 1.0)
    if params.epsilon == 1.0:
        raise ValueError("epsilon = 1 leaves the large-source-power limit undefined")
    ln_eps = math.log(params.epsilon)
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
