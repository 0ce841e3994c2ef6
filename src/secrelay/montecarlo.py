"""Monte Carlo estimation of secrecy outage capacity and interception
probability from the exact per-realization SNRs.

Per-draw SNRs are computed in closed form from the link statistics, so no
additive noise is ever sampled; that removes estimator variance without bias.
The statistics themselves are drawn from their exact law, not from channel
vectors, one counter-based substream of the seed per variate, so every
estimate is a pure function of (params, trials, seed).  AF and DF read the
same three link statistics per draw, so ``estimate_schemes`` draws once for
both; a sweep row's schemes share that row's draws.
"""
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytic import Scheme, composite_coefficients
# draw_channels and link_statistics stay importable: perfbench's tracer looks them up here.
from .channel import LinkStatistics, draw_channels, link_statistics, trial_rng  # noqa: F401
from .params import SystemParams


class InsufficientSampleError(ValueError):
    """Too few trials to resolve the requested outage quantile."""


@dataclass(frozen=True)
class McEstimate:
    value: float      # bit/s for capacities, probability for interception
    std_error: float  # estimated standard error of ``value``
    trials: int
    seed: int


class RatePair(NamedTuple):
    c_d: float  # legitimate rate, bit/s
    c_e: float  # eavesdropper rate, bit/s


class SecrecyEstimates(NamedTuple):
    c_soc: McEstimate
    p0: McEstimate


def _af_rates(g_sr, g_d, g_e, params: SystemParams):
    k = composite_coefficients(params)
    snr_d = k.a * g_d * g_sr / (k.b * g_d + k.c * g_sr + 1.0)
    snr_e = k.d * g_e * g_sr / (k.e_coef * g_e + k.c * g_sr + 1.0)
    return params.w_hz * np.log2(1.0 + snr_d), params.w_hz * np.log2(1.0 + snr_e)


def _df_rates(g_sr, g_d, g_e, params: SystemParams):
    # The relay cannot forward more than it decoded, so the first hop caps
    # the eavesdropper rate exactly as it caps the legitimate one.
    first_hop = params.p_s * params.alpha_sr * g_sr
    snr_d = np.minimum(first_hop, params.p_r * params.alpha_rd * g_d)
    snr_e = np.minimum(first_hop, params.p_r * params.alpha_re * g_e)
    return params.w_hz * np.log2(1.0 + snr_d), params.w_hz * np.log2(1.0 + snr_e)


def af_realization_rates(stats: LinkStatistics, params: SystemParams) -> RatePair:
    """Per-draw legitimate and eavesdropper rates under AF relaying."""
    c_d, c_e = _af_rates(stats.g_sr, stats.g_d, stats.g_e, params)
    return RatePair(float(c_d), float(c_e))


def df_realization_rates(stats: LinkStatistics, params: SystemParams) -> RatePair:
    """Per-draw legitimate and eavesdropper rates under DF relaying."""
    c_d, c_e = _df_rates(stats.g_sr, stats.g_d, stats.g_e, params)
    return RatePair(float(c_d), float(c_e))


def empirical_quantile(samples, epsilon: float) -> float:
    """k-th smallest sample with k = max(1, ceil(epsilon*n)); no interpolation."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    k = max(1, math.ceil(epsilon * x.size))
    return float(np.partition(x, k - 1)[k - 1])


def _binom_ppf(q: float, n: int, p: float) -> int:
    """Smallest k with P(X <= k) >= q for X ~ Binomial(n, p), 0 < q < 1.

    Sums the exact pmf upward from 40 standard deviations below the mean,
    where the mass left out is far below double precision.
    """
    if p >= 1.0:
        return n
    mean = n * p
    k = max(0, math.floor(mean - 40.0 * math.sqrt(mean * (1.0 - p))))
    log_p, log_1mp, lg_n = math.log(p), math.log1p(-p), math.lgamma(n + 1)
    cdf = 0.0
    while k < n:
        cdf += math.exp(lg_n - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                        + k * log_p + (n - k) * log_1mp)
        if cdf >= q:
            return k
        k += 1
    return n


def _quantile_std_error(sorted_samples: np.ndarray, epsilon: float) -> float:
    # Order-statistic method: half-width of the 68% binomial band around k.
    n = sorted_samples.size
    j_lo = min(max(_binom_ppf(0.16, n, epsilon), 1), n)
    j_hi = min(max(_binom_ppf(0.84, n, epsilon), 1), n)
    return float(sorted_samples[j_hi - 1] - sorted_samples[j_lo - 1]) / 2.0


def _collect_statistics(params: SystemParams, trials: int, seed: int):
    """Draw (g_sr, g_d, g_e) for all trials from their exact joint law.

    The three are independent: g_sr ~ Gamma(n_r, 1), g_e ~ Exp(1) and
    g_d = |sqrt(rho*G) + sqrt(1-rho)*z|^2 with G ~ Gamma(n_r, 1), z ~ CN(0, 1).
    Each variate reads its own substream, so a collection is a prefix of any
    longer one with the same seed.
    """
    g_sr = trial_rng(seed, 0).standard_gamma(params.n_r, trials)
    gain = trial_rng(seed, 1).standard_gamma(params.n_r, trials)
    z = trial_rng(seed, 2).standard_normal(2 * trials).view(np.complex128) * math.sqrt(0.5)
    g_e = trial_rng(seed, 3).standard_exponential(trials)
    g_d = np.abs(np.sqrt(params.rho * gain) + math.sqrt(1.0 - params.rho) * z) ** 2
    return g_sr, g_d, g_e


def _reduce(scheme: Scheme, g_sr, g_d, g_e, params: SystemParams, trials: int,
            seed: int) -> SecrecyEstimates:
    rates = _af_rates if scheme is Scheme.AF else _df_rates
    with np.errstate(over="ignore", invalid="ignore"):
        c_d, c_e = rates(g_sr, g_d, g_e, params)
    if not (np.isfinite(c_d).all() and np.isfinite(c_e).all()):
        raise ArithmeticError(f"{scheme.value} Monte Carlo rates are not finite")
    diff = np.sort(c_d - c_e)
    c_soc = McEstimate(
        value=max(empirical_quantile(diff, params.epsilon), 0.0),
        std_error=_quantile_std_error(diff, params.epsilon),
        trials=trials,
        seed=seed,
    )
    frac = float(np.count_nonzero(c_e >= c_d)) / trials
    p0 = McEstimate(
        value=frac,
        std_error=math.sqrt(frac * (1.0 - frac) / trials),
        trials=trials,
        seed=seed,
    )
    return SecrecyEstimates(c_soc=c_soc, p0=p0)


def estimate_schemes(schemes, params: SystemParams, trials: int, seed: int) -> dict:
    """``estimate`` for several schemes from one set of channel draws.

    Every trial is drawn once and its link statistics feed each scheme, so
    the result for a scheme equals ``estimate(scheme, params, trials, seed)``.
    Returns a dict from Scheme to SecrecyEstimates, in the order given.

    Raises:
        ValueError: no schemes, an unknown scheme, a non-positive trial
            count or an out-of-range seed.
        InsufficientSampleError: trials < 100 or epsilon*trials < 1.
        ArithmeticError: a scheme's per-draw rates are not finite.
    """
    if trials <= 0:
        raise ValueError(f"trials must be a positive integer, got {trials}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if trials < 100 or params.epsilon * trials < 1.0:
        raise InsufficientSampleError(
            f"{trials} trials cannot resolve the epsilon={params.epsilon} quantile; "
            "need trials >= 100 and epsilon*trials >= 1"
        )
    schemes = [Scheme(s) for s in schemes]
    if not schemes:
        raise ValueError("no schemes to estimate")
    stats = _collect_statistics(params, trials, seed)
    return {s: _reduce(s, *stats, params, trials, seed) for s in schemes}


def estimate(scheme, params: SystemParams, trials: int, seed: int) -> SecrecyEstimates:
    """Estimate secrecy outage capacity and interception probability.

    The secrecy outage capacity estimate is the clamped epsilon-quantile of
    the per-draw rate difference; the interception probability is the
    fraction of draws whose eavesdropper rate reaches the legitimate rate
    (ties count as interception).

    Raises:
        ValueError: non-positive trial count or out-of-range seed.
        InsufficientSampleError: trials < 100 or epsilon*trials < 1.
        ArithmeticError: the per-draw rates are not finite.
    """
    (result,) = estimate_schemes((scheme,), params, trials, seed).values()
    return result
