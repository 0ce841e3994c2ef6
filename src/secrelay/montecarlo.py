"""Monte Carlo estimation of secrecy outage capacity and interception
probability from the exact per-realization SNRs.

Per-draw SNRs are computed in closed form from the link statistics, so no
additive noise is ever sampled; that removes estimator variance without bias.
They are this module's own arithmetic: the closed forms of ``analytic`` share
no kernel with it, so the two stay independent checks of each other.
The statistics themselves are drawn from their exact law, not from channel
vectors, one counter-based substream of the seed per variate, so every
estimate is a pure function of (params, trials, seed).  AF and DF read the
same three link statistics per draw, so ``estimate_schemes`` draws once for
both; a sweep row's schemes share that row's draws.
"""
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytic import Scheme
# draw_channels and link_statistics stay importable: perfbench's tracer looks them up here.
from .channel import draw_channels, link_statistics, to_substream, trial_rng  # noqa: F401
from .params import SystemParams

MIN_TRIALS = 100  # the fewest trials that resolve an outage quantile


class InsufficientSampleError(ValueError):
    """Too few trials to resolve the requested outage quantile."""


def check_trials(trials: int, epsilon: float) -> None:
    """Raise InsufficientSampleError unless ``trials`` resolve the epsilon-quantile.

    That needs trials >= MIN_TRIALS and epsilon*trials >= 1, so also trials > 0.
    """
    if trials < MIN_TRIALS or epsilon * trials < 1.0:
        raise InsufficientSampleError(
            f"{trials} trials cannot resolve the epsilon={epsilon} quantile; "
            f"need trials >= {MIN_TRIALS} and epsilon*trials >= 1"
        )


@dataclass(frozen=True)
class McEstimate:
    value: float      # bit/s for capacities, probability for interception
    std_error: float  # estimated standard error of ``value``


class SecrecyEstimates(NamedTuple):
    c_soc: McEstimate
    p0: McEstimate


def _af_snr(c, h, g_sr, g):
    """Per-draw AF SNR: c = p_s*alpha_sr, h = p_r*alpha and g of the receiver's link."""
    return c * h * g * g_sr / (h * g + c * g_sr + 1.0)


def _af_rates(g_sr, g_d, g_e, params: SystemParams):
    c = params.p_s * params.alpha_sr
    snr_d = _af_snr(c, params.p_r * params.alpha_rd, g_sr, g_d)
    snr_e = _af_snr(c, params.p_r * params.alpha_re, g_sr, g_e)
    return params.w_hz * np.log2(1.0 + snr_d), params.w_hz * np.log2(1.0 + snr_e)


def _df_rates(g_sr, g_d, g_e, params: SystemParams):
    # The relay cannot forward more than it decoded, so the first hop caps
    # the eavesdropper rate exactly as it caps the legitimate one.
    first_hop = params.p_s * params.alpha_sr * g_sr
    snr_d = np.minimum(first_hop, params.p_r * params.alpha_rd * g_d)
    snr_e = np.minimum(first_hop, params.p_r * params.alpha_re * g_e)
    return params.w_hz * np.log2(1.0 + snr_d), params.w_hz * np.log2(1.0 + snr_e)


_RATES = {Scheme.AF: _af_rates, Scheme.DF: _df_rates}  # (c_d, c_e) per draw


def _order_index(k: int, n: int) -> int:
    """Index of the k-th smallest of n samples, k clamped to [1, n]."""
    return min(max(k, 1), n) - 1


def empirical_quantile(samples, epsilon: float) -> float:
    """k-th smallest sample with k = max(1, ceil(epsilon*n)); no interpolation."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    i = _order_index(math.ceil(epsilon * x.size), x.size)
    return float(np.partition(x, i)[i])


@functools.lru_cache
def _binom_ppf(q: float, n: int, p: float) -> int:
    """Smallest k with P(X <= k) >= q for X ~ Binomial(n, p), 0 < q < 1.

    Sums the exact pmf upward from 40 standard deviations below the mean,
    where the mass left out is far below double precision.  Memoised: a
    sweep asks for the same two quantiles for every row and scheme.
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


def _collect_statistics(params: SystemParams, trials: int, seed: int):
    """Draw (g_sr, g_d, g_e) for all trials from their exact joint law.

    The three are independent: g_sr ~ Gamma(n_r, 1), g_e ~ Exp(1) and
    g_d = |sqrt(rho*G) + sqrt(1-rho)*z|^2 with G ~ Gamma(n_r, 1), z ~ CN(0, 1).
    Each variate reads its own substream, 0 to 3, of one generator, so a
    collection is a prefix of any longer one with the same seed.
    """
    rng = trial_rng(seed, 0)
    g_sr = rng.standard_gamma(params.n_r, trials)
    gain = to_substream(rng, seed, 1).standard_gamma(params.n_r, trials)
    z = to_substream(rng, seed, 2).standard_normal(2 * trials).view(np.complex128) * math.sqrt(0.5)
    g_e = to_substream(rng, seed, 3).standard_exponential(trials)
    g_d = np.abs(np.sqrt(params.rho * gain) + math.sqrt(1.0 - params.rho) * z) ** 2
    return g_sr, g_d, g_e


def _reduce(scheme: Scheme, g_sr, g_d, g_e, params: SystemParams,
            trials: int) -> SecrecyEstimates:
    with np.errstate(over="ignore", invalid="ignore"):
        c_d, c_e = _RATES[scheme](g_sr, g_d, g_e, params)
        diff = c_d - c_e
    diff.sort()
    # Rates are >= 0 or not finite, and NaN sorts last: a non-finite rate shows at an end.
    if not (math.isfinite(diff[0]) and math.isfinite(diff[-1])):
        raise ArithmeticError(f"{scheme.value} Monte Carlo rates are not finite")
    # The epsilon-quantile; its std error is the half-width of the 68% binomial band.
    eps = params.epsilon
    lo, q, hi = (float(diff[_order_index(k, trials)]) for k in (
        _binom_ppf(0.16, trials, eps), math.ceil(eps * trials), _binom_ppf(0.84, trials, eps)))
    c_soc = McEstimate(value=max(q, 0.0), std_error=(hi - lo) / 2.0)
    if scheme is Scheme.AF and params.p_s > 0.0 and params.p_r > 0.0:
        # _af_snr grows with p_r*alpha*g, so this is c_e >= c_d without the
        # ties that rounding makes once both rates reach the first-hop value.
        intercepted = params.alpha_re * g_e >= params.alpha_rd * g_d
    else:
        intercepted = c_e >= c_d
    frac = float(np.count_nonzero(intercepted)) / trials
    p0 = McEstimate(value=frac, std_error=math.sqrt(frac * (1.0 - frac) / trials))
    return SecrecyEstimates(c_soc=c_soc, p0=p0)


def estimate_schemes(schemes, params: SystemParams, trials: int, seed: int) -> dict:
    """``estimate`` for several schemes from one set of channel draws.

    Every trial is drawn once and its link statistics feed each scheme, so
    the result for a scheme equals ``estimate(scheme, params, trials, seed)``.
    Returns a dict from Scheme to SecrecyEstimates, in the order given.

    Raises:
        InsufficientSampleError: ``check_trials`` rejects the trial count.
        ValueError: no schemes, an unknown scheme or an out-of-range seed
            (checked by ``trial_rng``).
        ArithmeticError: a scheme's per-draw rates are not finite.
    """
    check_trials(trials, params.epsilon)
    schemes = [Scheme(s) for s in schemes]
    if not schemes:
        raise ValueError("no schemes to estimate")
    stats = _collect_statistics(params, trials, seed)
    return {s: _reduce(s, *stats, params, trials) for s in schemes}


def estimate(scheme, params: SystemParams, trials: int, seed: int) -> SecrecyEstimates:
    """Estimate secrecy outage capacity and interception probability.

    The secrecy outage capacity estimate is the clamped epsilon-quantile of
    the per-draw rate difference; the interception probability is the
    fraction of draws whose eavesdropper rate reaches the legitimate rate
    (ties count as interception).

    Raises:
        InsufficientSampleError: ``check_trials`` rejects the trial count.
        ValueError: an unknown scheme or an out-of-range seed.
        ArithmeticError: the per-draw rates are not finite.
    """
    (result,) = estimate_schemes((scheme,), params, trials, seed).values()
    return result
