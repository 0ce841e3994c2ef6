"""Per-trial reference sampler of the channel vectors and their statistics.

Each small-scale vector entry is CN(0, 1): real and imaginary parts are
N(0, 1/2), so the per-entry power has unit mean.  The true relay->destination
channel is never sampled on its own; it is assembled from the estimate and
the error vector through the correlation coefficient.  Monte Carlo estimation
draws the three statistics from their exact law instead (``montecarlo``) and
is tested against this sampler.
"""
import math
from dataclasses import dataclass

import numpy as np

from .params import SystemParams

# Substreams start 2**128 Philox blocks apart: far more head-room than any
# draw can consume, so they cannot overlap.
_TRIAL_STRIDE_BITS = 128


class DegenerateDrawError(ArithmeticError):
    """Zero-norm estimated channel: the beamforming direction is undefined."""


@dataclass(frozen=True)
class ChannelDraw:
    h_sr: np.ndarray      # source->relay fading, length n_r
    h_rd_hat: np.ndarray  # estimated relay->destination channel
    err: np.ndarray       # estimation error vector
    h_rd: np.ndarray      # true channel: sqrt(rho)*h_rd_hat + sqrt(1-rho)*err
    h_re: np.ndarray      # relay->eavesdropper channel


@dataclass(frozen=True)
class LinkStatistics:
    """The three scalar sufficient statistics behind every per-draw SNR."""

    g_sr: float  # ||h_sr||^2
    g_d: float   # |h_rd^H u|^2 with u the unit vector along h_rd_hat
    g_e: float   # |h_re^H u|^2


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Deterministic substream ``trial`` of ``seed``.

    Derived counter-based from (seed, trial), so the draw for a given index
    is identical no matter how many other substreams are used.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if trial < 0:
        raise ValueError(f"trial index must be >= 0, got {trial}")
    return np.random.Generator(
        np.random.Philox(key=seed, counter=trial << _TRIAL_STRIDE_BITS)
    )


def to_substream(rng: np.random.Generator, seed: int, trial: int) -> np.random.Generator:
    """Move ``rng``, made by ``trial_rng(seed, ·)``, to where ``trial_rng(seed, trial)``
    starts (its counter, an empty output buffer), at a fraction of a new one's cost."""
    words = [(trial << _TRIAL_STRIDE_BITS) >> s & (2**64 - 1) for s in (0, 64, 128, 192)]
    rng.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": words, "key": [seed, 0]},
                               "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def draw_channels(params: SystemParams, rng: np.random.Generator) -> ChannelDraw:
    """Sample one realization of all channel vectors from ``rng``."""
    n = int(params.n_r)
    flat = rng.standard_normal(8 * n).view(np.complex128) * math.sqrt(0.5)
    h_sr, h_rd_hat, err, h_re = flat.reshape(4, n)
    h_rd = math.sqrt(params.rho) * h_rd_hat + math.sqrt(1.0 - params.rho) * err
    return ChannelDraw(h_sr=h_sr, h_rd_hat=h_rd_hat, err=err, h_rd=h_rd, h_re=h_re)


def link_statistics(draw: ChannelDraw) -> LinkStatistics:
    """Reduce a draw to its sufficient statistics.

    Raises:
        DegenerateDrawError: if the estimated channel has zero norm.
    """
    norm_sq = np.vdot(draw.h_rd_hat, draw.h_rd_hat).real
    if norm_sq == 0.0:
        raise DegenerateDrawError("estimated relay->destination channel has zero norm")
    g_sr = np.vdot(draw.h_sr, draw.h_sr).real
    g_d = abs(np.vdot(draw.h_rd_hat, draw.h_rd)) ** 2 / norm_sq
    g_e = abs(np.vdot(draw.h_rd_hat, draw.h_re)) ** 2 / norm_sq
    return LinkStatistics(g_sr=float(g_sr), g_d=float(g_d), g_e=float(g_e))
