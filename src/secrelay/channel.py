"""Rayleigh channel sampling and the scalar statistics that drive every SNR.

Each small-scale vector entry is CN(0, 1): real and imaginary parts are
N(0, 1/2), so the per-entry power has unit mean.  The true relay->destination
channel is never sampled on its own; it is assembled from the estimate and
the error vector through the correlation coefficient.
"""
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .params import SystemParams

# Each trial starts 2**128 Philox blocks apart: far more head-room than any
# draw can consume, so per-trial substreams cannot overlap.
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
    """Deterministic substream for one trial.

    Derived counter-based from (seed, trial), so the draw for a given trial
    index is identical no matter how many trials run, or on which worker.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if trial < 0:
        raise ValueError(f"trial index must be >= 0, got {trial}")
    return np.random.Generator(
        np.random.Philox(key=seed, counter=trial << _TRIAL_STRIDE_BITS)
    )


def trial_streams(
    rng: np.random.Generator, trials: Iterable[int]
) -> Iterator[np.random.Generator]:
    """``rng`` moved onto the substream of each trial index in ``trials``, in order.

    ``rng`` comes from ``trial_rng(seed, k)`` with nothing drawn yet.  Before
    each trial its Philox is set to the state that ``trial_rng(seed, trial)``
    starts in, which costs far less than building a new Philox.  Every item
    is ``rng`` itself: use up one trial's draws before advancing to the next.

    Raises:
        ValueError: ``rng`` has been drawn from, or a trial index is negative.
    """
    bit_generator = rng.bit_generator
    state = bit_generator.state  # the seed's key and an empty output buffer
    if state["state"]["counter"][:2].any():  # a draw counts these words up
        raise ValueError("rng must come from trial_rng with nothing drawn yet")
    for trial in trials:
        if trial < 0:
            raise ValueError(f"trial index must be >= 0, got {trial}")
        counter = (trial << _TRIAL_STRIDE_BITS).to_bytes(32, "little")
        state["state"]["counter"] = np.frombuffer(counter, dtype="<u8")
        bit_generator.state = state
        yield rng


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
