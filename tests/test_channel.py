import math

import numpy as np
import pytest

from secrelay.channel import (
    ChannelDraw,
    DegenerateDrawError,
    draw_channels,
    link_statistics,
    trial_rng,
    trial_streams,
)
from secrelay.params import SystemParams

REFERENCE = SystemParams()  # n_r=100, rho=0.9
_FIELDS = ("h_sr", "h_rd_hat", "err", "h_rd", "h_re")


@pytest.fixture(scope="module")
def population():
    """10^4 draws at the reference setup, reduced once for all moment checks."""
    n_draws = 10_000
    entry_power = np.empty(n_draws)
    g = np.empty((n_draws, 3))
    for i in range(n_draws):
        draw = draw_channels(REFERENCE, trial_rng(seed=42, trial=i))
        entry_power[i] = np.mean(np.abs(draw.h_sr) ** 2)
        stats = link_statistics(draw)
        g[i] = (stats.g_sr, stats.g_d, stats.g_e)
    return entry_power, g


def test_rho_one_reproduces_the_estimate_exactly():
    draw = draw_channels(SystemParams(rho=1.0), trial_rng(1, 0))
    assert np.array_equal(draw.h_rd, draw.h_rd_hat)


def test_rho_zero_reproduces_the_error_exactly():
    draw = draw_channels(SystemParams(rho=0.0), trial_rng(1, 0))
    assert np.array_equal(draw.h_rd, draw.err)


def test_mixture_identity_holds_for_intermediate_rho():
    p = SystemParams(rho=0.37)
    draw = draw_channels(p, trial_rng(3, 5))
    expected = math.sqrt(0.37) * draw.h_rd_hat + math.sqrt(0.63) * draw.err
    assert np.array_equal(draw.h_rd, expected)


def test_same_seed_and_trial_is_bit_identical():
    a = draw_channels(REFERENCE, trial_rng(123, 7))
    b = draw_channels(REFERENCE, trial_rng(123, 7))
    for field in _FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_distinct_trials_and_seeds_differ():
    a = draw_channels(REFERENCE, trial_rng(123, 7))
    b = draw_channels(REFERENCE, trial_rng(123, 8))
    c = draw_channels(REFERENCE, trial_rng(124, 7))
    assert not np.array_equal(a.h_sr, b.h_sr)
    assert not np.array_equal(a.h_sr, c.h_sr)


def test_trial_rng_rejects_bad_inputs():
    with pytest.raises(ValueError):
        trial_rng(-1, 0)
    with pytest.raises(ValueError):
        trial_rng(2**64, 0)
    with pytest.raises(ValueError):
        trial_rng(0, -1)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_trial_streams_reposition_onto_each_trial_rng_substream(seed):
    trials = [0, 1, 2**40, 0]  # includes a jump back to an earlier trial
    for trial, rng in zip(trials, trial_streams(trial_rng(seed, 7), trials), strict=True):
        a = draw_channels(REFERENCE, rng)
        b = draw_channels(REFERENCE, trial_rng(seed, trial))
        for field in _FIELDS:
            assert np.array_equal(getattr(a, field), getattr(b, field))


def test_trial_streams_drop_what_the_previous_trial_left_buffered():
    streams = trial_streams(trial_rng(5, 0), [3, 3])
    rng = next(streams)
    rng.integers(2**32, dtype=np.uint32)  # half of a 64-bit word left pending
    rng.random(1)  # two of the four words of a Philox block left unread
    a = draw_channels(REFERENCE, next(streams))
    b = draw_channels(REFERENCE, trial_rng(5, 3))
    for field in _FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_trial_streams_reject_bad_inputs():
    with pytest.raises(ValueError):
        list(trial_streams(trial_rng(0, 0), [-1]))
    used = trial_rng(0, 0)
    used.standard_normal()
    with pytest.raises(ValueError):
        next(trial_streams(used, [0]))


def test_unit_scalar_statistics():
    draw = ChannelDraw(
        h_sr=np.array([1.0 + 0j]),
        h_rd_hat=np.array([1.0 + 0j]),
        err=np.array([0.0 + 0j]),
        h_rd=np.array([1.0 + 0j]),
        h_re=np.array([1j]),
    )
    stats = link_statistics(draw)
    assert stats.g_sr == 1.0
    assert stats.g_d == 1.0
    assert stats.g_e == 1.0


def test_zero_norm_estimate_is_rejected():
    zero = np.zeros(4, dtype=complex)
    ones = np.ones(4, dtype=complex)
    with pytest.raises(DegenerateDrawError):
        link_statistics(ChannelDraw(h_sr=ones, h_rd_hat=zero, err=ones, h_rd=ones, h_re=ones))


def test_entry_power_has_unit_mean(population):
    entry_power, _ = population
    assert 0.97 <= entry_power.mean() <= 1.03


def test_channel_hardening_of_g_sr(population):
    _, g = population
    assert 0.97 <= (g[:, 0] / REFERENCE.n_r).mean() <= 1.03


def test_beamforming_gain_concentrates_near_rho_n(population):
    _, g = population
    assert 0.87 <= (g[:, 1] / REFERENCE.n_r).mean() <= 0.93


def test_leakage_gain_is_unit_mean_exponential(population):
    _, g = population
    g_e = np.sort(g[:, 2])
    assert 0.97 <= g_e.mean() <= 1.03
    # Kolmogorov-Smirnov distance against Exp(1)
    n = g_e.size
    cdf = 1.0 - np.exp(-g_e)
    d_plus = np.max(np.arange(1, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0, n) / n)
    assert max(d_plus, d_minus) < 0.02


def test_statistics_are_nonnegative_and_finite(population):
    _, g = population
    assert np.all(np.isfinite(g))
    assert np.all(g >= 0.0)
