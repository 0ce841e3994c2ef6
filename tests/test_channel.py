import math

import numpy as np
import pytest

from secrelay.channel import (
    ChannelDraw,
    DegenerateDrawError,
    draw_channels,
    link_statistics,
    to_substream,
    trial_rng,
)
from secrelay.montecarlo import _collect_statistics
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


@pytest.mark.parametrize("seed", [0, 123, 2**64 - 1])
def test_a_generator_moved_to_a_substream_draws_as_a_new_one(seed):
    # Three 32-bit draws leave half a word and part of a block buffered;
    # the move must drop both, whatever substream the generator was on.
    rng = trial_rng(seed, 0)
    for trial in (5, 1, 2**64 + 3, 0):
        rng.integers(0, 2**32, size=3, dtype=np.uint32)
        moved, fresh = to_substream(rng, seed, trial), trial_rng(seed, trial)
        assert moved is rng
        assert np.array_equal(moved.integers(0, 2**32, size=5, dtype=np.uint32),
                              fresh.integers(0, 2**32, size=5, dtype=np.uint32))
        assert np.array_equal(moved.standard_normal(7), fresh.standard_normal(7))


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


def _ks_two_sample(a, b):
    """Largest gap between the empirical CDFs of ``a`` and ``b``."""
    a, b = np.sort(a), np.sort(b)
    x = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, x, side="right") / a.size
    cdf_b = np.searchsorted(b, x, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def test_exact_law_sampler_matches_the_per_trial_reference(population):
    # Two-sample Kolmogorov-Smirnov at the 0.1% level, per statistic.
    _, g = population
    fast = _collect_statistics(REFERENCE, g.shape[0], 42)
    bound = 1.95 * math.sqrt(2.0 / g.shape[0])
    for column, sample in enumerate(fast):
        assert _ks_two_sample(sample, g[:, column]) < bound
