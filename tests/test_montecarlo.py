import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from secrelay.analytic import (
    Scheme,
    legit_capacity_af,
    legit_capacity_df,
    secrecy_outage_capacity_af,
    secrecy_outage_capacity_df,
)
from secrelay.channel import LinkStatistics
from secrelay.montecarlo import (
    InsufficientSampleError,
    _binom_ppf,
    _collect_statistics,
    af_realization_rates,
    df_realization_rates,
    empirical_quantile,
    estimate,
    estimate_schemes,
)
from secrelay.params import SystemParams, from_decibel, validate
from secrelay.sweep import parse_config, run_sweep

REFERENCE = SystemParams()
SEED = 42


@pytest.fixture(scope="module")
def paper_estimates():
    af = estimate("AF", REFERENCE, 10_000, SEED)
    df = estimate("DF", REFERENCE, 10_000, SEED)
    return af, df


def stats(g_sr, g_d, g_e):
    return LinkStatistics(g_sr=g_sr, g_d=g_d, g_e=g_e)


def test_rates_vanish_without_first_hop_signal():
    for rates in (af_realization_rates, df_realization_rates):
        pair = rates(stats(0.0, 3.0, 1.5), REFERENCE)
        assert pair.c_d == 0.0
        assert pair.c_e == 0.0


def test_af_rates_are_equal_for_symmetric_links():
    p = replace(REFERENCE, alpha_rd=0.8, alpha_re=0.8)
    pair = af_realization_rates(stats(100.0, 2.7, 2.7), p)
    assert pair.c_d == pair.c_e


def test_af_rates_match_hand_evaluation():
    # a=d=1e4, b=e=100, c=100 at the reference setup
    s = stats(100.0, 90.0, 1.0)
    pair = af_realization_rates(s, REFERENCE)
    snr_d = 1e4 * 90.0 * 100.0 / (100 * 90.0 + 100 * 100.0 + 1.0)
    snr_e = 1e4 * 1.0 * 100.0 / (100 * 1.0 + 100 * 100.0 + 1.0)
    assert pair.c_d == pytest.approx(1e4 * math.log2(1 + snr_d), rel=1e-12)
    assert pair.c_e == pytest.approx(1e4 * math.log2(1 + snr_e), rel=1e-12)


def test_df_eavesdropper_rate_saturates_at_the_first_hop():
    # p_r*alpha_re*g_e >= p_s*alpha_sr*g_sr pins c_e to the first hop.
    p = replace(REFERENCE, p_s=1.0, p_r=100.0)
    s = stats(5.0, 90.0, 2.0)
    pair = df_realization_rates(s, p)
    assert pair.c_e == pytest.approx(p.w_hz * math.log2(1.0 + 5.0), rel=1e-12)


def test_df_rates_take_the_weaker_hop():
    p = replace(REFERENCE, p_s=10.0, p_r=1.0)
    s = stats(50.0, 3.0, 0.5)
    pair = df_realization_rates(s, p)
    assert pair.c_d == pytest.approx(p.w_hz * math.log2(1.0 + 3.0), rel=1e-12)
    assert pair.c_e == pytest.approx(p.w_hz * math.log2(1.0 + 0.5), rel=1e-12)


def test_empirical_quantile_is_the_lower_order_statistic():
    samples = list(range(1, 101))
    assert empirical_quantile(samples, 0.05) == 5.0
    assert empirical_quantile(samples, 1.0) == 100.0
    assert empirical_quantile(samples, 1e-9) == 1.0


def test_empirical_quantile_of_constant_samples():
    for eps in (0.01, 0.5, 1.0):
        assert empirical_quantile([3.25] * 17, eps) == 3.25


def test_empirical_quantile_rejects_bad_inputs():
    with pytest.raises(ValueError):
        empirical_quantile([], 0.5)
    for eps in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            empirical_quantile([1.0], eps)


def test_empirical_quantile_median_of_exponential():
    rng = np.random.default_rng(2024)
    x = rng.exponential(1.0, size=10_000)
    assert 0.66 <= empirical_quantile(x, 0.5) <= 0.72  # true median ln 2


def test_quantile_consistency_property():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(1, 200))
        x = rng.choice([0.0, 1.0, 2.5, -3.0, 7.0], size=n)  # heavy ties
        eps = float(rng.uniform(0.001, 1.0))
        q = empirical_quantile(x, eps)
        k = max(1, math.ceil(eps * n))
        assert np.count_nonzero(x < q) <= k
        assert np.count_nonzero(x <= q) >= k


def test_estimate_is_reproducible(paper_estimates):
    af, _ = paper_estimates
    again = estimate("AF", REFERENCE, 10_000, SEED)
    assert again == af


def test_estimate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        estimate("AF", REFERENCE, 0, SEED)
    with pytest.raises(InsufficientSampleError):
        estimate("AF", REFERENCE, 50, SEED)
    with pytest.raises(InsufficientSampleError):
        estimate("AF", replace(REFERENCE, epsilon=0.001), 500, SEED)  # eps*trials < 1
    with pytest.raises(ValueError):
        estimate("AF", REFERENCE, 1000, 2**64)
    with pytest.raises(ValueError):
        estimate("XX", REFERENCE, 1000, SEED)


@pytest.mark.parametrize("order", [("AF", "DF"), ("DF", "AF")])
def test_estimate_schemes_equals_separate_estimates(order):
    p = replace(REFERENCE, n_r=8, alpha_re=3.0, epsilon=0.2)  # c_soc, p0 > 0 in both
    joint = estimate_schemes(order, p, 1000, 2**64 - 1)
    assert list(joint) == [Scheme(s) for s in order]
    for scheme, est in joint.items():
        alone = estimate(scheme, p, 1000, 2**64 - 1)
        assert est.c_soc == alone.c_soc
        assert est.p0 == alone.p0
        assert est.c_soc.value > 0.0 and est.p0.value > 0.0


def test_estimate_schemes_rejects_what_estimate_rejects():
    both = ("AF", "DF")
    with pytest.raises(ValueError):
        estimate_schemes(both, REFERENCE, 0, SEED)
    with pytest.raises(InsufficientSampleError):
        estimate_schemes(both, REFERENCE, 50, SEED)
    with pytest.raises(InsufficientSampleError):
        estimate_schemes(both, replace(REFERENCE, epsilon=0.001), 500, SEED)
    with pytest.raises(ValueError):
        estimate_schemes(both, REFERENCE, 1000, 2**64)
    with pytest.raises(ValueError):
        estimate_schemes(("AF", "XX"), REFERENCE, 1000, SEED)
    with pytest.raises(ValueError):
        estimate_schemes((), REFERENCE, 1000, SEED)


def test_sweep_draws_each_row_and_trial_once(monkeypatch):
    import secrelay.montecarlo as montecarlo

    real_collect, calls = montecarlo._collect_statistics, []

    def counting_collect(params, trials, seed):
        calls.append(trials)
        return real_collect(params, trials, seed)

    monkeypatch.setattr(montecarlo, "_collect_statistics", counting_collect)
    doc = {"variable": "alpha-re", "grid": [0.5, 1.0, 2.0], "schemes": ["AF", "DF"],
           "mode": "both", "trials": 200, "seed": 3}
    rows = run_sweep(parse_config(json.dumps(doc)))
    assert calls == [200] * len(rows)  # not once per scheme


def test_a_collection_is_a_prefix_of_any_longer_one():
    p = replace(REFERENCE, rho=0.37)
    short = _collect_statistics(p, 200, 2**64 - 1)
    long = _collect_statistics(p, 1000, 2**64 - 1)
    for a, b in zip(short, long, strict=True):
        assert np.array_equal(a, b[:200])


OVERFLOW = validate(replace(REFERENCE, p_s=from_decibel(2000.0), p_r=from_decibel(2000.0)))


def test_non_finite_rates_are_a_numeric_error():
    # The AF per-draw SNR is inf/inf there; DF stays finite and is still returned.
    with pytest.raises(ArithmeticError, match="AF Monte Carlo rates are not finite"):
        estimate("AF", OVERFLOW, 1000, 1)
    df = estimate("DF", OVERFLOW, 1000, 1)
    assert math.isfinite(df.c_soc.value) and df.c_soc.value > 0.0
    for order in (("AF", "DF"), ("DF", "AF")):
        with pytest.raises(ArithmeticError, match="AF Monte Carlo rates are not finite"):
            estimate_schemes(order, OVERFLOW, 1000, 1)


def test_estimates_track_the_closed_forms(paper_estimates):
    af, df = paper_estimates
    assert af.c_soc.value == pytest.approx(secrecy_outage_capacity_af(REFERENCE), rel=0.03)
    assert df.c_soc.value == pytest.approx(secrecy_outage_capacity_df(REFERENCE), rel=0.03)
    assert af.c_soc.std_error > 0.0
    assert af.c_soc.trials == 10_000 and af.c_soc.seed == SEED


def test_interception_is_never_observed_at_the_reference_point(paper_estimates):
    af, df = paper_estimates
    assert af.p0.value == 0.0
    assert df.p0.value == 0.0


def test_df_interception_frequency_at_strong_relay():
    p = replace(REFERENCE, p_s=10.0, p_r=1e4, epsilon=0.05)
    df = estimate("DF", p, 10_000, SEED)
    assert df.p0.value > 0.9
    assert df.p0.std_error == pytest.approx(
        math.sqrt(df.p0.value * (1 - df.p0.value) / 10_000)
    )


def test_doubling_trials_is_stochastically_stable():
    a = estimate("AF", REFERENCE, 4_000, SEED)
    b = estimate("AF", REFERENCE, 8_000, SEED)
    combined = math.hypot(a.c_soc.std_error, b.c_soc.std_error)
    assert abs(a.c_soc.value - b.c_soc.value) <= 3.0 * combined


def test_estimate_scales_linearly_with_bandwidth():
    narrow = estimate("AF", REFERENCE, 1_000, SEED)
    wide = estimate("AF", replace(REFERENCE, w_hz=2.0 * REFERENCE.w_hz), 1_000, SEED)
    assert wide.c_soc.value == 2.0 * narrow.c_soc.value
    assert wide.c_soc.std_error == 2.0 * narrow.c_soc.std_error
    assert wide.p0.value == narrow.p0.value


def _scipy_quantiles():
    # (n, eps, q, k) rows pinned once from scipy.stats.binom.ppf
    path = Path(__file__).with_name("binom_ppf_table.csv")
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "n,eps,q,k"
    return [(int(n), float(e), float(q), int(k)) for n, e, q, k in (ln.split(",") for ln in lines[1:])]


def test_binomial_quantile_matches_the_pinned_scipy_table():
    rows = _scipy_quantiles()
    assert len(rows) == 100
    assert any(eps == 1.0 for _, eps, _, _ in rows)
    assert any(eps * n == 1.0 for n, eps, _, _ in rows)
    mismatches = [(n, eps, q, k, _binom_ppf(q, n, eps)) for n, eps, q, k in rows
                  if _binom_ppf(q, n, eps) != k]
    assert mismatches == []


def test_importing_the_cli_loads_no_scipy():
    code = ("import sys, secrelay.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_mean_per_draw_capacity_hardens_to_the_closed_form():
    from secrelay.channel import draw_channels, link_statistics, trial_rng

    n_draws = 4_000
    c_d_af = np.empty(n_draws)
    c_d_df = np.empty(n_draws)
    for i in range(n_draws):
        s = link_statistics(draw_channels(REFERENCE, trial_rng(SEED, i)))
        c_d_af[i] = af_realization_rates(s, REFERENCE).c_d
        c_d_df[i] = df_realization_rates(s, REFERENCE).c_d
    assert c_d_af.mean() == pytest.approx(legit_capacity_af(REFERENCE), rel=0.01)
    assert c_d_df.mean() == pytest.approx(legit_capacity_df(REFERENCE), rel=0.01)
