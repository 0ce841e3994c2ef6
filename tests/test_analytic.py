import math
import random
from dataclasses import replace

import numpy as np
import pytest

from secrelay.analytic import (
    Regime,
    Scheme,
    asymptotic_limit,
    eavesdropper_cdf_af,
    interception_probability_af,
    interception_probability_df,
    legit_capacity_af,
    legit_capacity_df,
    scheme_report,
    secrecy_outage_capacity_af,
    secrecy_outage_capacity_df,
)
from secrelay.params import SystemParams, from_decibel, validate

REFERENCE = SystemParams()  # 20 dB both powers, alphas 1, rho 0.9, n_r 100, eps 0.01

# Frozen expectations from an extended-precision evaluation of the closed forms.
AF_LEGIT_20DB = 122099.38491063574
AF_SOC_20DB = 34246.462614071947
DF_LEGIT_20DB = 131358.69576648522
DF_SOC_20DB = 42856.29538145964
P0_20DB = 8.1940126239905154e-40  # = exp(-90)
AF_LIMIT_EPS05 = 49089.443993937564
DF_LIMIT_PR30_EPS05 = 49084.789261742167


def random_valid_params(rng, n=20):
    """Moderate random parameter sets; exponents stay far from underflow."""
    out = []
    for _ in range(n):
        out.append(validate(SystemParams(
            p_s=10.0 ** rng.uniform(-1, 2),
            p_r=10.0 ** rng.uniform(-1, 2),
            alpha_sr=rng.uniform(0.5, 2.0),
            alpha_rd=rng.uniform(0.5, 2.0),
            alpha_re=rng.uniform(0.5, 2.0),
            rho=rng.uniform(0.1, 1.0),
            n_r=int(rng.integers(1, 30)),
            w_hz=10_000.0,
            epsilon=rng.uniform(0.001, 0.9),
        )))
    return out


def test_af_legit_capacity_matches_oracle():
    assert legit_capacity_af(REFERENCE) == pytest.approx(AF_LEGIT_20DB, rel=1e-12)


def test_af_legit_capacity_vanishes_without_power_or_csi():
    assert legit_capacity_af(replace(REFERENCE, p_s=0.0)) == 0.0
    assert legit_capacity_af(replace(REFERENCE, rho=0.0)) == 0.0


def test_af_secrecy_outage_capacity_matches_oracle():
    assert secrecy_outage_capacity_af(REFERENCE) == pytest.approx(AF_SOC_20DB, rel=1e-12)


def test_af_secrecy_outage_capacity_trivial_cases():
    full = replace(REFERENCE, epsilon=1.0)
    assert secrecy_outage_capacity_af(full) == legit_capacity_af(full)
    assert secrecy_outage_capacity_af(replace(REFERENCE, p_s=0.0)) == 0.0


def test_df_legit_capacity_matches_oracle():
    assert legit_capacity_df(REFERENCE) == pytest.approx(DF_LEGIT_20DB, rel=1e-12)
    assert legit_capacity_df(replace(REFERENCE, rho=0.0)) == 0.0


def test_df_legit_capacity_min_is_symmetric():
    # Swapping the two hop products leaves the min unchanged.
    a = SystemParams(p_s=90.0, p_r=50.0, alpha_sr=1.0, alpha_rd=1.0, rho=0.9)
    b = SystemParams(p_s=45.0, p_r=100.0, alpha_sr=1.0, alpha_rd=1.0, rho=0.9)
    assert a.p_s * a.alpha_sr == b.p_r * b.alpha_rd * b.rho
    assert a.p_r * a.alpha_rd * a.rho == b.p_s * b.alpha_sr
    assert legit_capacity_df(a) == legit_capacity_df(b)


def test_df_secrecy_outage_capacity_matches_oracle():
    assert secrecy_outage_capacity_df(REFERENCE) == pytest.approx(DF_SOC_20DB, rel=1e-12)


def test_df_secrecy_outage_capacity_trivial_cases():
    full = replace(REFERENCE, epsilon=1.0)
    assert secrecy_outage_capacity_df(full) == legit_capacity_df(full)
    # Overwhelming relay power floods the eavesdropper; the clamp engages.
    assert secrecy_outage_capacity_df(replace(REFERENCE, p_r=1e8)) == 0.0


def test_interception_probabilities_at_unit_scalars():
    p = SystemParams(p_s=1.0, p_r=1.0, rho=1.0, n_r=1)
    assert interception_probability_af(p) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert interception_probability_df(p) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_interception_probabilities_at_reference_setup():
    assert interception_probability_af(REFERENCE) == pytest.approx(P0_20DB, rel=1e-9)
    assert interception_probability_df(REFERENCE) == pytest.approx(P0_20DB, rel=1e-9)


def test_interception_zero_power_conventions():
    assert interception_probability_af(replace(REFERENCE, p_s=0.0)) == 1.0
    assert interception_probability_af(replace(REFERENCE, p_r=0.0)) == 1.0
    assert interception_probability_df(replace(REFERENCE, p_r=0.0)) == 0.0


def test_df_interception_saturates_at_huge_relay_power():
    assert interception_probability_df(replace(REFERENCE, p_r=1e12)) >= 0.999


def test_interception_is_bandwidth_independent():
    for w in (1.0, 123.0, 1e7):
        q = replace(REFERENCE, w_hz=w)
        assert interception_probability_af(q) == interception_probability_af(REFERENCE)
        assert interception_probability_df(q) == interception_probability_df(REFERENCE)


def test_soc_vanishes_when_epsilon_equals_interception_probability():
    rng = np.random.default_rng(11)
    for p in random_valid_params(rng, 10):
        p0_af = interception_probability_af(p)
        if 0.0 < p0_af < 1.0:
            assert abs(secrecy_outage_capacity_af(replace(p, epsilon=p0_af))) <= 1e-9
        p0_df = interception_probability_df(p)
        if 0.0 < p0_df < 1.0:
            assert abs(secrecy_outage_capacity_df(replace(p, epsilon=p0_df))) <= 1e-9


def test_soc_is_nondecreasing_in_epsilon():
    rng = np.random.default_rng(5)
    eps_grid = np.linspace(0.001, 1.0, 25)
    for p in random_valid_params(rng, 10):
        for soc in (secrecy_outage_capacity_af, secrecy_outage_capacity_df):
            values = [soc(replace(p, epsilon=e)) for e in eps_grid]
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_soc_is_nonincreasing_in_eavesdropper_gain():
    rng = np.random.default_rng(6)
    gain_grid = np.linspace(0.05, 5.0, 25)
    for p in random_valid_params(rng, 10):
        for soc in (secrecy_outage_capacity_af, secrecy_outage_capacity_df):
            values = [soc(replace(p, alpha_re=a)) for a in gain_grid]
            assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_scheme_report_invariants_over_random_params():
    rng = np.random.default_rng(12)
    for p in random_valid_params(rng, 20):
        for scheme in (Scheme.AF, Scheme.DF):
            report = scheme_report(scheme, p)
            assert report.c_soc >= 0.0
            assert report.c_soc <= report.c_d + 1e-9
            assert 0.0 <= report.p0 <= 1.0


def test_eavesdropper_cdf_anchors_and_domain():
    assert eavesdropper_cdf_af(0.0, REFERENCE) == 0.0
    bound = REFERENCE.p_s * REFERENCE.alpha_sr * REFERENCE.n_r
    assert eavesdropper_cdf_af(0.99 * bound, REFERENCE) > 0.999999
    for bad in (-1e-9, bound, bound * 1.5):
        with pytest.raises(ValueError):
            eavesdropper_cdf_af(bad, REFERENCE)
    with pytest.raises(ValueError):
        eavesdropper_cdf_af(1.0, replace(REFERENCE, p_r=0.0))


def test_eavesdropper_cdf_is_nondecreasing_with_probability_range():
    bound = REFERENCE.p_s * REFERENCE.alpha_sr * REFERENCE.n_r
    xs = np.linspace(0.0, 0.999 * bound, 400)
    values = [eavesdropper_cdf_af(x, REFERENCE) for x in xs]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)
    assert values[10] < 1.0


def test_eavesdropper_allowance_guard_catches_corrupt_epsilon():
    with pytest.raises(ArithmeticError):
        secrecy_outage_capacity_af(replace(REFERENCE, epsilon=1.5))


def test_eavesdropper_allowance_guard_catches_overflowing_powers():
    # A = p_s*alpha_sr*n_r overflows to inf, so c_d and c_soc are NaN, which
    # the one finiteness check of scheme_report turns into the typed error.
    p = replace(REFERENCE, p_s=1e307, p_r=10.0)
    assert math.isnan(secrecy_outage_capacity_af(p))
    with pytest.raises(ArithmeticError, match=r"AF c_d is not finite \(nan\)"):
        scheme_report(Scheme.AF, p)


def test_asymptotic_limits_match_the_high_power_table():
    p = replace(REFERENCE, epsilon=0.05)
    af_ps = asymptotic_limit(p, Regime.LARGE_SOURCE_POWER, Scheme.AF)
    assert af_ps.c_soc_limit == pytest.approx(AF_LIMIT_EPS05, rel=1e-12)
    assert af_ps.p0_limit == pytest.approx(P0_20DB, rel=1e-9)
    df_ps = asymptotic_limit(replace(p, p_r=1e3), "large-source-power", "DF")
    assert df_ps.c_soc_limit == pytest.approx(DF_LIMIT_PR30_EPS05, rel=1e-12)
    assert df_ps.p0_limit == pytest.approx(P0_20DB, rel=1e-9)
    # AF's interception probability is power-free, so its limit is the closed form's value.
    af_pr = asymptotic_limit(p, Regime.LARGE_RELAY_POWER, Scheme.AF)
    assert af_pr == (0.0, interception_probability_af(replace(p, p_r=1e300)))
    assert af_pr.p0_limit == pytest.approx(P0_20DB, rel=1e-9)
    assert asymptotic_limit(p, Regime.LARGE_RELAY_POWER, Scheme.DF) == (0.0, 1.0)


def test_asymptotic_limits_keep_the_zero_power_conventions():
    # A power held at zero fixes p0 at every value of the other one: AF 1.0
    # (no secrecy is possible), DF 0.0 at p_r = 0 (nothing is transmitted).
    p = replace(REFERENCE, epsilon=0.05)
    no_source, no_relay = replace(p, p_s=0.0), replace(p, p_r=0.0)
    assert asymptotic_limit(no_source, Regime.LARGE_RELAY_POWER, Scheme.AF).p0_limit == 1.0
    assert asymptotic_limit(no_relay, Regime.LARGE_SOURCE_POWER, Scheme.AF).p0_limit == 1.0
    assert asymptotic_limit(no_relay, Regime.LARGE_SOURCE_POWER, Scheme.DF).p0_limit == 0.0
    for big in (1e6, 1e300):
        assert interception_probability_af(replace(no_source, p_r=big)) == 1.0
        assert interception_probability_af(replace(no_relay, p_s=big)) == 1.0
        assert interception_probability_df(replace(no_relay, p_s=big)) == 0.0
    # The cases without a zero-power convention are unchanged.
    assert asymptotic_limit(no_source, Regime.LARGE_RELAY_POWER, Scheme.DF).p0_limit == 1.0
    assert asymptotic_limit(no_source, Regime.LARGE_SOURCE_POWER, Scheme.AF).p0_limit == (
        pytest.approx(P0_20DB, rel=1e-9))
    assert asymptotic_limit(no_relay, Regime.LARGE_RELAY_POWER, Scheme.AF).p0_limit == (
        pytest.approx(P0_20DB, rel=1e-9))


def test_asymptotic_limit_rejects_epsilon_one_at_large_source_power():
    with pytest.raises(ValueError):
        asymptotic_limit(replace(REFERENCE, epsilon=1.0), Regime.LARGE_SOURCE_POWER, Scheme.AF)


def test_asymptotic_limits_at_epsilon_one_cede_the_eavesdropper_nothing():
    # b = 0: c_soc is c_d, which tends to w*log2(1 + A) at large relay power
    # and, for DF, to w*log2(1 + aP) at large source power.
    p = replace(REFERENCE, epsilon=1.0)
    ceiling = p.w_hz * math.log2(1.0 + p.p_s * p.alpha_sr * p.n_r)
    for scheme in Scheme:
        limit = asymptotic_limit(p, Regime.LARGE_RELAY_POWER, scheme)
        assert limit.c_soc_limit == ceiling
    df = asymptotic_limit(p, Regime.LARGE_SOURCE_POWER, Scheme.DF).c_soc_limit
    assert df == p.w_hz * math.log2(1.0 + p.rho * p.n_r * p.alpha_rd * p.p_r)


def test_asymptotic_limit_collapses_without_csi():
    blind = replace(REFERENCE, rho=0.0, epsilon=0.05)
    limit = asymptotic_limit(blind, Regime.LARGE_SOURCE_POWER, Scheme.AF)
    assert limit.c_soc_limit == 0.0
    assert limit.p0_limit == 1.0


def test_high_source_power_reaches_the_shared_ceiling():
    p = SystemParams(p_s=1e8, p_r=1e3, epsilon=0.05)
    af = secrecy_outage_capacity_af(p)
    df = secrecy_outage_capacity_df(p)
    assert af == pytest.approx(AF_LIMIT_EPS05, rel=0.02)
    assert df == pytest.approx(AF_LIMIT_EPS05, rel=0.02)
    assert af == pytest.approx(df, rel=0.02)
    # Each scheme also lands on its own tabulated limit.
    assert af == pytest.approx(
        asymptotic_limit(p, Regime.LARGE_SOURCE_POWER, Scheme.AF).c_soc_limit, rel=0.02
    )
    assert df == pytest.approx(
        asymptotic_limit(p, Regime.LARGE_SOURCE_POWER, Scheme.DF).c_soc_limit, rel=0.02
    )


def test_high_relay_power_collapses_both_schemes():
    p = SystemParams(p_s=10.0, p_r=1e8, epsilon=0.05)
    assert secrecy_outage_capacity_af(p) <= 100.0
    assert secrecy_outage_capacity_df(p) <= 100.0


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _same(x, y):
    if isinstance(x, float) and isinstance(y, float):
        if math.isnan(x) or math.isnan(y):
            return math.isnan(x) and math.isnan(y)
        return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
    return x == y


def test_power_keywords_equal_a_replaced_record():
    # The decision searches pass the swept power as a keyword instead of
    # copying the record; that must not move a single bit, nor an error.
    rng = random.Random(20261019)
    powers = (0.0, 1e-300, 1.0, from_decibel(2000.0), from_decibel(3070.0), 1e308)
    seen = set()
    for _ in range(300):
        template = validate(SystemParams(
            p_s=rng.choice((*powers, 10.0 ** rng.uniform(-5, 8))),
            p_r=rng.choice((*powers, 10.0 ** rng.uniform(-5, 8))),
            alpha_sr=10.0 ** rng.uniform(-2, 2),
            alpha_rd=10.0 ** rng.uniform(-2, 2),
            alpha_re=rng.choice((1e-300, 1e-12, 10.0 ** rng.uniform(-2, 2))),
            rho=rng.choice((0.0, 1.0, rng.random())),
            n_r=rng.choice((1, 2, 100, rng.randint(1, 1000))),
            epsilon=rng.choice((1.0, 1e-300, rng.uniform(1e-4, 1.0))),
        ))
        for x in (*powers, 10.0 ** rng.uniform(-5, 8)):
            for fields in ({"p_s": x}, {"p_r": x}, {"p_s": x, "p_r": x}):
                for soc in (secrecy_outage_capacity_af, secrecy_outage_capacity_df):
                    got = _outcome(soc, template, **fields)
                    want = _outcome(soc, replace(template, **fields))
                    assert _same(got, want), (soc.__name__, template, fields, got, want)
                    if isinstance(got, float):
                        seen.add("nan" if math.isnan(got) else "zero" if got == 0.0 else "positive")
    assert {"nan", "zero", "positive"} <= seen
