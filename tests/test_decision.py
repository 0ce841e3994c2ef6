import itertools
import math
from dataclasses import replace

import pytest

from secrelay.analytic import Scheme, secrecy_outage_capacity_af
from secrelay.decision import (
    DB_TOL,
    Criterion,
    NoOptimumError,
    compare_schemes,
    find_switching_point,
    optimal_relay_power,
)
from secrelay.params import SystemParams, from_decibel

from reference_search import reference_relay_power

REFERENCE = SystemParams()

# Frozen expectations from an extended-precision evaluation.
DELTA_20DB = -8609.8327673876934
AF_OPT_DB = 2.8484428492327585     # argmax over [-20, 80] dB, p_s=10 dB, eps=0.05
AF_OPT_SOC = 44645.344631421116


def test_compare_at_reference_point_recommends_df():
    verdict = compare_schemes(REFERENCE, Criterion.CAPACITY)
    assert verdict.delta_c_soc == pytest.approx(DELTA_20DB, rel=1e-12)
    assert verdict.recommended is Scheme.DF


def test_compare_near_tie_at_high_source_power_prefers_af():
    p = SystemParams(p_s=from_decibel(80), p_r=from_decibel(30), epsilon=0.05)
    verdict = compare_schemes(p, "capacity")
    af = secrecy_outage_capacity_af(p)
    assert abs(verdict.delta_c_soc) <= 0.02 * af
    assert verdict.recommended is Scheme.AF


def test_compare_interception_at_huge_relay_power_prefers_af():
    p = replace(REFERENCE, p_s=10.0, p_r=from_decibel(80))
    verdict = compare_schemes(p, Criterion.INTERCEPTION)
    assert verdict.delta_p0 == pytest.approx(-1.0, abs=1e-3)
    assert verdict.recommended is Scheme.AF


def test_delta_is_the_literal_difference_of_the_closed_forms():
    from secrelay.analytic import secrecy_outage_capacity_df

    for p in (REFERENCE, replace(REFERENCE, alpha_re=2.0, epsilon=0.05)):
        verdict = compare_schemes(p)
        expected = secrecy_outage_capacity_af(p) - secrecy_outage_capacity_df(p)
        assert verdict.delta_c_soc == expected


@pytest.mark.parametrize("criterion", list(Criterion))
def test_compare_with_overflowing_powers_is_a_numeric_error(criterion):
    # At p_r 3070 dB a*p_r overflows: the AF closed forms are NaN, and every
    # NaN comparison is false, so an unchecked verdict would quietly pick DF.
    p = replace(REFERENCE, p_s=from_decibel(2000.0), p_r=from_decibel(3070.0))
    with pytest.raises(ArithmeticError, match="AF c_soc is not finite"):
        compare_schemes(p, criterion)


def test_compare_where_every_coefficient_is_finite_matches_the_exact_capacities():
    # At 3060 dB on both powers A = 1e308 and aP = 9e307 are finite, but
    # 1 + aP + A is not: the AF capacity must still be the exact one, not an
    # overflowed -inf clamped to 0.  Expectations from a 60-digit evaluation.
    p = replace(REFERENCE, p_s=1e306, p_r=1e306)
    verdict = compare_schemes(p, Criterion.CAPACITY)
    assert secrecy_outage_capacity_af(p) == pytest.approx(34275.533646638345, rel=1e-12)
    assert verdict.delta_c_soc == pytest.approx(-8610.4525896611848, rel=1e-12)
    assert verdict.recommended is Scheme.DF


SWITCH_TEMPLATE = replace(REFERENCE, p_r=10.0, epsilon=0.05)


def test_switching_point_exists_on_the_source_power_axis():
    crossings = find_switching_point(SWITCH_TEMPLATE, "source-power", -10.0, 40.0)
    assert len(crossings) >= 1
    assert crossings == sorted(crossings)


def test_switching_point_flips_sign_within_tolerance():
    # Checked on the capacities themselves, not on the root's formula.
    from secrelay.analytic import secrecy_outage_capacity_df

    for axis, field, fixed in (
        ("source-power", "p_s", SWITCH_TEMPLATE),
        ("relay-power", "p_r", replace(SWITCH_TEMPLATE, p_s=from_decibel(20.0))),
    ):
        def gap(db):
            p = replace(fixed, **{field: from_decibel(db)})
            return secrecy_outage_capacity_af(p) - secrecy_outage_capacity_df(p)

        crossings = find_switching_point(fixed, axis, -10.0, 40.0)
        assert len(crossings) == 1, axis
        for x in crossings:
            assert gap(x - DB_TOL) * gap(x + DB_TOL) < 0.0, (axis, x)


@pytest.mark.parametrize("p_s_db,lo_db,hi_db", [(150.0, -10.0, 80.0), (2000.0, -10.0, 80.0),
                                               (10.0, -200.0, 10.0)])
def test_rounding_noise_in_the_gap_is_no_crossing(p_s_db, lo_db, hi_db):
    # Rounding noise flips the sign of the AF-DF gap across these brackets,
    # but the relay-axis root lies above each (17.85 dB at p_s 10 dB).
    template = replace(REFERENCE, p_s=from_decibel(p_s_db), epsilon=0.05)
    assert find_switching_point(template, "relay-power", lo_db, hi_db) == []


@pytest.mark.parametrize("axis,template", [
    ("relay-power", replace(SWITCH_TEMPLATE, p_s=0.0)),
    ("source-power", replace(SWITCH_TEMPLATE, p_r=0.0)),
    ("source-power", replace(SWITCH_TEMPLATE, epsilon=1.0)),
    ("relay-power", replace(SWITCH_TEMPLATE, epsilon=1.0)),
], ids=["zero-p_s", "zero-p_r", "unit-eps-source", "unit-eps-relay"])
def test_zero_fixed_power_or_unit_epsilon_has_no_switching_point(axis, template):
    assert find_switching_point(template, axis, -10.0, 40.0) == []


def test_identical_schemes_have_no_switching_point():
    # rho*n_r*alpha_rd <= alpha_re*ln(1/eps) zeroes both closed forms at every
    # power, so the AF-DF gap is identically zero across the bracket.
    from secrelay.analytic import secrecy_outage_capacity_df

    hopeless = replace(SWITCH_TEMPLATE, alpha_re=1e6)
    for db in range(-10, 41):
        p = replace(hopeless, p_s=from_decibel(db))
        assert secrecy_outage_capacity_af(p) == 0.0 == secrecy_outage_capacity_df(p)
    assert find_switching_point(hopeless, "source-power", -10.0, 40.0) == []


def test_switching_point_rejects_invalid_bracket():
    with pytest.raises(ValueError):
        find_switching_point(SWITCH_TEMPLATE, "source-power", 10.0, 10.0)
    with pytest.raises(ValueError):
        find_switching_point(SWITCH_TEMPLATE, "relay-power", 5.0, -5.0)


OPT_TEMPLATE = replace(REFERENCE, p_s=10.0, epsilon=0.05)


def test_optimal_relay_power_finds_the_interior_maximum():
    opt = optimal_relay_power(OPT_TEMPLATE, -20.0, 80.0, Scheme.AF)
    assert -20.0 < opt.p_r_opt_db < 80.0
    assert opt.p_r_opt_db == pytest.approx(AF_OPT_DB, abs=2e-3)
    assert opt.c_soc_opt == pytest.approx(AF_OPT_SOC, rel=1e-9)
    lo = secrecy_outage_capacity_af(replace(OPT_TEMPLATE, p_r=from_decibel(-20)))
    hi = secrecy_outage_capacity_af(replace(OPT_TEMPLATE, p_r=from_decibel(80)))
    assert opt.c_soc_opt > lo
    assert opt.c_soc_opt > hi


def test_af_optimum_matches_the_closed_form_argmax():
    # The AF secrecy outage capacity is w*log2 of
    # (aP + 1)(bP + A + 1) / ((aP + A + 1)(bP + 1)) with P = p_r,
    # A = p_s*alpha_sr*n_r, a = rho*n_r*alpha_rd, b = alpha_re*ln(1/eps);
    # its only stationary point is P* = sqrt((A + 1)/(a*b)) (derivation in
    # test_acceptance.af_optimal_relay_power_db).
    checked = 0
    misses = []
    for p_s_db, eps, n_r, rho, alpha_re in itertools.product(
        (0.0, 10.0, 20.0), (0.01, 0.05, 0.1), (50, 100, 400), (0.5, 0.9), (0.5, 1.0, 2.0)
    ):
        p = replace(REFERENCE, p_s=from_decibel(p_s_db), epsilon=eps, n_r=n_r,
                    rho=rho, alpha_re=alpha_re)
        big_a = p.p_s * p.alpha_sr * p.n_r
        a = p.rho * p.n_r * p.alpha_rd
        b = p.alpha_re * math.log(1.0 / p.epsilon)
        star_db = 10.0 * math.log10(math.sqrt((big_a + 1.0) / (a * b)))
        if not -20.0 <= star_db <= 80.0:
            continue
        opt = optimal_relay_power(p, -20.0, 80.0, Scheme.AF)
        # The reference search assumes nothing of the capacity's shape.
        ref = reference_relay_power(p, -20.0, 80.0, Scheme.AF)
        checked += 1
        if (abs(opt.p_r_opt_db - star_db) > DB_TOL or abs(ref.p_r_opt_db - star_db) > DB_TOL
                or opt.c_soc_opt < ref.c_soc_opt * (1.0 - 1e-9)):
            misses.append((p, opt, ref, star_db))
    assert checked > 0
    assert not misses


def test_optimum_is_never_worse_than_a_grid_scan():
    for scheme in (Scheme.AF, Scheme.DF):
        opt = optimal_relay_power(OPT_TEMPLATE, -20.0, 80.0, scheme)
        from secrelay.analytic import secrecy_outage_capacity_df

        soc = (secrecy_outage_capacity_af if scheme is Scheme.AF
               else secrecy_outage_capacity_df)
        db = -20.0
        best = 0.0
        while db <= 80.0:
            best = max(best, soc(replace(OPT_TEMPLATE, p_r=from_decibel(db))))
            db += 0.1
        assert opt.c_soc_opt >= best * (1.0 - 1e-6)


def test_df_falls_below_af_beyond_its_optimum():
    from secrelay.analytic import secrecy_outage_capacity_df

    for db in (30.0, 40.0, 50.0):
        p = replace(OPT_TEMPLATE, p_r=from_decibel(db))
        assert secrecy_outage_capacity_df(p) < secrecy_outage_capacity_af(p)


def test_optimal_relay_power_error_cases():
    with pytest.raises(ValueError):
        optimal_relay_power(OPT_TEMPLATE, 10.0, -10.0, Scheme.AF)
    hopeless = replace(OPT_TEMPLATE, alpha_re=1e6)  # eavesdropper overwhelms everywhere
    with pytest.raises(NoOptimumError):
        optimal_relay_power(hopeless, -20.0, 20.0, Scheme.DF)


def test_df_has_no_optimum_on_a_bracket_beyond_a_over_b():
    # DF's capacity w*log2[(1 + min(A, aP))/(1 + bP)] is zero from P = A/b
    # on: 10*log10(1000/ln 20) = 25.2 dB here.  Its kink, A/a = 11.0 dB,
    # is clipped to the low end of the bracket.
    for optimizer in (optimal_relay_power, reference_relay_power):
        with pytest.raises(NoOptimumError):
            optimizer(OPT_TEMPLATE, 25.3, 80.0, Scheme.DF)
    assert optimal_relay_power(OPT_TEMPLATE, 25.1, 80.0, Scheme.DF).p_r_opt_db == 25.1


def test_af_has_no_optimum_where_the_eavesdropper_gain_dominates():
    # a = rho*n_r*alpha_rd = 1e8 < b = alpha_re*ln(1/eps) = 3.0e9, so the AF
    # capacity is zero at every relay power: exactly, as c_d and c_e round
    # monotonically in aP <= bP, so the reference scan finds no rounding noise.
    p = replace(REFERENCE, p_s=1.0, alpha_sr=1e-3, alpha_rd=1e5, alpha_re=1e9, rho=1.0,
                n_r=1000, epsilon=0.05)
    for optimizer in (optimal_relay_power, reference_relay_power):
        with pytest.raises(NoOptimumError):
            optimizer(p, 60.0, 90.0, Scheme.AF)
