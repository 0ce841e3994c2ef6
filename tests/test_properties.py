"""Property tests of the closed forms, the Monte Carlo estimates, the
AF/DF switching point and the relay-power optimum over the validated
parameter domain, of the closed forms' high-power limits, of the parameter
keys of a sweep config, and of the exit codes of ``secrelay point`` in and
out of it."""
import contextlib
import io
import json
import math
from dataclasses import asdict, fields, replace
from decimal import Decimal, localcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secrelay.analytic import (
    Regime,
    Scheme,
    asymptotic_limit,
    coefficients,
    scheme_report,
    secrecy_outage_capacity_af,
    secrecy_outage_capacity_df,
)
from secrelay.cli import main
from secrelay.decision import NoOptimumError, PowerAxis, find_switching_point, optimal_relay_power
from secrelay.montecarlo import InsufficientSampleError, estimate_schemes
from secrelay.params import SystemParams, from_decibel, validate
from secrelay.sweep import ConfigError, parse_config

from reference_search import reference_relay_power


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda x: 10.0 ** x)


POWER = st.one_of(st.just(0.0), log_uniform(-100, 100))
ALPHA = log_uniform(-6, 6)
UNIT = st.floats(0.0, 1.0)


@st.composite
def valid_params(draw, power=POWER, alpha=ALPHA, max_n_r=10_000):
    return validate(SystemParams(
        p_s=draw(power),
        p_r=draw(power),
        alpha_sr=draw(alpha),
        alpha_rd=draw(alpha),
        alpha_re=draw(alpha),
        rho=draw(st.one_of(st.sampled_from((0.0, 1.0)), UNIT)),
        n_r=draw(st.integers(1, max_n_r)),
        w_hz=draw(log_uniform(0, 7)),
        epsilon=draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))),
    ))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(valid_params(), st.sampled_from(Scheme))
def test_scheme_report_is_finite_and_in_range_over_the_validated_domain(params, scheme):
    report = scheme_report(scheme, params)
    assert 0.0 <= report.c_soc <= report.c_d
    assert math.isfinite(report.c_d)
    assert 0.0 <= report.p0 <= 1.0


# Powers up to 3000 dB with alphas in [1e-2, 1e2] and n_r <= 1000 keep A, aP
# and bP finite, so every closed form is finite there.
def wide_params():
    return valid_params(st.one_of(st.just(0.0), log_uniform(-100, 300)), log_uniform(-2, 2), 1000)


# Far below the closed forms' rounding at these magnitudes (< w*1e-12).
TOL = 1e-9


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(wide_params(), st.sampled_from(Scheme))
def test_closed_forms_are_finite_up_to_3000_db(params, scheme):
    report = scheme_report(scheme, params)  # raises on a figure that is not finite
    assert 0.0 <= report.c_soc <= report.c_d
    assert 0.0 <= report.p0 <= 1.0
    if scheme is Scheme.AF and params.epsilon == 1.0:
        assert report.c_soc == report.c_d


def _exact_report(scheme, params):
    """The closed forms of analytic in 60-digit decimal arithmetic, where no
    product or sum of the powers overflows."""
    with localcontext() as ctx:
        ctx.prec = 60
        d = {f.name: Decimal(getattr(params, f.name)) for f in fields(params)}
        big_a = d["p_s"] * d["alpha_sr"] * d["n_r"]
        a, b, p = d["rho"] * d["n_r"] * d["alpha_rd"], -d["alpha_re"] * d["epsilon"].ln(), d["p_r"]

        def capacity(snr):
            return d["w_hz"] * (1 + snr).ln() / Decimal(2).ln()

        if scheme is Scheme.AF:
            c_d, c_e = (capacity(x * big_a / (1 + x + big_a)) for x in (a * p, b * p))
            p0 = 1 if 0 in (p, d["p_s"]) else (-a / d["alpha_re"]).exp()
        else:
            c_d, c_e = capacity(min(big_a, a * p)), capacity(b * p)
            p0 = 0 if p == 0 else (-min(big_a, a * p) / (p * d["alpha_re"])).exp()
        return float(c_d), float(c_e), float(max(c_d - c_e, 0)), float(p0)


# Powers up to the largest float, so that A, aP, bP and the sums of them
# overflow in turn.
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@example(SystemParams(p_s=1e306, p_r=1e306), Scheme.AF)  # 1 + aP + A overflows
@example(SystemParams(p_s=1e306, p_r=1e307, alpha_re=100.0), Scheme.DF)  # P*alpha_re overflows
@given(valid_params(st.one_of(st.just(0.0), log_uniform(-100, 308.25))), st.sampled_from(Scheme))
def test_closed_forms_are_exact_or_a_typed_error_up_to_the_float_range(params, scheme):
    # A finite figure is the exact one, to rounding; an error needs a
    # coefficient that itself overflows.
    try:
        report = scheme_report(scheme, params)
    except ArithmeticError:
        big_a, a, b = coefficients(params)
        assert math.inf in (big_a, a * params.p_r, b * params.p_r)
        return
    c_d, c_e, c_soc, p0 = _exact_report(scheme, params)
    tol = 1e-12 * max(c_d, c_e) + 1e-15 * params.w_hz
    assert abs(report.c_d - c_d) <= tol
    assert abs(report.c_soc - c_soc) <= tol
    assert abs(report.p0 - p0) <= 1e-11 * p0 + 1e-300


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(wide_params())
def test_capacities_approach_their_large_relay_power_limits(params):
    # Both capacities sit within w*log2(1 + A/(1 + cP)) of their limit, with
    # c = b (c = a at epsilon = 1, where the limit is w*log2(1 + A)); DF's
    # interception probability within A/(P*alpha_re) of 1.  Both bounds
    # vanish as P = p_r grows (c = 0 only where c_soc and its limit are 0).
    big_a, a, b = coefficients(params)
    c = b or a
    w = params.w_hz
    for scheme in Scheme:
        limit = asymptotic_limit(params, Regime.LARGE_RELAY_POWER, scheme)
        for k in range(0, 301, 20):
            p = replace(params, p_r=10.0 ** k)
            report = scheme_report(scheme, p)
            gap = w * math.log2(1.0 + big_a / (1.0 + c * p.p_r))
            assert abs(report.c_soc - limit.c_soc_limit) <= gap + TOL * w, (scheme, k)
            if scheme is Scheme.DF:
                assert 1.0 - report.p0 <= big_a / (p.p_r * p.alpha_re) + 1e-15, k


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(wide_params())
def test_af_capacity_approaches_the_df_ceiling_as_source_power_grows(params):
    # At a fixed P = p_r the AF capacity tends to DF's large-source-power
    # ceiling w*log2((1 + aP)/(1 + bP)), within w*log2(1 + max(a, b)P/(1 + A)).
    _, a, b = coefficients(params)
    ceiling = asymptotic_limit(params, Regime.LARGE_SOURCE_POWER, Scheme.DF).c_soc_limit
    w = params.w_hz
    for k in range(0, 301, 20):
        p = replace(params, p_s=10.0 ** k)
        big_a = coefficients(p)[0]
        gap = w * math.log2(1.0 + max(a, b) * p.p_r / (1.0 + big_a))
        assert abs(secrecy_outage_capacity_af(p) - ceiling) <= gap + TOL * w, k


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
# Drawn powers do not overflow the AF rates; this example does.
@example(SystemParams(p_s=1e200, p_r=1e200), 100, 0)
@given(valid_params(), st.integers(100, 400), st.integers(0, 2**64 - 1))
def test_monte_carlo_estimates_are_finite_and_in_range_over_the_validated_domain(
        params, trials, seed):
    try:
        estimates = estimate_schemes(("AF", "DF"), params, trials, seed)
    except InsufficientSampleError:
        assert params.epsilon * trials < 1.0  # trials >= MIN_TRIALS here
        return
    except ArithmeticError as exc:
        # The typed error for overflowing rates, not a ZeroDivisionError.
        assert type(exc) is ArithmeticError and "rates are not finite" in str(exc)
        return
    for est in estimates.values():
        for figure in est:
            assert math.isfinite(figure.value) and math.isfinite(figure.std_error)
            assert figure.std_error >= 0.0
        assert est.c_soc.value >= 0.0
        assert 0.0 <= est.p0.value <= 1.0


def _capacities_finite_at(params, field, db):
    power = {field: from_decibel(db)}
    return all(math.isfinite(soc(params, **power))
               for soc in (secrecy_outage_capacity_af, secrecy_outage_capacity_df))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
# Overflow needs powers beyond the drawn ones; this example reaches it.
@example(SystemParams(p_r=from_decibel(3070.0), epsilon=0.05), PowerAxis.SOURCE,
         [1990.0, 2010.0])
@given(valid_params(), st.sampled_from(PowerAxis),
       st.lists(st.floats(-1000.0, 1000.0), min_size=2, max_size=2, unique=True).map(sorted))
def test_switching_point_is_one_root_strictly_inside_the_bracket(params, axis, bracket):
    lo_db, hi_db = bracket
    try:
        crossings = find_switching_point(params, axis, lo_db, hi_db)
    except ArithmeticError:
        # Only overflow at a bracket end excuses an error, not a ZeroDivisionError.
        field = "p_s" if axis is PowerAxis.SOURCE else "p_r"
        assert not all(_capacities_finite_at(params, field, db) for db in bracket)
        return
    assert len(crossings) <= 1
    for x in crossings:
        assert math.isfinite(x) and lo_db < x < hi_db


def _search(optimizer, params, bracket, scheme):
    try:
        return optimizer(params, *bracket, scheme)
    except (NoOptimumError, ArithmeticError) as exc:
        return exc


BRACKET = st.lists(st.floats(-30.0, 90.0), min_size=2, max_size=2, unique=True).map(sorted)


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
# Drawn powers do not overflow; this AF capacity does (a*p_r) from 83.0 dB on.
@example(SystemParams(alpha_rd=1e298, epsilon=0.05), Scheme.AF, [-30.0, 90.0])
@given(valid_params(), st.sampled_from(Scheme), BRACKET)
def test_relay_power_optimum_is_never_below_the_reference_search(params, scheme, bracket):
    # The reference scans the whole bracket and assumes nothing of the
    # capacity's shape.  It finds a few 1e-12 bit/s of rounding noise where
    # a <= b, which the closed forms read as zero.
    ref = _search(reference_relay_power, params, bracket, scheme)
    opt = _search(optimal_relay_power, params, bracket, scheme)
    assert isinstance(opt, ArithmeticError) == isinstance(ref, ArithmeticError), (opt, ref)
    if isinstance(opt, NoOptimumError):
        assert isinstance(ref, NoOptimumError) or ref.c_soc_opt <= 1e-9 * params.w_hz
    elif not isinstance(opt, ArithmeticError):
        assert not isinstance(ref, Exception), ref
        assert bracket[0] <= opt.p_r_opt_db <= bracket[1]
        assert opt.c_soc_opt >= ref.c_soc_opt * (1.0 - 1e-9)


@st.composite
def paper_params(draw):
    """Parameters around the paper's operating points; source power -10..40 dB."""
    return SystemParams(
        p_s=from_decibel(draw(st.floats(-10.0, 40.0))),
        alpha_sr=draw(st.floats(0.1, 10.0)),
        alpha_rd=draw(st.floats(0.1, 10.0)),
        alpha_re=draw(st.floats(0.1, 10.0)),
        rho=draw(st.floats(0.1, 1.0)),
        n_r=draw(st.integers(10, 1000)),
        epsilon=draw(st.floats(1e-3, 0.5)),
    )


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(paper_params(), BRACKET)
def test_df_relay_power_optimum_equals_the_reference_search_in_the_paper_ranges(
        params, bracket):
    # Off these ranges DF's capacity can be flat to rounding (p_s >= 1e150),
    # so the scan's first maximum may sit anywhere on the plateau.
    ref = _search(reference_relay_power, params, bracket, Scheme.DF)
    opt = _search(optimal_relay_power, params, bracket, Scheme.DF)
    if isinstance(ref, Exception):
        assert type(opt) is type(ref)
    else:
        assert (opt.p_r_opt_db, opt.c_soc_opt) == (ref.p_r_opt_db, ref.c_soc_opt)


# Per kind of flag: values in the validated domain (-1e4 dB is a linear power
# of 0.0), and values that validate rejects or whose linear power overflows.
POWER_DB = (st.one_of(st.sampled_from((-1e4, 0.0, 1000.0)), st.floats(-1000.0, 1000.0)),
            st.sampled_from((3000.0, 1e4, -math.inf, math.inf, math.nan)))
POSITIVE = (log_uniform(-8, 8), st.sampled_from((0.0, -1.0, math.inf, math.nan)))
RHO = (st.one_of(st.sampled_from((0.0, 1.0)), UNIT), st.sampled_from((-0.5, 1.5, math.nan)))
N_R = (st.one_of(st.just(1), st.integers(1, 10**6)), st.sampled_from((0, -3)))
EPSILON = (st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
           st.sampled_from((0.0, -0.1, 1.5, math.nan)))
POINT_FLAGS = {"p-s-db": POWER_DB, "p-r-db": POWER_DB, "alpha-sr": POSITIVE,
               "alpha-rd": POSITIVE, "alpha-re": POSITIVE, "rho": RHO, "n-r": N_R,
               "w-hz": POSITIVE, "epsilon": EPSILON}


@st.composite
def point_argv(draw):
    """Every flag of ``point``; either all in the domain or each maybe out of it."""
    inside = draw(st.booleans())
    flags = []
    for name, (valid, invalid) in POINT_FLAGS.items():
        values = valid if inside else st.one_of(valid, invalid)
        # "--name=value" keeps argparse from reading a negative value as an option.
        flags.append(f"--{name}={draw(values)!r}")
    return ["point", *draw(st.permutations(flags))]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(point_argv())
def test_cli_point_exits_0_with_figures_in_range_or_3_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        report = json.loads(out.getvalue())
        for scheme in ("AF", "DF"):
            assert 0.0 <= report[scheme]["c_soc"] <= report[scheme]["c_d"]
            assert 0.0 <= report[scheme]["p0"] <= 1.0


SWEEP_KEYS = {"variable": "alpha-re", "grid": [1.0], "schemes": ["AF"], "mode": "analytic"}
# Per field, values outside the domain validate accepts, including an
# integer beyond the float range.
OUT_OF_DOMAIN = {
    "p_s": (-1.0, math.inf), "p_r": (-1e-300, math.nan), "alpha_sr": (0.0, -2.0),
    "alpha_rd": (0.0, math.inf), "alpha_re": (-1.0, math.nan), "rho": (-0.5, 1.5),
    "n_r": (0, -3, 2.5), "w_hz": (0.0, -1.0), "epsilon": (0.0, 1.5),
}


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(valid_params(), st.sampled_from([field.name for field in fields(SystemParams)]),
       st.data())
def test_config_keys_round_trip_and_name_the_field_out_of_domain(params, field, data):
    doc = dict(SWEEP_KEYS, **asdict(params))
    assert parse_config(json.dumps(doc)).base == params
    doc[field] = data.draw(st.sampled_from(OUT_OF_DOMAIN[field] + (10**400,)))
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(doc))
    assert excinfo.value.field == field
