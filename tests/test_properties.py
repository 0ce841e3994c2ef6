"""Property tests of the closed forms over the validated parameter domain."""
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from secrelay.analytic import Scheme, scheme_report
from secrelay.params import SystemParams, validate


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda x: 10.0 ** x)


POWER = st.one_of(st.just(0.0), log_uniform(-100, 100))
ALPHA = log_uniform(-6, 6)
UNIT = st.floats(0.0, 1.0)


@st.composite
def valid_params(draw):
    return validate(SystemParams(
        p_s=draw(POWER),
        p_r=draw(POWER),
        alpha_sr=draw(ALPHA),
        alpha_rd=draw(ALPHA),
        alpha_re=draw(ALPHA),
        rho=draw(st.one_of(st.sampled_from((0.0, 1.0)), UNIT)),
        n_r=draw(st.integers(1, 10_000)),
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
