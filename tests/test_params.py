import math

import numpy as np
import pytest

from secrelay.params import ParameterError, SystemParams, from_decibel, validate


def test_from_decibel_identity_points():
    assert from_decibel(0.0) == 1.0
    assert from_decibel(20.0) == 100.0
    assert from_decibel(10.0) == 10.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_from_decibel_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        from_decibel(bad)


def test_from_decibel_names_a_value_whose_linear_power_overflows():
    assert math.isfinite(from_decibel(3080.0))
    with pytest.raises(ValueError, match=r"dB value 4000\.0 overflows a linear power"):
        from_decibel(4000.0)


def test_from_decibel_is_multiplicative_and_increasing():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-50.0, 50.0, size=200)
    ys = rng.uniform(-50.0, 50.0, size=200)
    for x, y in zip(xs, ys):
        assert from_decibel(x) * from_decibel(y) == pytest.approx(
            from_decibel(x + y), rel=1e-12
        )
    ordered = np.sort(xs)
    values = [from_decibel(x) for x in ordered]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_defaults_are_the_reference_setup():
    p = validate(SystemParams())
    assert p.n_r == 100
    assert p.rho == 0.9
    assert p.w_hz == 10_000.0
    assert p.alpha_sr == p.alpha_rd == p.alpha_re == 1.0


def test_validate_returns_record_unchanged_and_is_idempotent():
    p = SystemParams(p_s=10.0, epsilon=0.05)
    assert validate(p) is p
    assert validate(validate(p)) == p


def test_validate_names_rho_out_of_range():
    with pytest.raises(ParameterError) as excinfo:
        validate(SystemParams(rho=1.2))
    assert any(e.startswith("rho") for e in excinfo.value.errors)


def test_validate_rejects_epsilon_zero_but_accepts_one():
    with pytest.raises(ParameterError) as excinfo:
        validate(SystemParams(epsilon=0.0))
    assert any(e.startswith("epsilon") for e in excinfo.value.errors)
    assert validate(SystemParams(epsilon=1.0)).epsilon == 1.0


def test_validate_reports_every_violation():
    with pytest.raises(ParameterError) as excinfo:
        validate(SystemParams(p_s=-1.0, alpha_re=0.0, n_r=0, epsilon=2.0))
    named = {e.split(" ", 1)[0] for e in excinfo.value.errors}
    assert named == {"p_s", "alpha_re", "n_r", "epsilon"}


@pytest.mark.parametrize(
    "field,value",
    [
        ("p_r", -0.5),
        ("alpha_sr", -1.0),
        ("alpha_rd", 0.0),
        ("w_hz", 0.0),
        ("n_r", 2.5),
        # Integers that no float can hold, the smallest one included.
        pytest.param("n_r", 2**1024 - 2**970, id="n_r-2**1024-2**970"),
        pytest.param("n_r", -(10**400), id="n_r--10**400"),
        pytest.param("n_r", 10**5000, id="n_r-10**5000"),
        ("rho", -0.01),
    ],
)
def test_validate_rejects_each_bad_field(field, value):
    with pytest.raises(ParameterError) as excinfo:
        validate(SystemParams(**{field: value}))
    assert any(e.startswith(field) for e in excinfo.value.errors)


def test_boundary_values_accepted():
    validate(SystemParams(p_s=0.0, p_r=0.0, rho=0.0))
    validate(SystemParams(rho=1.0, n_r=1))
    validate(SystemParams(n_r=2**1024 - 2**970 - 1))  # the largest integer a float can hold
