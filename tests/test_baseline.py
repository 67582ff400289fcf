import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from mixorder import DomainError, Exponential, ParameterError, PowerBurr, make_baseline
from conftest import random_baseline


def test_make_baseline_exponential():
    d = make_baseline("exponential", a=0.2)
    assert isinstance(d, Exponential)
    assert d.survival(5.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_make_baseline_power_burr():
    d = make_baseline("power_burr", a=0.2, b=0.5)
    assert isinstance(d, PowerBurr)
    assert d.survival(1.0) == pytest.approx(2.0 ** -0.5, rel=1e-15)


@pytest.mark.parametrize(
    "kind, params",
    [
        ("exponential", {"a": 0.0}),
        ("exponential", {"a": -1.0}),
        ("power_burr", {"a": 0.0, "b": 0.5}),
        ("power_burr", {"a": 0.2, "b": -0.5}),
    ],
)
def test_degenerate_parameters_rejected(kind, params):
    with pytest.raises(ParameterError):
        make_baseline(kind, **params)


def test_unknown_kind_and_wrong_params_rejected():
    with pytest.raises(ParameterError):
        make_baseline("weibull", a=1.0)
    with pytest.raises(ParameterError):
        make_baseline("exponential", a=1.0, b=2.0)
    with pytest.raises(ParameterError):
        make_baseline("power_burr", a=1.0)


def test_exponential_at_origin():
    d = Exponential(rate=1.0)
    assert d.survival(0.0) == 1.0
    assert d.hazard(0.0) == 1.0


def test_evaluate_bundle():
    d = Exponential(rate=1.0)
    out = d.evaluate(0.0)
    assert out["survival"] == 1.0 and out["hazard"] == 1.0 and out["density"] == 1.0


def test_exponential_survival_value():
    # e^{-0.2*5} evaluated directly
    d = Exponential(rate=0.2)
    assert d.survival(5.0) == pytest.approx(0.36787944117144233, rel=1e-12)


def test_power_burr_hand_evaluation():
    # (1+x)^{-1} at x=1 and its derivative
    d = PowerBurr(shape_a=1.0, shape_b=1.0)
    assert d.survival(1.0) == pytest.approx(0.5, rel=1e-14)
    assert d.density(1.0) == pytest.approx(0.25, rel=1e-14)
    assert d.hazard(1.0) == pytest.approx(0.5, rel=1e-14)


def test_negative_x_rejected():
    bad_inputs = (-0.1, float("nan"), np.array([0.5, -1e-300, 2.0]), np.array([0.5, np.nan, 2.0]))
    for d in (Exponential(1.0), PowerBurr(0.2, 0.5)):
        for method in (d.survival, d.density, d.hazard, d.log_survival):
            for x in bad_inputs:
                with pytest.raises(DomainError, match="evaluation point must be >= 0"):
                    method(x)


def test_inverse_survival_closed_forms():
    assert Exponential(1.0).inverse_survival(1.0) == 0.0
    assert Exponential(0.2).inverse_survival(math.exp(-1.0)) == pytest.approx(5.0, rel=1e-12)
    assert PowerBurr(1.0, 1.0).inverse_survival(0.5) == pytest.approx(1.0, rel=1e-12)


def test_inverse_survival_domain():
    d = Exponential(1.0)
    for u in (0.0, -0.5, 1.0 + 1e-12, float("nan"), np.array([0.5, 0.0]), np.array([0.5, np.nan])):
        with pytest.raises(DomainError):
            d.inverse_survival(u)


BASELINES = [Exponential(0.2), Exponential(2.0), PowerBurr(0.2, 0.5), PowerBurr(1.7, 0.6)]


@pytest.mark.parametrize("d", BASELINES)
def test_inverse_log_survival_matches_inverse_survival(d):
    # log levels whose exp(y) is a normal float and whose x is below 1e100,
    # away from y = 0, where inverse_survival loses digits to 1 - u
    y = -np.geomspace(1e-3, min(700.0, -float(d.log_survival(1e100))), 60)
    np.testing.assert_allclose(
        d.inverse_log_survival(y), d.inverse_survival(np.exp(y)), rtol=1e-10
    )
    assert d.inverse_log_survival(0.0) == 0.0


@pytest.mark.parametrize("d", BASELINES)
def test_inverse_log_survival_finite_to_quantile_range_end(d):
    # exact where exp(y) rounds to 1, and finite down to log S(1e18)
    assert d.inverse_log_survival(d.log_survival(1e-300)) == pytest.approx(1e-300, rel=1e-12)
    x = d.inverse_log_survival(d.log_survival(1e18))
    assert np.isfinite(x) and x == pytest.approx(1e18, rel=1e-12)


def test_inverse_log_survival_domain():
    d = PowerBurr(1.0, 1.0)
    for y in (1e-12, float("nan"), np.array([-0.5, 0.5])):
        with pytest.raises(DomainError):
            d.inverse_log_survival(y)


def test_hazard_identity_random_pairs():
    # |hazard - density/survival| <= 1e-12 relative over 1000 random (d, x)
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        d = random_baseline(rng)
        x = rng.uniform(0.01, 20.0)
        s, f, h = d.survival(x), d.density(x), d.hazard(x)
        assert abs(h - f / s) <= 1e-12 * abs(h)


def test_survival_round_trip_on_u_grid():
    u = np.linspace(0.01, 0.99, 99)
    for d in (Exponential(0.7), PowerBurr(0.6, 1.3)):
        x = d.inverse_survival(u)
        assert np.max(np.abs(d.survival(x) - u)) <= 1e-10


def test_survival_strictly_decreasing():
    x = np.linspace(0.0, 50.0, 500)
    for d in (Exponential(0.4), PowerBurr(0.8, 0.9)):
        s = d.survival(x)
        assert np.all(np.diff(s) < 0)


def test_survival_underflow_returns_zero():
    d = Exponential(rate=3.0)
    assert d.survival(1e4) == 0.0
    assert np.isfinite(d.log_survival(1e4))


def test_power_burr_far_tail_without_overflow():
    # x**a overflows at x = 1e200 for a = 1.7; references in 50-digit arithmetic
    d = PowerBurr(1.7, 0.6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logs, r = d.log_survival(1e200), d.hazard(1e200)
        assert np.all(np.isfinite(d.log_survival(np.array([0.0, 1.0, 1e200, 1e308]))))
    with mp.workdps(50):
        x, a, b = mp.mpf(1e200), mp.mpf(1.7), mp.mpf(0.6)
        want_logs = float(-b * mp.log1p(x**a))
        want_r = float(a * b * x ** (a - 1) / (1 + x**a))
    assert want_logs == pytest.approx(-469.727358971, rel=1e-12)
    assert logs == pytest.approx(want_logs, rel=1e-14)
    assert r == pytest.approx(want_r, rel=1e-14) and r == pytest.approx(1.02e-200, rel=1e-12)


def test_power_burr_keeps_its_bits_where_the_power_is_finite():
    d = PowerBurr(1.7, 0.6)
    x = np.geomspace(1e-300, 1e180, 2001)
    a, b = d.shape_a, d.shape_b
    assert np.array_equal(d.log_survival(x), -b * np.log1p(x**a))
    assert np.array_equal(d.hazard(x), a * b * x ** (a - 1.0) / (1.0 + x**a))


def mp_burr_density(a, b, x):
    with mp.workdps(50):
        a, b, x = mp.mpf(a), mp.mpf(b), mp.mpf(x)
        return float(a * b * x ** (a - 1) * (1 + x**a) ** (-(b + 1)))


def test_power_burr_density_where_the_power_overflows():
    # x**a overflows at x = 1e155 for a = 2, while the density is a normal float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = PowerBurr(2.0, 0.01).density(1e155)
    want = mp_burr_density(2.0, 0.01, 1e155)
    assert want == pytest.approx(1.58866e-160, rel=1e-5)
    assert got == pytest.approx(want, rel=1e-12)


def test_power_burr_density_far_tail_sweep():
    rng = np.random.default_rng(31)
    for _ in range(150):
        a, b = rng.uniform(0.1, 5.0, size=2)
        x = np.exp(rng.uniform(-40.0, 40.0, size=4))
        got = PowerBurr(a, b).density(x)
        want = [mp_burr_density(a, b, v) for v in x]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=f"a={a}, b={b}")


def test_power_burr_inverse_survival_near_one_and_tiny_levels():
    for a, b in ((0.2, 0.5), (1.7, 0.6), (3.0, 4.0), (0.1, 0.1), (4.9, 4.9)):
        # levels within 1e-16 .. 1e-1 of 1, and tiny levels whose x and u**(-1/b)
        # are finite: x ~ u**(-1/(a*b))
        u = np.concatenate([
            1.0 - np.geomspace(1e-16, 1e-1, 30),
            np.geomspace(max(math.exp(-600.0 * b * min(a, 1.0)), 1e-300), 1e-3, 30),
        ])
        got = PowerBurr(a, b).inverse_survival(u)
        with mp.workdps(50):
            want = [float((mp.mpf(v) ** (-1 / mp.mpf(b)) - 1) ** (1 / mp.mpf(a))) for v in u]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=f"a={a}, b={b}")


def mp_burr_inverse_log_survival(a, b, logs):
    with mp.workdps(30):
        a, b, logs = mp.mpf(a), mp.mpf(b), mp.mpf(logs)
        return float(mp.expm1(-logs / b) ** (1 / a))


def test_power_burr_inverse_log_survival_where_expm1_overflows():
    # expm1(-logs/b) overflows from -logs/b ~ 709.8 on, while x is a normal float for a > 1
    d = PowerBurr(1.7, 0.6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = d.inverse_log_survival(-500.0)
        tiny = d.inverse_survival(1e-300)
    assert x == pytest.approx(7.7527e212, rel=1e-4)
    assert x == pytest.approx(mp_burr_inverse_log_survival(1.7, 0.6, -500.0), rel=1e-13)
    assert d.log_survival(x) == pytest.approx(-500.0, rel=1e-14)
    assert np.isfinite(tiny) and d.survival(tiny) == pytest.approx(1e-300, rel=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = rng.uniform(1.1, 5.0), rng.uniform(0.05, 2.0)
        logs = -b * rng.uniform(710.0, 700.0 * a, size=4)
        want = [mp_burr_inverse_log_survival(a, b, v) for v in logs]
        got = PowerBurr(a, b).inverse_log_survival(logs)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=f"a={a}, b={b}")


def test_power_burr_inverse_keeps_its_bits_where_expm1_is_finite():
    d = PowerBurr(1.7, 0.6)
    logs = -np.geomspace(1e-300, 0.6 * 709.0, 2001)
    assert np.array_equal(d.inverse_log_survival(logs), np.expm1(-logs / 0.6) ** (1.0 / 1.7))


def test_density_matches_central_difference_of_survival():
    rng = np.random.default_rng(7)
    for _ in range(500):
        d = random_baseline(rng)
        x = rng.uniform(0.01, 20.0)
        h = 1e-5 * x
        slope = (d.survival(x + h) - d.survival(x - h)) / (2.0 * h)
        assert -slope == pytest.approx(d.density(x), rel=1e-6), (d, x)
