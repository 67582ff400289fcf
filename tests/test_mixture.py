import collections
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mixorder import (
    DomainError,
    EvaluationGrid,
    Exponential,
    MixtureModel,
    MphrParams,
    ParameterError,
    PowerBurr,
    TailError,
    check_star,
    default_grid,
    evaluate_curve,
    example_scenario,
    mphr,
)
from conftest import random_mixture

EXP1 = Exponential(rate=1.0)


def degenerate(alpha=1.0, lam=1.0, baseline=EXP1):
    return MixtureModel.vary_alpha(baseline, lam, [(1.0, alpha)])


class TestConstruction:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            MixtureModel.vary_alpha(EXP1, 1.0, [(0.6, 0.5), (0.3, 0.5)])

    def test_weights_must_be_positive(self):
        with pytest.raises(ParameterError):
            MixtureModel.vary_alpha(EXP1, 1.0, [(1.2, 0.5), (-0.2, 0.5)])

    def test_parameters_must_be_positive(self):
        with pytest.raises(ParameterError):
            MixtureModel.vary_alpha(EXP1, 0.0, [(1.0, 0.5)])
        with pytest.raises(ParameterError):
            MixtureModel.vary_lambda(EXP1, -0.1, [(1.0, 0.5)])


class TestSurvival:
    def test_degenerate_equals_baseline(self):
        m = degenerate()
        assert m.survival(1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_reference_two_component_value(self):
        # 0.6*[0.3 e^{-0.02}/(1-0.7 e^{-0.02})] + 0.4*[0.4 e^{-0.02}/(1-0.6 e^{-0.02})],
        # frozen from a 50-digit independent summation
        m = MixtureModel.vary_alpha(Exponential(0.2), 0.1, [(0.6, 0.3), (0.4, 0.4)])
        assert m.survival(1.0) == pytest.approx(0.94291615164119530994, rel=1e-14)

    def test_equal_components_collapse(self):
        m = MixtureModel.vary_alpha(EXP1, 0.7, [(0.5, 0.3), (0.5, 0.3)])
        single = degenerate(alpha=0.3, lam=0.7)
        x = np.linspace(0.0, 10.0, 50)
        assert np.allclose(m.survival(x), single.survival(x), rtol=1e-14)

    def test_cdf_complements_survival(self):
        m = MixtureModel.vary_lambda(EXP1, 0.4, [(0.3, 0.5), (0.7, 2.0)])
        x = np.linspace(0.0, 30.0, 200)
        assert np.max(np.abs(m.cdf(x) + m.survival(x) - 1.0)) <= 1e-14

    def test_survival_nonincreasing_on_grid(self):
        m = MixtureModel.vary_alpha(EXP1, 0.5, [(0.2, 0.1), (0.8, 2.5)])
        values = m.survival(default_grid(501).x_values)
        assert np.all(np.diff(values) <= 0)

    def test_cdf_near_zero_matches_mpmath(self):
        # example 1's model A: its cdf at the low end of the grid is below 0.03
        _, scenario = example_scenario(1)
        m = scenario.model_a()
        x = scenario.grid.x_values[:400]
        want = [float(TestQuantileAccuracy.mp_cdf_and_survival(m, v)[0]) for v in x]
        np.testing.assert_allclose(m.cdf(x), want, rtol=1e-14, atol=0.0)


class TestHazard:
    def test_single_component_reduces(self):
        from mixorder import MphrParams, mphr

        m = MixtureModel.vary_alpha(EXP1, 0.5, [(1.0, 0.3)])
        p = MphrParams(alpha=0.3, lam=0.5)
        for x in (0.0, 0.5, 3.0):
            assert m.hazard(x) == pytest.approx(mphr.hazard(p, EXP1, x), rel=1e-13)

    def test_two_group_value_at_origin(self):
        # lam * r(0) * (p1/a1 + p2/a2) = 0.2*3*(0.3/0.7 + 0.7/0.3), frozen exact
        m = MixtureModel.vary_alpha(Exponential(3.0), 0.2, [(0.3, 0.7), (0.7, 0.3)])
        assert m.hazard(0.0) == pytest.approx(1.6571428571428571429, rel=1e-14)

    def test_identical_components_equal_component_hazard(self):
        m = MixtureModel.vary_alpha(EXP1, 1.4, [(0.25, 0.6), (0.75, 0.6)])
        single = degenerate(alpha=0.6, lam=1.4)
        x = np.linspace(0.0, 8.0, 40)
        assert np.allclose(m.hazard(x), single.hazard(x), rtol=1e-13)

    def test_survives_far_tail_scaling(self):
        # the scaled form stays exact where raw survival underflows
        m = MixtureModel.vary_alpha(Exponential(3.0), 0.2, [(0.3, 0.7), (0.7, 0.3)])
        assert m.survival(1e4) == 0.0
        assert m.hazard(1e4) == pytest.approx(0.6, rel=1e-9)

    @pytest.mark.parametrize("variant, param, components, limit", [
        ("vary_alpha", 0.5, [(0.3, 0.7), (0.7, 0.3)], 1.0),
        ("vary_lambda", 0.5, [(0.4, 0.3), (0.6, 2.0)], 0.6),
    ])
    def test_limit_at_infinity(self, variant, param, components, limit):
        # min(lam) * r(inf) for an exponential baseline of rate r = 2
        m = getattr(MixtureModel, variant)(Exponential(2.0), param, components)
        assert m.hazard(np.inf) == limit
        x = np.array([0.0, 1.0, 1e4, np.inf])
        h = m.hazard(x)
        assert h[-1] == limit
        np.testing.assert_array_equal(h[:-1], m.hazard(x[:-1]))


class TestKernel:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        variant=st.sampled_from(["vary_alpha", "vary_lambda"]),
        burr=st.booleans(),
    )
    def test_matches_weighted_component_formulas(self, seed, n, variant, burr):
        rng = np.random.default_rng(seed)
        d = (PowerBurr(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)) if burr
             else Exponential(rng.uniform(0.3, 2.0)))
        components = zip(rng.dirichlet(np.ones(n)), rng.uniform(0.3, 3.0, size=n))
        m = getattr(MixtureModel, variant)(d, rng.uniform(0.3, 3.0), components)
        # baseline survival levels in [1e-6, 0.9], so the cdf stays away from 0
        x = d.inverse_survival(rng.uniform(1e-6, 0.9, size=64))
        params = [MphrParams(alpha=a, lam=l) for a, l in zip(m.alphas, m.lams)]
        w = np.asarray(m.weights)[:, None]
        surv = np.sum(w * np.array([mphr.survival(p, d, x) for p in params]), axis=0)
        dens = np.sum(w * np.array([mphr.density(p, d, x) for p in params]), axis=0)
        np.testing.assert_allclose(m.survival(x), surv, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(m.cdf(x), 1.0 - surv, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(m.density(x), dens, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(m.hazard(x), dens / surv, rtol=1e-13, atol=0.0)


class TestQuantile:
    def test_degenerate_closed_form(self):
        m = degenerate()
        assert m.quantile(1.0 - math.exp(-1.0)) == pytest.approx(1.0, rel=1e-9)

    def test_degenerate_tilted(self):
        # survival 1/3 at ln 2 for alpha=0.5, lam=1
        m = degenerate(alpha=0.5)
        assert m.quantile(2.0 / 3.0) == pytest.approx(math.log(2.0), rel=1e-9)

    @pytest.mark.parametrize("x_star", [0.1, 1.0, 10.0])
    def test_round_trip(self, x_star):
        m = MixtureModel.vary_alpha(EXP1, 0.6, [(0.4, 0.2), (0.6, 1.8)])
        assert m.quantile(float(m.cdf(x_star))) == pytest.approx(x_star, rel=1e-8)

    def test_round_trip_in_probability_space(self):
        m = MixtureModel.vary_lambda(Exponential(0.5), 0.3, [(0.5, 0.4), (0.5, 2.0)])
        for u in np.linspace(0.05, 0.95, 19):
            assert abs(float(m.cdf(m.quantile(u))) - u) <= 1e-10

    def test_domain(self):
        m = degenerate()
        for u in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                m.quantile(u)

    def test_tail_guard(self):
        # survival ~ x^{-0.01}: the 1e18 bracket limit must trip, not hang
        from mixorder import PowerBurr

        m = MixtureModel.vary_alpha(PowerBurr(0.2, 0.5), 0.1, [(1.0, 1.0)])
        with pytest.raises(TailError):
            m.quantile(0.9999)


class TestArrayQuantile:
    M = MixtureModel.vary_lambda(Exponential(0.5), 0.3, [(0.5, 0.4), (0.5, 2.0)])

    def test_scalar_and_zero_d_return_float(self):
        for u in (0.3, np.float64(0.3), np.asarray(0.3)):
            q = self.M.quantile(u)
            assert type(q) is float

    @pytest.mark.parametrize("shape", [(7,), (3, 4)])
    def test_array_keeps_shape(self, shape):
        u = np.linspace(0.01, 0.99, int(np.prod(shape))).reshape(shape)
        q = self.M.quantile(u)
        assert isinstance(q, np.ndarray) and q.shape == shape

    def test_vector_matches_elementwise_scalar(self):
        u = np.concatenate([np.geomspace(1e-12, 0.5, 40), 1.0 - np.geomspace(0.5, 1e-9, 40)])
        q = self.M.quantile(u)
        scalar = np.array([self.M.quantile(float(v)) for v in u])
        np.testing.assert_allclose(q, scalar, rtol=1e-12, atol=0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        variant=st.sampled_from(["vary_alpha", "vary_lambda"]),
        fractions=st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=20),
    )
    def test_round_trip_random_mixtures(self, seed, variant, fractions):
        m = random_mixture(np.random.default_rng(seed), variant)
        # levels up to cdf(1e18), the largest the solver inverts
        u = np.minimum(np.asarray(fractions) * float(m.cdf(1e18)), 1.0 - 1e-16)
        q = m.quantile(u)
        assert np.max(np.abs(m.cdf(q) - u)) <= 1e-11

    def test_tail_error_names_level_past_guard(self):
        m = MixtureModel.vary_alpha(PowerBurr(0.2, 0.5), 0.1, [(1.0, 1.0)])
        u_max = float(m.cdf(1e18))
        with pytest.raises(TailError, match=repr(0.9999)):
            m.quantile(np.array([0.5 * u_max, 0.9999, 0.99999]))
        assert m.quantile(np.array([0.5 * u_max, u_max]))[-1] <= 1e18

    @pytest.mark.parametrize("bad", [0.0, 1.0, float("nan")])
    def test_domain_error_in_arrays(self, bad):
        with pytest.raises(DomainError):
            self.M.quantile(np.array([0.2, bad, 0.7]))


def example_models():
    """Models A and B of bundled examples 5 (exponential) and 7 (heavy-tailed power_burr)."""
    scenarios = [example_scenario(k)[1] for k in (5, 7)]
    return [m for s in scenarios for m in (s.model_a(), s.model_b())]


class TestQuantileExactness:
    # 9 components: from 8 on, the order of np.sum over components depends on
    # the number of levels, which an array call must not see
    MODELS = [
        getattr(MixtureModel, variant)(d, 0.7, zip(np.full(n, 1.0 / n), np.linspace(0.4, 2.5, n)))
        for n in (2, 9)
        for variant in ("vary_alpha", "vary_lambda")
        for d in (Exponential(0.5), PowerBurr(1.3, 0.7))
    ] + example_models()

    @pytest.mark.parametrize("m", MODELS)
    def test_vector_equals_scalar_calls(self, m):
        top = min(1.0 - 1e-14, float(m.cdf(1e18)))
        u = np.concatenate(
            [np.geomspace(1e-200, top / 2, 40), top - np.geomspace(top / 2, 1e-16, 40)]
        )
        q = m.quantile(u)
        np.testing.assert_array_equal(q, [m.quantile(float(v)) for v in u])


class TestQuantileAccuracy:
    """``quantile`` against a 50-digit mpmath cdf, relative error in min(u, 1 - u)."""

    @staticmethod
    def mp_cdf_and_survival(m, x):
        with mp.workdps(50):
            x = mp.mpf(x)
            d = m.baseline
            if isinstance(d, Exponential):
                logs = -mp.mpf(d.rate) * x
            else:
                logs = -mp.mpf(d.shape_b) * mp.log1p(x ** mp.mpf(d.shape_a))
            cdf = surv = mp.mpf(0)
            for p, a, lam in zip(m.weights, m.alphas, m.lams):
                c = mp.mpf(lam) * logs
                one_minus_z = -mp.expm1(c)
                den = 1 - (1 - mp.mpf(a)) * mp.exp(c)
                cdf += mp.mpf(p) * one_minus_z / den
                surv += mp.mpf(p) * mp.mpf(a) * mp.exp(c) / den
            return cdf, surv

    @classmethod
    def relative_error(cls, m, level, x):
        """The error of ``x`` as the quantile at ``level``, relative to min(u, 1 - u)."""
        cdf, surv = cls.mp_cdf_and_survival(m, x)
        if level <= 0.5:
            return abs(cdf - mp.mpf(level)) / mp.mpf(level)
        return abs(surv - (1 - mp.mpf(level))) / (1 - mp.mpf(level))

    def models(self):
        rng = np.random.default_rng(20)
        randoms = [random_mixture(rng, v) for v in ("vary_alpha", "vary_lambda") for _ in range(4)]
        return randoms + example_models()

    def test_matches_mpmath_cdf(self):
        for m in self.models():
            top = min(1.0 - 1e-14, float(m.cdf(1e18)))
            # a level whose quantile is below the smallest normal float cannot be
            # represented to 1e-12 (example 7's quantile reaches it at u ~ 2e-64)
            bottom = max(1e-100, float(self.mp_cdf_and_survival(m, np.finfo(float).tiny)[0]))
            u = np.geomspace(bottom, min(0.5, top), 40)
            if top > 0.5:
                u = np.concatenate([u, 1.0 - np.geomspace(0.5, 1.0 - top, 40)])
            for level, x in zip(u, m.quantile(u)):
                err = self.relative_error(m, level, x)
                assert err <= 1e-12, (m, level, float(err))

    @pytest.mark.parametrize("k", [5, 7])
    def test_check_star_warm_starts_match_mpmath_cdf(self, monkeypatch, k):
        # levels check_star inverts from its cdf-table starts: every 4th and the last
        solved = []
        warm = MixtureModel._quantile

        def recorded(self, u, start):
            x = warm(self, u, start)
            solved.append((self, u, x))
            return x

        monkeypatch.setattr(MixtureModel, "_quantile", recorded)
        _, s = example_scenario(k)
        check_star(s.model_a(), s.model_b(), s.grid)
        assert len(solved) == 2
        for m, u, q in solved:
            idx = np.r_[0:u.size:4, u.size - 1]
            for level, x in zip(u[idx], q[idx]):
                err = self.relative_error(m, level, x)
                assert err <= 1e-12, (k, level, float(err))


class TestQuantileBits:
    """The public ``quantile``'s bits as ``float.hex``, frozen before the kernel cached its columns."""

    CASES = [
        (
            lambda: example_scenario(5)[1].model_a(),
            [1e-200, 1e-60, 1e-9, 1e-3, 0.1, 0.37, 0.5, 0.75, 0.999, 1 - 1e-9],
            ["0x1.b374cfb3b4b81p-667", "0x1.c915a84bfd54ap-202", "0x1.316b7e5ccc76ap-32",
             "0x1.238adab7c81f6p-12", "0x1.f5aa4236732e0p-6", "0x1.3f6ec3800493dp-3",
             "0x1.07378313346a7p-2", "0x1.55ee1ab34a485p-1", "0x1.fcbdfd92e52c3p+2",
             "0x1.eb439a5df6f0ep+4"],
        ),
        (
            lambda: example_scenario(7)[1].model_b(),
            [1e-200, 1e-100, 1e-60, 1e-30, 1e-12, 1e-6, 1e-3, 0.01, 0.05, 0.08],
            ["0x0.0000000000001p-1022", "0x0.0000000000001p-1022", "0x1.345e1436ee02ap-963",
             "0x1.78d13607a130fp-465", "0x1.71f758f3a4fc0p-166", "0x1.23edd754ede9cp-66",
             "0x1.52610802b9584p-16", "0x1.a752e4a30722ep+4", "0x1.6540b03aba0cap+36",
             "0x1.337ddf2bfe5e2p+56"],
        ),
        (
            lambda: MixtureModel.vary_lambda(
                PowerBurr(1.3, 0.7), 0.6, zip(np.full(9, 1.0 / 9), np.linspace(0.4, 2.5, 9))
            ),
            [1e-200, 1e-60, 1e-9, 1e-3, 0.1, 0.37, 0.5, 0.75, 0.999, 0.9999],
            ["0x1.46734a04af5d2p-512", "0x1.11c5346662831p-154", "0x1.562e64b3b716ap-24",
             "0x1.af18c4143f561p-9", "0x1.fe86359776d42p-4", "0x1.e0cebd4d9fe9ep-2",
             "0x1.76b6a883589cap-1", "0x1.f7947d0913653p+0", "0x1.e2a3afc8b18f2p+16",
             "0x1.c6d87a5c1ead4p+25"],
        ),
    ]

    @pytest.mark.parametrize("model, levels, expected", CASES, ids=["ex5_a", "ex7_b", "burr9"])
    def test_bits_unchanged(self, model, levels, expected):
        m = model()
        assert [float(x).hex() for x in m.quantile(np.array(levels))] == expected
        assert [m.quantile(u).hex() for u in levels] == expected


class TestQuantileCounts:
    """Non-timing guard: kernel and baseline evaluations per quantile call."""

    @staticmethod
    def count_calls(monkeypatch, baseline_cls):
        calls = collections.Counter()
        terms = MixtureModel._terms

        def counted_terms(self, logs):
            calls["_terms"] += 1
            return terms(self, logs)

        monkeypatch.setattr(MixtureModel, "_terms", counted_terms)
        for name in ("survival", "log_survival", "density", "hazard", "inverse_survival",
                     "inverse_log_survival"):
            def counted(self, x, _orig=getattr(baseline_cls, name)):
                calls["baseline"] += 1
                return _orig(self, x)
            monkeypatch.setattr(baseline_cls, name, counted)
        return calls

    @pytest.mark.parametrize("m", example_models())
    def test_evaluations_per_call(self, monkeypatch, grid_default, m):
        # the 2001 levels check_star inverts: cdf values on the default grid,
        # clipped to its invertible band and to cdf(1e18)
        u = np.clip(m.cdf(grid_default.x_values), 1e-300, min(1.0 - 3e-8, float(m.cdf(1e18))))
        calls = self.count_calls(monkeypatch, type(m.baseline))
        q = m.quantile(u)
        assert q.shape == (2001,)
        assert calls["_terms"] <= 16 and calls["baseline"] <= 2, calls

    def test_check_star_evaluations(self, monkeypatch):
        # two cdf tables, two tail guards and the Newton iterations of both
        # table-started inversions; 22 kernel evaluations from the slope start
        _, s = example_scenario(5)
        a, b = s.model_a(), s.model_b()
        calls = self.count_calls(monkeypatch, type(a.baseline))
        check_star(a, b, s.grid)
        assert calls["_terms"] <= 10 and calls["baseline"] <= 5, calls


class TestSample:
    def test_count_validated(self):
        m = degenerate()
        for n in (0, -3):
            with pytest.raises(ParameterError):
                m.sample(n, seed=1)

    def test_deterministic(self):
        m = MixtureModel.vary_alpha(EXP1, 0.7, [(0.3, 0.4), (0.7, 1.5)])
        a = m.sample(500, seed=123)
        b = m.sample(500, seed=123)
        assert np.array_equal(a, b)
        c = m.sample(500, seed=124)
        assert not np.array_equal(a, c)

    def test_empirical_survival_matches_analytic(self):
        m = MixtureModel.vary_alpha(Exponential(0.2), 0.1, [(0.6, 0.3), (0.4, 0.4)])
        n = 200_000
        draws = m.sample(n, seed=7)
        emp = np.mean(draws > 1.0)
        assert abs(emp - 0.94291615164119531) <= 3.0 * math.sqrt(0.25 / n)

    def test_kolmogorov_smirnov_against_analytic_cdf(self):
        m = MixtureModel.vary_alpha(Exponential(0.2), 0.1, [(0.6, 0.3), (0.4, 0.4)])
        draws = m.sample(100_000, seed=11)
        d = stats.kstest(draws, lambda v: np.asarray(m.cdf(v))).statistic
        assert d < 0.01

    @pytest.mark.parametrize("k", range(1, 7))
    def test_kolmogorov_smirnov_all_bundled_models(self, k):
        from mixorder.theorems import example_scenario

        _, scenario = example_scenario(k)
        m = scenario.model_a()
        draws = m.sample(100_000, seed=1000 + k)
        d = stats.kstest(draws, lambda v: np.asarray(m.cdf(v))).statistic
        assert d < 0.01


class TestCurves:
    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            EvaluationGrid(np.array([0.2, 0.2, 0.3]))
        with pytest.raises(ParameterError):
            EvaluationGrid(np.array([0.0, 0.5]))
        with pytest.raises(ParameterError):
            default_grid(0)

    @pytest.mark.parametrize("t", [[0.2, float("nan"), 0.3], [float("nan")], [0.1, 0.5, float("nan")]])
    def test_grid_rejects_nan(self, t):
        with pytest.raises(ParameterError, match="strictly inside"):
            EvaluationGrid(np.array(t))

    def test_default_grid_rejects_nan_end(self):
        with pytest.raises(ParameterError):
            default_grid(5, float("nan"), 0.5)

    def test_x_values_fixed_at_construction(self):
        t = np.linspace(1e-4, 1.0 - 1e-4, 2001)
        grid = EvaluationGrid(t)
        assert np.array_equal(grid.x_values, t / (1.0 - t))
        t[0] = 0.5  # the grid keeps its own copy
        assert grid.t_values[0] == 1e-4 and grid.x_values[0] == 1e-4 / (1.0 - 1e-4)
        for values in (grid.t_values, grid.x_values):
            with pytest.raises(ValueError):
                values[0] = 1.0
            with pytest.raises(ValueError):
                values *= 2.0

    def test_three_point_survival_series(self):
        grid = EvaluationGrid(np.array([0.25, 0.5, 0.75]))
        series = evaluate_curve(degenerate(), grid, "survival")
        assert np.allclose(series.x, [1.0 / 3.0, 1.0, 3.0])
        assert np.allclose(series.values, np.exp(-series.x), rtol=1e-14)

    def test_reference_pair_is_pointwise_ordered(self, example1_v2, example1_w2, grid_default):
        a = evaluate_curve(example1_v2, grid_default, "survival")
        b = evaluate_curve(example1_w2, grid_default, "survival")
        assert np.all(a.values <= b.values + 1e-15)

    def test_hazard_curve_full_grid(self):
        m = MixtureModel.vary_alpha(Exponential(3.0), 0.2, [(0.3, 0.7), (0.7, 0.3)])
        series = evaluate_curve(m, default_grid(), "hazard")
        assert np.all(np.isfinite(series.values))
        assert len(series.values) == 2001

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            evaluate_curve(degenerate(), default_grid(11), "pdf")
