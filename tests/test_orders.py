import collections
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixorder import (
    Exponential,
    InfiniteMeanSuspected,
    MixtureModel,
    ParameterError,
    ParameterMatrix,
    PowerBurr,
    Scenario,
    TailError,
    TTransform,
    check_hr,
    check_lorenz,
    check_st,
    check_star,
    check_theorem,
    default_grid,
    example_scenario,
    h_hr,
    h_pa,
    h_plambda,
    lorenz_curve,
)
from mixorder.orders import (
    _CDF_HI,
    _CDF_LO,
    DEFAULT_SLACK,
    _directional_verdict,
    _monotone_violations,
    _undecided,
)
from conftest import random_mixture

EXP1 = Exponential(rate=1.0)


def degenerate(baseline=EXP1, alpha=1.0, lam=1.0):
    return MixtureModel.vary_alpha(baseline, lam, [(1.0, alpha)])


# -- finite-difference oracles, independent of the closed-form evaluators -------


def survival_alpha_form(p1, p2, a1, a2, z):
    return p1 * a1 * z / (1 - (1 - a1) * z) + p2 * a2 * z / (1 - (1 - a2) * z)


def survival_lambda_form(p1, p2, l1, l2, alpha, s):
    z1, z2 = s**l1, s**l2
    return (
        p1 * alpha * z1 / (1 - (1 - alpha) * z1)
        + p2 * alpha * z2 / (1 - (1 - alpha) * z2)
    )


def hazard_alpha_form(p1, p2, a1, a2, z, lam, r):
    m1 = 1 - (1 - a1) * z
    m2 = 1 - (1 - a2) * z
    num = lam * r * (p1 * a1 / m1**2 + p2 * a2 / m2**2)
    den = p1 * a1 / m1 + p2 * a2 / m2
    return num / den


def central_diff(f, args, index, step):
    hi = list(args)
    lo = list(args)
    hi[index] += step
    lo[index] -= step
    return (f(*hi) - f(*lo)) / (2.0 * step)


def fd_combination(f, args):
    """(v1-v2)(d/dv1 - d/dv2) + (w1-w2)(d/dw1 - d/dw2) for f(v1,v2,w1,w2, ...)."""
    p1, p2, c1, c2 = args[:4]
    steps = [1e-6 * max(1.0, abs(v)) for v in (p1, p2, c1, c2)]
    d = [central_diff(f, args, i, steps[i]) for i in range(4)]
    return (p1 - p2) * (d[0] - d[1]) + (c1 - c2) * (d[2] - d[3])


# -- usual stochastic order -----------------------------------------------------


class TestCheckSt:
    def test_identical_models(self, example1_v2, grid_coarse):
        v = check_st(example1_v2, example1_v2, grid_coarse)
        assert v.holds_leq and v.holds_geq

    def test_reference_pair_direction(self, example1_v2, example1_w2, grid_default):
        v = check_st(example1_v2, example1_w2, grid_default)
        assert v.holds_leq and not v.holds_geq
        assert v.max_violation_leq <= 1e-9 < v.max_violation_geq

    def test_vary_lambda_pair_direction(self, grid_default):
        d = Exponential(2.0)
        z2 = MixtureModel.vary_lambda(d, 0.2, [(0.2, 0.5), (0.8, 0.25)])
        y2 = MixtureModel.vary_lambda(d, 0.2, [(0.62, 0.325), (0.38, 0.425)])
        v = check_st(z2, y2, grid_default)
        assert v.holds_geq and not v.holds_leq

    def test_antisymmetry(self, example1_v2, example1_w2, grid_default):
        fwd = check_st(example1_v2, example1_w2, grid_default)
        rev = check_st(example1_w2, example1_v2, grid_default)
        assert fwd.holds_leq and fwd.max_violation_geq > 1e-9
        assert rev.holds_geq and rev.max_violation_leq > 1e-9
        assert rev.max_violation_leq == pytest.approx(fwd.max_violation_geq, rel=1e-12)


class TestCheckHr:
    def test_identical_models(self, example1_v2, grid_coarse):
        v = check_hr(example1_v2, example1_v2, grid_coarse)
        assert v.holds_leq and v.holds_geq
        assert v.hazard_holds_leq and v.hazard_holds_geq

    def test_constant_hazard_pair(self):
        # alpha=1 power pair over exp(1): hazards are constant 1 vs 2, so the
        # lam=2 model is the smaller one in this order
        lam1 = degenerate(lam=1.0)
        lam2 = degenerate(lam=2.0)
        grid = default_grid(501, 1e-3, 0.99)
        v = check_hr(lam2, lam1, grid)
        assert v.holds_leq and not v.holds_geq
        assert v.hazard_holds_leq is True and v.hazard_holds_geq is False
        assert not v.hazard_disagrees

    def test_two_group_balanced_pair_direction(self, grid_default):
        # hazard of the more heterogeneous (chain-majorizing) mixture dominates
        # pointwise, so it is the *smaller* model in this order
        d = Exponential(3.0)
        v2 = MixtureModel.vary_alpha(d, 0.2, [(0.3, 0.7), (0.7, 0.3)])
        w2 = MixtureModel.vary_alpha(d, 0.2, [(0.34, 0.66), (0.66, 0.34)])
        v = check_hr(v2, w2, grid_default)
        assert v.holds_leq and not v.holds_geq
        assert v.hazard_holds_leq is True and v.hazard_holds_geq is False
        assert not v.hazard_disagrees
        assert v.truncated_at_t is not None  # survival underflows near t = 1

    def test_truncation_is_recorded(self, grid_default):
        d = Exponential(3.0)
        m = MixtureModel.vary_alpha(d, 0.2, [(0.5, 0.5), (0.5, 0.8)])
        v = check_hr(m, m, grid_default)
        assert v.truncated_at_t is not None
        assert any("truncated" in n for n in v.notes)


class TestSharedKernel:
    @staticmethod
    def count_baseline_calls(monkeypatch, cls):
        calls = collections.Counter()
        for name in ("survival", "log_survival", "density", "hazard"):
            def counted(self, x, _name=name, _orig=getattr(cls, name)):
                calls[_name] += 1
                return _orig(self, x)
            monkeypatch.setattr(cls, name, counted)
        return calls

    def test_shared_baseline_evaluated_once_per_verdict(self, monkeypatch, grid_default):
        # equal, not identical, baselines count as shared
        a = MixtureModel.vary_alpha(Exponential(3.0), 0.2, [(0.3, 0.7), (0.7, 0.3)])
        b = MixtureModel.vary_alpha(Exponential(3.0), 0.2, [(0.34, 0.66), (0.66, 0.34)])
        calls = self.count_baseline_calls(monkeypatch, Exponential)
        check_st(a, b, grid_default)
        assert calls == {"log_survival": 1}
        calls.clear()
        check_hr(a, b, grid_default)
        assert calls == {"log_survival": 1, "hazard": 1}

    def test_hr_proposition_evaluates_the_hazard_once(self, monkeypatch):
        # the baseline_hazard_positive hypothesis and the hr check share one evaluation
        tid, s = example_scenario(6)
        calls = self.count_baseline_calls(monkeypatch, Exponential)
        report = check_theorem(tid, s)
        assert calls == {"log_survival": 1, "hazard": 1}
        assert report.conclusion.hazard_holds_leq is not None

    def test_distinct_baselines_evaluated_per_model(self, monkeypatch, grid_default):
        a = MixtureModel.vary_alpha(Exponential(3.0), 0.2, [(0.3, 0.7), (0.7, 0.3)])
        b = MixtureModel.vary_alpha(Exponential(2.0), 0.2, [(0.3, 0.7), (0.7, 0.3)])
        calls = self.count_baseline_calls(monkeypatch, Exponential)
        check_hr(a, b, grid_default)
        assert calls == {"log_survival": 2, "hazard": 2}

    # verdicts of the per-method implementation, which evaluated survival and
    # hazard separately, recomputing hazards on the kept prefix
    TRUNCATED = [
        (
            (Exponential(3.0), "vary_alpha", 0.2, [(0.3, 0.7), (0.7, 0.3)]),
            (Exponential(3.0), "vary_alpha", 0.2, [(0.34, 0.66), (0.66, 0.34)]),
            dict(holds_leq=True, holds_geq=False, max_violation_leq=4.155915065441762e-16,
                 max_violation_geq=9.159331908692447e-05, witness_t=0.0001,
                 hazard_holds_leq=True, hazard_holds_geq=False,
                 truncated_at_t=0.9994001000000001),
        ),
        (
            (Exponential(3.0), "vary_lambda", 0.5, [(0.4, 0.3), (0.6, 2.0)]),
            (Exponential(2.0), "vary_lambda", 0.5, [(0.5, 0.4), (0.5, 1.5)]),
            dict(holds_leq=False, holds_geq=False, max_violation_leq=7.808446630203409e-05,
                 max_violation_geq=0.0023925723706255397, witness_t=0.9499100000000001,
                 hazard_holds_leq=False, hazard_holds_geq=False,
                 truncated_at_t=0.9989002000000001),
        ),
    ]

    @pytest.mark.parametrize("spec1, spec2, expected", TRUNCATED)
    def test_truncated_hr_verdict_unchanged(self, spec1, spec2, expected, grid_default):
        m1, m2 = (getattr(MixtureModel, v)(d, c, comps) for d, v, c, comps in (spec1, spec2))
        v = check_hr(m1, m2, grid_default)
        for name, want in expected.items():
            if name.startswith("max_violation"):
                assert getattr(v, name) == pytest.approx(want, rel=1e-9, abs=1e-14), name
            else:
                assert getattr(v, name) == want, name
        assert not v.inconclusive and not v.hazard_disagrees
        t_cut = expected["truncated_at_t"]
        assert v.notes == (f"grid truncated at t={t_cut:.6g} (survival underflow)",)

    def test_truncated_before_two_points_is_inconclusive(self, grid_default):
        m = MixtureModel.vary_alpha(Exponential(1e7), 0.5, [(0.5, 0.3), (0.5, 0.6)])
        v = check_hr(m, m, grid_default)
        assert v.inconclusive and v.reason == "fewer than two grid points with positive survival"
        assert v.truncated_at_t == 0.0005999000000000001
        assert v.hazard_holds_leq is None and v.notes == ()


class TestCheckStar:
    def test_identical_models(self):
        m = degenerate(alpha=0.7, lam=0.9)
        v = check_star(m, m, default_grid(201, 1e-3, 0.99))
        assert v.holds_leq and v.holds_geq

    @pytest.mark.parametrize("k", range(1, 8))
    def test_identical_models_down_to_tiny_cdf_levels(self, k):
        # levels come from the kernel's cancellation-free cdf, not 1 - survival,
        # so a model compared with itself holds both ways down to t = 1e-12
        _, s = example_scenario(k)
        for m in (s.model_a(), s.model_b()):
            for t_min in (1e-12, 1e-9):
                v = check_star(m, m, default_grid(2001, t_min, 0.5))
                assert v.holds_leq and v.holds_geq
                assert max(v.max_violation_leq, v.max_violation_geq) < 1e-13

    def test_scale_family_equivalence(self):
        # exp(1) vs exp(2): the quantile transport is x/2, so both directions hold
        v = check_star(degenerate(), degenerate(Exponential(2.0)), default_grid(301, 1e-3, 0.995))
        assert v.holds_leq and v.holds_geq

    def test_two_group_heavy_tail_pair(self, burr):
        m = MixtureModel.vary_alpha(burr, 0.1, [(0.9, 8.0), (0.1, 2.0)])
        n = MixtureModel.vary_alpha(burr, 0.1, [(0.9, 6.0), (0.1, 3.0)])
        v = check_star(m, n, default_grid(301))
        assert v.holds_geq and not v.holds_leq


def cold_check_star(m1, m2, grid):
    """``check_star`` from the public ``quantile``'s slope start: the reference."""
    u1, u2 = m1.cdf(grid.x_values), m2.cdf(grid.x_values)
    keep = (u1 > _CDF_LO) & (u1 < _CDF_HI) & (u2 > _CDF_LO) & (u2 < _CDF_HI)
    notes = () if np.all(keep) else (f"{int(np.sum(~keep))} grid points dropped (cdf at 0 or 1)",)
    t, x = grid.t_values[keep], grid.x_values[keep]
    if t.size < 2:
        return _undecided("fewer than two grid points with invertible cdf", notes=notes)
    try:
        s_12, s_21 = m2.quantile(u1[keep]), m1.quantile(u2[keep])
    except TailError as exc:
        return _undecided(f"quantile inversion hit the tail guard: {exc}", notes=notes)
    return _directional_verdict(
        _monotone_violations(s_12 / x), _monotone_violations(s_21 / x), t[:-1], DEFAULT_SLACK,
        notes=notes,
    )


def star_pairs():
    """Examples 5 and 7, a light pair, a distinct-baseline pair and 64 seeded random pairs."""
    pairs = []
    for k in (5, 7):
        _, s = example_scenario(k)
        pairs.append((f"example{k}", s.model_a(), s.model_b(), s.grid))
    grid = default_grid()
    rng = np.random.default_rng(0)
    p1 = rng.uniform(0.2, 0.8)
    light = Scenario(
        baseline=Exponential(rng.uniform(0.1, 0.3)), variant="vary_alpha",
        common_param=rng.uniform(0.05, 0.15),
        matrix_a=ParameterMatrix((p1, 1.0 - p1), tuple(rng.uniform(0.2, 0.9, size=2))),
        chain=(TTransform(rng.uniform(0.2, 0.8), (1, 0)),),
    )
    pairs.append(("light", light.model_a(), light.model_b(), grid))
    pairs.append(("distinct_baselines",
                  MixtureModel.vary_alpha(Exponential(0.5), 0.8, [(0.3, 0.4), (0.7, 1.5)]),
                  MixtureModel.vary_lambda(PowerBurr(1.5, 1.2), 0.6, [(0.5, 0.7), (0.5, 2.0)]),
                  grid))
    rng = np.random.default_rng(2024)
    variants = ("vary_alpha", "vary_lambda")
    for i in range(64):
        m1 = random_mixture(rng, variants[i % 2])
        m2 = random_mixture(rng, variants[i // 2 % 2])
        if i % 8 < 4:
            m2 = replace(m2, baseline=m1.baseline)
        pairs.append((f"random{i}", m1, m2, grid))
    return pairs


STAR_PAIRS = star_pairs()


class TestStarWarmStart:
    """``check_star``'s table-started inversions give the cold reference's verdicts."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m1, m2, grid", [p[1:] for p in STAR_PAIRS],
                             ids=[p[0] for p in STAR_PAIRS])
    def test_matches_cold_reference(self, m1, m2, grid):
        got, want = check_star(m1, m2, grid), cold_check_star(m1, m2, grid)
        for name in ("holds_leq", "holds_geq", "inconclusive", "notes", "reason"):
            assert getattr(got, name) == getattr(want, name), name
        np.testing.assert_equal(got.witness_t, want.witness_t)
        for name in ("max_violation_leq", "max_violation_geq"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=0, abs=1e-12,
                                                       nan_ok=True), name

    def test_pairs_cover_every_outcome(self):
        # the reference's verdicts on the pairs: each direction, neither, the tail guard
        outcomes = collections.Counter()
        for _, m1, m2, grid in STAR_PAIRS:
            v = cold_check_star(m1, m2, grid)
            outcomes[v.inconclusive, v.holds_leq, v.holds_geq] += 1
        assert set(outcomes) >= {(False, True, False), (False, False, True),
                                 (False, False, False), (True, False, False)}, outcomes


# -- Lorenz ----------------------------------------------------------------------


class TestLorenz:
    def test_exponential_closed_form(self):
        # L(p) = p + (1-p) ln(1-p); rate-free
        curve = lorenz_curve(degenerate(Exponential(1.7)))
        idx = int(np.argmin(np.abs(curve.p_values - 0.5)))
        assert curve.l_values[idx] == pytest.approx(0.15342640972002734, abs=1e-3)

    def test_normalization(self):
        curve = lorenz_curve(degenerate())
        assert curve.l_values[-1] == pytest.approx(1.0, abs=1e-3)
        assert curve.l_values[0] == pytest.approx(0.0, abs=1e-3)

    def test_convexity_and_below_diagonal(self):
        for m in (degenerate(), degenerate(alpha=0.4, lam=0.8)):
            curve = lorenz_curve(m)
            slopes = np.diff(curve.l_values) / np.diff(curve.p_values)
            assert np.all(np.diff(slopes) >= -1e-9 * np.maximum(1.0, slopes[:-1]))
            assert np.all(np.diff(curve.l_values) >= -1e-12)
            # clipping the u-range inflates L by at most the clipped mass share
            assert np.max(curve.l_values - curve.p_values) <= 1e-4

    def test_rate_free_comparison(self):
        v = check_lorenz(degenerate(Exponential(0.5)), degenerate(Exponential(3.0)))
        assert v.holds_leq and v.holds_geq

    def test_heavy_tail_guard_fires(self, burr):
        m = MixtureModel.vary_alpha(burr, 0.1, [(0.9, 8.0), (0.1, 2.0)])
        with pytest.raises(InfiniteMeanSuspected):
            lorenz_curve(m)

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(0.05, 3.0),
        b=st.floats(0.05, 3.0),
        lams=st.lists(st.floats(0.01, 3.0), min_size=2, max_size=5),
        alphas=st.lists(st.floats(0.1, 5.0), min_size=2, max_size=5),
        variant=st.sampled_from(["vary_alpha", "vary_lambda"]),
    )
    def test_tail_index_at_most_one_is_infinite_mean(self, a, b, lams, alphas, variant):
        # survival ~ x**-(a*b*min(lam)): the mean is infinite when that index is <= 1
        assume(a * b * min(lams) <= 1.0)
        d = PowerBurr(a, b)
        if variant == "vary_lambda":
            m = MixtureModel.vary_lambda(d, alphas[0], [(1.0 / len(lams), l) for l in lams])
        else:
            m = MixtureModel.vary_alpha(d, min(lams), [(1.0 / len(alphas), t) for t in alphas])
        with pytest.raises(InfiniteMeanSuspected):
            lorenz_curve(m)

    def test_finite_tail_index_integrates(self):
        # tail index 2*2*0.5 = 2 > 1: finite mean, the curve is computed
        m = MixtureModel.vary_lambda(PowerBurr(2.0, 2.0), 0.7, [(0.4, 0.5), (0.6, 1.5)])
        curve = lorenz_curve(m)
        assert curve.l_values[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(curve.l_values) >= 0)

    def test_finite_mean_with_heavy_top_percent_integrates(self):
        # tail index 1.05 > 1: the mean is finite, though the top 1% of the
        # u-range carries most of the clipped integral
        m = MixtureModel.vary_alpha(PowerBurr(1.0, 1.05), 1.0, [(0.5, 5000.0), (0.5, 5000.0)])
        curve = lorenz_curve(m)
        assert np.isfinite(curve.mean) and curve.mean > 0
        assert curve.l_values[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(curve.l_values) >= 0)

    def test_tail_guard_is_reported_as_tail_error(self):
        # tail index 1.2 > 1, but the top levels lie past cdf(1e18): the
        # quantile's guard, not an infinite mean
        m = MixtureModel.vary_alpha(PowerBurr(1.0, 1.2), 1.0, [(0.5, 1e17), (0.5, 1e17)])
        with pytest.raises(TailError, match="lies past cdf"):
            lorenz_curve(m)
        with pytest.raises(TailError):
            check_lorenz(m, m)

    def test_two_group_exponential_baseline_direction(self):
        # with an exponential baseline the wider-tilt mixture has the *higher*
        # Lorenz curve pointwise (max gap ~1e-2), putting it below in this order
        d = Exponential(0.2)
        m = MixtureModel.vary_alpha(d, 0.1, [(0.9, 8.0), (0.1, 2.0)])
        n = MixtureModel.vary_alpha(d, 0.1, [(0.9, 6.0), (0.1, 3.0)])
        v = check_lorenz(m, n)
        assert v.holds_leq and not v.holds_geq
        assert v.max_violation_geq == pytest.approx(9.82e-3, rel=0.1)


# -- sign-function evaluators ------------------------------------------------------


class TestHPa:
    def test_symmetric_zero(self):
        assert h_pa((0.5, 0.5), (0.3, 0.3), 0.7, EXP1, 1.0) == 0.0

    def test_reference_point_negative(self):
        assert h_pa((0.6, 0.4), (0.3, 0.4), 0.1, Exponential(0.2), 1.0) < 0.0

    def test_opposite_rows_nonpositive(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            p1 = rng.uniform(0.5, 0.95)
            a1 = rng.uniform(0.05, 1.0)
            a2 = rng.uniform(a1, 3.0)  # p1 >= p2 with a1 <= a2
            x = rng.uniform(0.01, 10.0)
            val = h_pa((p1, 1 - p1), (a1, a2), rng.uniform(0.2, 2.0), EXP1, x)
            assert val <= 1e-15

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            p1 = rng.uniform(0.1, 0.9)
            p2 = 1 - p1
            a1 = rng.uniform(0.1, 2.0)
            a2 = a1 + rng.choice([-1, 1]) * rng.uniform(0.1, 0.8)
            if a2 <= 0.05:
                a2 = a1 + 0.3
            lam = rng.uniform(0.2, 2.0)
            x = rng.uniform(0.1, 5.0)
            z = float(EXP1.survival(x)) ** lam
            oracle = fd_combination(
                lambda q1, q2, b1, b2: survival_alpha_form(q1, q2, b1, b2, z),
                (p1, p2, a1, a2),
            )
            assert h_pa((p1, p2), (a1, a2), lam, EXP1, x) == pytest.approx(oracle, rel=1e-5)


class TestHPlambda:
    def test_symmetric_zero(self):
        assert h_plambda((0.5, 0.5), (0.7, 0.7), 0.3, EXP1, 1.0) == 0.0

    def test_opposite_rows_nonnegative(self):
        # weights decreasing while rate powers increase, shared tilt in (0, 1)
        rng = np.random.default_rng(23)
        for _ in range(100):
            p1 = rng.uniform(0.5, 0.95)
            l1 = rng.uniform(0.1, 1.5)
            l2 = rng.uniform(l1, 3.0)
            alpha = rng.uniform(0.05, 1.0)
            x = rng.uniform(0.01, 10.0)
            assert h_plambda((p1, 1 - p1), (l1, l2), alpha, EXP1, x) >= -1e-15

    def test_reference_constants_nonnegative(self):
        rng = np.random.default_rng(230)
        d = Exponential(2.0)
        for _ in range(100):
            x = rng.uniform(0.01, 10.0)
            assert h_plambda((0.2, 0.8), (0.5, 0.25), 0.2, d, x) >= -1e-15

    def test_similar_rows_with_odds_ordering_nonpositive(self):
        # p1 >= p2 and l1 >= l2; keep only draws satisfying the pointwise
        # weighted-odds ordering, under which the combination must be <= 0
        rng = np.random.default_rng(24)
        kept = 0
        while kept < 100:
            p1 = rng.uniform(0.5, 0.95)
            l2 = rng.uniform(0.1, 1.5)
            l1 = rng.uniform(l2, 3.0)
            alpha = rng.uniform(0.05, 1.0)
            x = rng.uniform(0.01, 5.0)
            s = float(EXP1.survival(x))
            z1, z2 = s**l1, s**l2
            m1, m2 = 1 - (1 - alpha) * z1, 1 - (1 - alpha) * z2
            if p1 * alpha * z1 / m1**2 < (1 - p1) * alpha * z2 / m2**2:
                continue
            kept += 1
            assert h_plambda((p1, 1 - p1), (l1, l2), alpha, EXP1, x) <= 1e-15

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            p1 = rng.uniform(0.1, 0.9)
            p2 = 1 - p1
            l1 = rng.uniform(0.2, 2.0)
            l2 = l1 + rng.choice([-1, 1]) * rng.uniform(0.1, 0.8)
            if l2 <= 0.05:
                l2 = l1 + 0.3
            alpha = rng.uniform(0.1, 0.95)
            x = rng.uniform(0.1, 5.0)
            s = float(EXP1.survival(x))
            oracle = fd_combination(
                lambda q1, q2, b1, b2: survival_lambda_form(q1, q2, b1, b2, alpha, s),
                (p1, p2, l1, l2),
            )
            assert h_plambda((p1, p2), (l1, l2), alpha, EXP1, x) == pytest.approx(
                oracle, rel=1e-5
            )


class TestHHr:
    def test_symmetric_zero(self):
        assert h_hr((0.5, 0.5), (0.4, 0.4), 0.7, EXP1, 1.0) == 0.0

    def test_balance_precondition_enforced(self):
        with pytest.raises(ParameterError):
            h_hr((0.6, 0.4), (0.3, 0.4), 0.2, EXP1, 1.0)

    def test_balanced_reference_point_nonnegative(self):
        rng = np.random.default_rng(26)
        d = Exponential(3.0)
        for _ in range(100):
            x = rng.uniform(0.01, 5.0)
            assert h_hr((0.3, 0.7), (0.7, 0.3), 0.2, d, x) >= -1e-15

    def test_balanced_random_draws_nonnegative(self):
        rng = np.random.default_rng(27)
        kept = 0
        while kept < 100:
            p1 = rng.uniform(0.1, 0.9)
            a1 = rng.uniform(0.05, 1.0)
            a2 = p1 * a1 / (1 - p1)
            if not (0 < a2 <= 1.0):
                continue
            kept += 1
            x = rng.uniform(0.01, 8.0)
            lam = rng.uniform(0.2, 2.0)
            assert h_hr((p1, 1 - p1), (a1, a2), lam, EXP1, x) >= -1e-14

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(28)
        kept = 0
        while kept < 100:
            p1 = rng.uniform(0.15, 0.85)
            a1 = rng.uniform(0.1, 1.0)
            a2 = p1 * a1 / (1 - p1)
            if not (0.05 < a2 <= 1.0) or abs(a1 - a2) < 0.05:
                continue
            lam = rng.uniform(0.2, 2.0)
            x = rng.uniform(0.1, 5.0)
            z = float(EXP1.survival(x)) ** lam
            oracle = fd_combination(
                lambda q1, q2, b1, b2: hazard_alpha_form(q1, q2, b1, b2, z, lam, 1.0),
                (p1, 1 - p1, a1, a2),
            )
            if abs(oracle) < 1e-4:
                continue  # below this the difference quotient noise drowns 1e-5 relative
            kept += 1
            got = h_hr((p1, 1 - p1), (a1, a2), lam, EXP1, x)
            assert got == pytest.approx(oracle, rel=1e-5)
