import mpmath as mp
import numpy as np
import pytest

from mixorder import (
    Exponential,
    ParameterError,
    ParameterMatrix,
    PowerBurr,
    SEARCHABLE_IDS,
    Scenario,
    ShapeError,
    THEOREM_IDS,
    TTransform,
    check_theorem,
    default_grid,
    example_scenario,
    search_counterexamples,
    t7_ratio_monotone,
    verify_example,
)


class TestVerifyExamples:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_all_reports_consistent(self, k):
        report = verify_example(k, grid_points=401 if k == 7 else None)
        assert report.consistent

    def test_ids_validated(self):
        with pytest.raises(ParameterError):
            verify_example(0)
        with pytest.raises(ParameterError):
            verify_example(8)

    def test_example2_chain_reproduction(self):
        _, s = example_scenario(2)
        b = s.resolved_matrix_b()
        assert np.allclose(b.top_row, (0.2, 0.388, 0.412), atol=1e-12)
        assert np.allclose(b.bottom_row, (0.5, 0.212, 0.188), atol=1e-12)

    def test_example5_chain_reproduction(self):
        _, s = example_scenario(5)
        b = s.resolved_matrix_b()
        assert np.allclose(b.bottom_row, (3.0, 4.44, 4.56), atol=1e-12)

    def test_example6_balance_detail(self):
        report = verify_example(6)
        detail = {h.name: h.detail for h in report.hypotheses}["weight_tilt_products_equal"]
        assert "0.21" in detail

    def test_example7_honest_hypothesis_failures(self):
        report = verify_example(7, grid_points=401)
        status = {h.name: h.satisfied for h in report.hypotheses}
        assert status["tilt_interval_nesting"]          # 8 >= 6 >= 3 >= 2
        assert status["group_weighted_tilt_sums_ordered"]  # 28 >= 24
        assert not status["first_group_weight_not_larger"]  # 0.3 > 0.05
        assert not status["survival_deficit_ratio_nonincreasing"]  # ratio rises
        assert report.conclusion_holds  # the star dominance holds regardless
        assert report.consistent  # failed hypotheses mean no red flag

    def test_reports_are_pure(self):
        tid, s = example_scenario(1)
        assert check_theorem(tid, s) == check_theorem(tid, s)


class TestCheckTheorem:
    def test_unknown_id(self):
        _, s = example_scenario(1)
        with pytest.raises(ParameterError):
            check_theorem("T9", s)

    def test_arity_enforced(self):
        _, s = example_scenario(2)  # width 3
        with pytest.raises(ShapeError):
            check_theorem("T1i", s)

    def test_variant_enforced(self):
        _, s = example_scenario(4)  # vary_lambda
        with pytest.raises(ParameterError):
            check_theorem("T1i", s)

    def test_hypothesis_gate_reports_not_applicable(self):
        # similarly ordered rows sit in L2, so the K2 hypothesis fails while
        # the conclusion is still computed for information
        s = Scenario(
            baseline=Exponential(1.0),
            variant="vary_alpha",
            common_param=0.5,
            matrix_a=ParameterMatrix((0.7, 0.3), (0.8, 0.2)),
            chain=(TTransform(0.6, (1, 0)),),
            grid=default_grid(201),
        )
        report = check_theorem("T1i", s)
        status = {h.name: h.satisfied for h in report.hypotheses}
        assert not status["matrix_a_in_K"]
        assert report.consistent  # gate failed, so no inconsistency either way
        assert report.conclusion is not None

    def test_part_two_requires_side_condition(self):
        # T1ii on a similarly-ordered matrix: side condition evaluated on the grid
        s = Scenario(
            baseline=Exponential(1.0),
            variant="vary_alpha",
            common_param=0.5,
            matrix_a=ParameterMatrix((0.7, 0.3), (0.8, 0.2)),
            chain=(TTransform(0.6, (1, 0)),),
            grid=default_grid(201),
        )
        report = check_theorem("T1ii", s)
        names = [h.name for h in report.hypotheses]
        assert "matrix_a_in_L" in names and "tilt_weighted_survival_ordering" in names
        assert report.consistent

    def test_single_transform_families(self):
        # T2i accepts a 3-wide matrix with one transform
        s = Scenario(
            baseline=Exponential(1.0),
            variant="vary_alpha",
            common_param=0.4,
            matrix_a=ParameterMatrix((0.2, 0.3, 0.5), (0.5, 0.3, 0.1)),
            chain=(TTransform(0.5, (0, 2, 1)),),
            grid=default_grid(201),
        )
        report = check_theorem("T2i", s)
        assert report.all_hypotheses_hold and report.conclusion_holds

    def test_intermediate_membership_family(self):
        tid, s = example_scenario(3)
        assert tid == "C2i"
        report = check_theorem(tid, s)
        inter = {h.name: h for h in report.hypotheses}["intermediates_in_K"]
        assert inter.satisfied and "A*T1..T2" in inter.detail

    def test_two_group_requires_group_sizes(self):
        _, s = example_scenario(7)
        stripped = Scenario(
            baseline=s.baseline, variant=s.variant, common_param=s.common_param,
            matrix_a=s.matrix_a, matrix_b=s.matrix_b, grid=default_grid(101),
        )
        with pytest.raises(ShapeError):
            check_theorem("T7", stripped)

    def test_matrix_b_only_scenario_cannot_verify_chain(self):
        s = Scenario(
            baseline=Exponential(1.0),
            variant="vary_alpha",
            common_param=0.5,
            matrix_a=ParameterMatrix((0.6, 0.4), (0.3, 0.4)),
            matrix_b=ParameterMatrix((0.48, 0.52), (0.36, 0.34)),
            grid=default_grid(201),
        )
        report = check_theorem("T1i", s)
        chain_hyp = {h.name: h for h in report.hypotheses}["chain_majorization_witness"]
        assert not chain_hyp.satisfied and "not verifiable" in chain_hyp.detail
        assert report.consistent


class TestWideFamilies:
    """The n-component hazard-dominance and rate-power variants all dispatch.

    For three or more components the hazard-dominance claim genuinely fails on
    hypothesis-satisfying scenarios (the mixture hazard is a ratio of sums, so
    the two-component argument does not compose): with weights (0.2, 0.3, 0.5)
    and tilts (0.3, 0.2, 0.12) under a single omega=0.6 transform, the hazard
    gap starts at +0.256 and crosses to about -2e-4 near x = 3 (checked in
    50-digit arithmetic by ``test_t6_hazard_crossing_in_50_digits``).  The
    checker must raise its red flag there.
    """

    def _balanced_matrix(self):
        # weight*tilt products all equal 0.06, rows oppositely ordered
        return ParameterMatrix((0.2, 0.3, 0.5), (0.3, 0.2, 0.12))

    def test_t6_hazard_crossing_in_50_digits(self):
        s = Scenario(
            baseline=Exponential(1.0), variant="vary_alpha", common_param=0.4,
            matrix_a=self._balanced_matrix(), chain=(TTransform(0.6, (0, 2, 1)),),
        )

        def hazard(m, x):
            # exponential(1) baseline: log S = -x and r = 1
            num = den = mp.mpf(0)
            for p, a, lam in zip(m.weights, m.alphas, m.lams):
                p, a, lam = mp.mpf(p), mp.mpf(a), mp.mpf(lam)
                z = mp.exp(-lam * x)
                m_i = 1 - (1 - a) * z
                num += p * lam * a * z / m_i**2
                den += p * a * z / m_i
            return num / den

        with mp.workdps(50):
            gap = [hazard(s.model_a(), mp.mpf(x)) - hazard(s.model_b(), mp.mpf(x)) for x in (0, 3)]
        assert gap[0] == pytest.approx(0.2566, abs=1e-4)
        assert gap[1] == pytest.approx(-2.0e-4, abs=1e-5)
        assert gap[0] > 0 > gap[1]

    def test_t6_counterexample_is_red_flagged(self):
        s = Scenario(
            baseline=Exponential(1.0), variant="vary_alpha", common_param=0.4,
            matrix_a=self._balanced_matrix(),
            chain=(TTransform(0.6, (0, 2, 1)),), grid=default_grid(2001),
        )
        report = check_theorem("T6", s)
        assert report.all_hypotheses_hold
        assert not report.conclusion_holds
        assert not report.consistent
        # the crossing also defeats the reverse direction
        assert not report.conclusion.holds_geq
        assert report.conclusion.max_violation_leq > 1e-6

    def test_c5_same_structure_chain_shares_the_counterexample(self):
        s = Scenario(
            baseline=Exponential(1.0), variant="vary_alpha", common_param=0.4,
            matrix_a=self._balanced_matrix(),
            chain=(TTransform(0.6, (0, 2, 1)), TTransform(0.3, (0, 2, 1))),
            grid=default_grid(2001),
        )
        report = check_theorem("C5", s)
        assert report.all_hypotheses_hold
        assert not report.consistent

    def test_c6_mixed_structure_instance_holds(self):
        # not every wide scenario breaks: this mixed-structure chain keeps the
        # dominance, exercising the green path of the same family
        s = Scenario(
            baseline=Exponential(1.0), variant="vary_alpha", common_param=0.4,
            matrix_a=self._balanced_matrix(),
            chain=(TTransform(0.5, (0, 2, 1)), TTransform(0.5, (1, 0, 2))),
            grid=default_grid(2001),
        )
        report = check_theorem("C6", s)
        assert report.all_hypotheses_hold and report.conclusion_holds

    def test_t6_search_reproduces_counterexamples(self):
        findings = search_counterexamples("T6", 60, seed=77)
        assert len(findings) > 0
        for r in findings:
            assert r.all_hypotheses_hold and not r.consistent

    def test_t4i_single_transform(self):
        s = Scenario(
            baseline=Exponential(0.2), variant="vary_lambda", common_param=0.2,
            matrix_a=ParameterMatrix((0.5, 0.4, 0.1), (3.0, 4.0, 5.0)),
            chain=(TTransform(0.4, (0, 2, 1)),), grid=default_grid(401),
        )
        report = check_theorem("T4i", s)
        assert report.all_hypotheses_hold and report.conclusion_holds

    def test_c4i_mixed_structure_chain(self):
        s = Scenario(
            baseline=Exponential(0.2), variant="vary_lambda", common_param=0.2,
            matrix_a=ParameterMatrix((0.5, 0.4, 0.1), (3.0, 4.0, 5.0)),
            chain=(TTransform(0.3, (0, 2, 1)), TTransform(0.4, (1, 0, 2))),
            grid=default_grid(401),
        )
        report = check_theorem("C4i", s)
        inter = {h.name: h for h in report.hypotheses}["intermediates_in_K"]
        assert inter.satisfied
        assert report.all_hypotheses_hold and report.conclusion_holds

    def test_t3ii_side_condition_fails_in_tail(self):
        # similarly ordered rows: the weighted-odds ordering cannot hold for
        # all x (the lighter tail loses eventually), and the report says so
        s = Scenario(
            baseline=Exponential(1.0), variant="vary_lambda", common_param=0.3,
            matrix_a=ParameterMatrix((0.7, 0.3), (2.0, 1.0)),
            chain=(TTransform(0.5, (1, 0)),), grid=default_grid(401),
        )
        report = check_theorem("T3ii", s)
        status = {h.name: h.satisfied for h in report.hypotheses}
        assert status["matrix_a_in_L"]
        assert not status["weighted_odds_ordering"]
        assert report.consistent


class TestRatioMonotone:
    def test_exponential_is_decreasing(self):
        # (1 - e^{-u})/u is decreasing in u, so any rate and power qualifies
        for rate, lam in ((0.7, 0.3), (2.0, 1.5), (0.2, 0.1)):
            report = t7_ratio_monotone(Exponential(rate), lam, default_grid(1001))
            assert report.nonincreasing

    def test_heavy_tail_power_pair_is_increasing(self):
        # for (1+x**a)**(-b) with b*lam < 1 the ratio rises from b*lam/(a*b*lam)
        # toward 1/(a*b*lam); at a=0.2, b=0.5, lam=0.1 it climbs ~5 -> ~11
        report = t7_ratio_monotone(PowerBurr(0.2, 0.5), 0.1, default_grid(2001))
        assert not report.nonincreasing
        assert report.max_violation > 1e-6

    def test_heavy_tail_with_large_power_is_decreasing(self):
        # b*lam >= 1 restores monotone decrease
        report = t7_ratio_monotone(PowerBurr(0.2, 0.5), 2.5, default_grid(1001))
        assert report.nonincreasing

    def test_single_point_grid_rejected(self):
        with pytest.raises(ParameterError):
            t7_ratio_monotone(Exponential(1.0), 1.0, default_grid(1))


class TestSearch:
    def test_trials_validated(self):
        with pytest.raises(ParameterError):
            search_counterexamples("T1i", 0, seed=1)

    def test_unknown_id(self):
        with pytest.raises(ParameterError):
            search_counterexamples("C7", 10, seed=1)

    def test_validated_claims_produce_no_findings(self):
        for tid in ("T1i", "T3i", "T5"):
            assert search_counterexamples(tid, 50, seed=99) == []

    def test_dropping_balance_constraint_breaks_claim(self):
        findings = search_counterexamples("T5_unconstrained", 200, seed=42)
        assert len(findings) > 0
        for report in findings:
            assert not report.consistent
            assert report.all_hypotheses_hold
            assert np.isfinite(report.conclusion.witness_t)
            assert any("search trial" in n for n in report.notes)

    def test_deterministic_per_seed(self):
        a = search_counterexamples("T5_unconstrained", 100, seed=7)
        b = search_counterexamples("T5_unconstrained", 100, seed=7)
        assert a == b
        c = search_counterexamples("T5_unconstrained", 100, seed=8)
        assert len(c) == 0 or c != a


# -- the proposition contract, frozen -------------------------------------------------

_W, _SINGLE, _SAME = "chain_majorization_witness", "single_t_transform", "same_structure_chain"
_LEN = "chain_length_at_least_two"
_ALPHA_SIDE, _LAMBDA_SIDE = "tilt_weighted_survival_ordering", "weighted_odds_ordering"
_BALANCE, _HAZARD = "weight_tilt_products_equal", "baseline_hazard_positive"
_TWO_GROUP = [
    "survival_deficit_ratio_nonincreasing", "same_mixing_weights", "tilt_interval_nesting",
    "first_group_weight_not_larger", "group_weighted_tilt_sums_ordered",
]
_ST_BELOW = "model A below model B in the usual stochastic order (A <=st B)"
_ST_ABOVE = "model A above model B in the usual stochastic order (A >=st B)"
_HR = "hazard of model A dominates model B pointwise (survival ratio S_B/S_A nondecreasing)"
_STAR = "model A dominates model B in the star order (A >=star B)"
_LORENZ = "model A dominates model B in the Lorenz order (A >=lorenz B)"
_NOTE_K = ("intermediate products are required to remain in K_n",)
_NOTE_L = ("intermediate products are required to remain in L_n",)
_PROBE = ("weight*tilt balance deliberately dropped (necessity probe)",)

# id: (variant, 2x2 only, hypothesis names in order, asserted, notes)
CONTRACT = {
    "T1i": ("vary_alpha", True, [_W, "matrix_a_in_K"], _ST_BELOW, ()),
    "T1ii": ("vary_alpha", True, [_W, "matrix_a_in_L", _ALPHA_SIDE], _ST_ABOVE, ()),
    "T2i": ("vary_alpha", False, [_W, _SINGLE, "matrix_a_in_K"], _ST_BELOW, ()),
    "T2ii": ("vary_alpha", False, [_W, _SINGLE, "matrix_a_in_L", _ALPHA_SIDE], _ST_ABOVE, ()),
    "C1i": ("vary_alpha", False, [_W, _SAME, "matrix_a_in_K"], _ST_BELOW, ()),
    "C1ii": ("vary_alpha", False, [_W, _SAME, "matrix_a_in_L", _ALPHA_SIDE], _ST_ABOVE, ()),
    "C2i": ("vary_alpha", False, [_W, _LEN, "intermediates_in_K", "matrix_a_in_K"],
            _ST_BELOW, _NOTE_K),
    "C2ii": ("vary_alpha", False, [_W, _LEN, "intermediates_in_L", "matrix_a_in_L", _ALPHA_SIDE],
             _ST_ABOVE, _NOTE_L),
    "T3i": ("vary_lambda", True, [_W, "matrix_a_in_K"], _ST_ABOVE, ()),
    "T3ii": ("vary_lambda", True, [_W, "matrix_a_in_L", _LAMBDA_SIDE], _ST_BELOW, ()),
    "T4i": ("vary_lambda", False, [_W, _SINGLE, "matrix_a_in_K"], _ST_ABOVE, ()),
    "T4ii": ("vary_lambda", False, [_W, _SINGLE, "matrix_a_in_L", _LAMBDA_SIDE], _ST_BELOW, ()),
    "C3i": ("vary_lambda", False, [_W, _SAME, "matrix_a_in_K"], _ST_ABOVE, ()),
    "C3ii": ("vary_lambda", False, [_W, _SAME, "matrix_a_in_L", _LAMBDA_SIDE], _ST_BELOW, ()),
    "C4i": ("vary_lambda", False, [_W, _LEN, "intermediates_in_K", "matrix_a_in_K"],
            _ST_ABOVE, _NOTE_K),
    "C4ii": ("vary_lambda", False, [_W, _LEN, "intermediates_in_L", "matrix_a_in_L", _LAMBDA_SIDE],
             _ST_BELOW, _NOTE_L),
    "T5": ("vary_alpha", True, [_W, "matrix_a_in_K", _BALANCE, _HAZARD], _HR, ()),
    "T6": ("vary_alpha", False, [_W, _SINGLE, "matrix_a_in_K", _BALANCE, _HAZARD], _HR, ()),
    "C5": ("vary_alpha", False, [_W, _SAME, "matrix_a_in_K", _BALANCE, _HAZARD], _HR, ()),
    "C6": ("vary_alpha", False, [_W, _LEN, "intermediates_in_K", "matrix_a_in_K", _BALANCE, _HAZARD],
           _HR, ()),
    "T5_unconstrained": ("vary_alpha", True, [_W, "matrix_a_in_K", _HAZARD], _HR, _PROBE),
    "T7": ("vary_alpha", False, _TWO_GROUP, _STAR, ()),
    "C7": ("vary_alpha", False, _TWO_GROUP, _LORENZ, ()),
}


def _contract_scenario(variant: str, width: int, two_group: bool) -> Scenario:
    common = 0.3 if variant == "vary_alpha" else 0.4
    grid = default_grid(201)
    if two_group:
        return Scenario(
            baseline=Exponential(1.3), variant=variant, common_param=common,
            matrix_a=ParameterMatrix((0.3, 0.3, 0.4), (0.9, 0.9, 0.2)),
            matrix_b=ParameterMatrix((0.3, 0.3, 0.4), (0.7, 0.7, 0.4)),
            grid=grid, group_sizes=(2, 1),
        )
    if width == 2:
        bottom = (0.3, 0.6) if variant == "vary_alpha" else (0.5, 2.0)
        return Scenario(
            baseline=Exponential(1.3), variant=variant, common_param=common,
            matrix_a=ParameterMatrix((0.6, 0.4), bottom),
            chain=(TTransform(0.3, (1, 0)),), grid=grid,
        )
    bottom = (0.7, 0.5, 0.2) if variant == "vary_alpha" else (3.0, 1.0, 0.5)
    return Scenario(
        baseline=Exponential(1.3), variant=variant, common_param=common,
        matrix_a=ParameterMatrix((0.2, 0.3, 0.5), bottom),
        chain=(TTransform(0.4, (0, 2, 1)), TTransform(0.2, (1, 0, 2)), TTransform(0.6, (2, 1, 0))),
        grid=grid,
    )


class TestPropositionContract:
    def test_contract_covers_every_id(self):
        assert set(CONTRACT) == set(THEOREM_IDS) | {"T5_unconstrained"}
        assert len(CONTRACT) == 23

    @pytest.mark.parametrize("tid", sorted(CONTRACT))
    def test_hypotheses_asserted_and_notes(self, tid):
        variant, two_by_two, names, asserted, notes = CONTRACT[tid]
        two_group = tid in ("T7", "C7")
        report = check_theorem(tid, _contract_scenario(variant, 2 if two_by_two else 3, two_group))
        assert report.theorem_id == tid
        assert [h.name for h in report.hypotheses] == names
        assert report.asserted == asserted
        assert report.notes == notes

    @pytest.mark.parametrize("tid", sorted(CONTRACT))
    def test_required_variant(self, tid):
        variant, two_by_two, *_ = CONTRACT[tid]
        other = "vary_lambda" if variant == "vary_alpha" else "vary_alpha"
        s = _contract_scenario(other, 2 if two_by_two else 3, False)
        with pytest.raises(ParameterError) as exc:
            check_theorem(tid, s)
        assert str(exc.value) == f"{tid} needs a {variant} scenario, got {other}"

    @pytest.mark.parametrize("tid", sorted(CONTRACT))
    def test_arity(self, tid):
        variant, two_by_two, *_ = CONTRACT[tid]
        s = _contract_scenario(variant, 3, False)
        if two_by_two:
            with pytest.raises(ShapeError) as exc:
                check_theorem(tid, s)
            assert str(exc.value) == f"{tid} applies to 2x2 matrices, got width 3"
        elif tid in ("T7", "C7"):
            with pytest.raises(ShapeError, match="two-group propositions need explicit group sizes"):
                check_theorem(tid, s)
        else:
            assert check_theorem(tid, s).theorem_id == tid

    def test_matrix_b_scenario_reports_only_the_unverifiable_witness(self):
        s = _contract_scenario("vary_alpha", 3, True)
        report = check_theorem("C2ii", s)
        assert [h.name for h in report.hypotheses] == [_W, "matrix_a_in_L", _ALPHA_SIDE]
        assert report.notes == _NOTE_L


class TestFrozenFindings:
    """Trial indices of ``search_counterexamples(id, 60, seed=77)``."""

    FINDINGS = {
        "T1i": [],
        "T3i": [],
        "T5": [],
        "T5_unconstrained": [0, 3, 4, 5, 8, 9, 10, 11, 12, 17, 21, 22, 24, 26, 31, 32, 36, 41,
                             42, 47, 48, 50, 56],
        "T6": [0, 1, 4, 5, 7, 10, 17, 22, 24, 27, 31, 33, 35, 37, 39, 40, 41, 43, 45, 51, 52, 57],
    }

    def test_every_searchable_id_is_frozen(self):
        assert set(self.FINDINGS) == set(SEARCHABLE_IDS)

    @pytest.mark.parametrize("tid", sorted(FINDINGS))
    def test_trial_indices(self, tid):
        trials = []
        for report in search_counterexamples(tid, 60, seed=77):
            tags = [n for n in report.notes if n.startswith("search trial ")]
            assert len(tags) == 1
            trials.append(int(tags[0].split()[2].rstrip(":")))
        assert trials == self.FINDINGS[tid]
