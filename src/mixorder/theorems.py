"""Dominance propositions as checkable hypothesis/conclusion bundles.

Each proposition id names a sufficient-condition statement about two mixture
models derived from a 2 x n parameter matrix A and a transformed matrix B:

* ``T1i/T1ii, T2*, C1*, C2*`` -- usual stochastic order, vary-tilt mixtures.
* ``T3*, T4*, C3*, C4*``      -- usual stochastic order, vary-rate-power mixtures.
* ``T5, T6, C5, C6``          -- pointwise hazard dominance of the A-model
                                 (survival ratio S_B/S_A nondecreasing),
                                 under equal weight*tilt products.
* ``T7, C7``                  -- star / Lorenz dominance of the A-model for
                                 two-group tilt mixtures.

``check_theorem`` evaluates every hypothesis, runs the matching order check,
and reports ``consistent = False`` only in the red-flag state: all hypotheses
satisfied while the conclusion definitively fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .baseline import BaselineDistribution, make_baseline
from .errors import (
    InfiniteMeanSuspected,
    NumericalError,
    ParameterError,
    ShapeError,
    TailError,
)
from .majorization import (
    ParameterMatrix,
    TTransform,
    apply_chain,
    in_space,
    same_structure,
    verify_chain_witness,
)
from .mixture import EvaluationGrid, MixtureModel, default_grid
from .orders import OrderVerdict, check_hr, check_lorenz, check_st, check_star

__all__ = [
    "HypothesisCheck",
    "TheoremReport",
    "MonotoneReport",
    "Scenario",
    "THEOREM_IDS",
    "SEARCHABLE_IDS",
    "model_from_matrix",
    "check_theorem",
    "t7_ratio_monotone",
    "verify_example",
    "EXAMPLE_IDS",
    "search_counterexamples",
]

THEOREM_IDS = (
    "T1i", "T1ii", "T2i", "T2ii", "C1i", "C1ii", "C2i", "C2ii",
    "T3i", "T3ii", "T4i", "T4ii", "C3i", "C3ii", "C4i", "C4ii",
    "T5", "T6", "C5", "C6", "T7", "C7",
)

# T5_unconstrained is a pseudo-id: T5 with the weight*tilt balance dropped,
# used to probe necessity.  T6 is searchable because its three-component
# counterexamples are a genuine finding worth reproducing.
SEARCHABLE_IDS = ("T1i", "T3i", "T5", "T5_unconstrained", "T6")

_SIDE_TOL = 1e-12
_PRODUCT_TOL = 1e-10

_ST_ALPHA = {"T1i", "T1ii", "T2i", "T2ii", "C1i", "C1ii", "C2i", "C2ii"}
_ST_LAMBDA = {"T3i", "T3ii", "T4i", "T4ii", "C3i", "C3ii", "C4i", "C4ii"}
_HR_FAMILY = {"T5", "T6", "C5", "C6", "T5_unconstrained"}
_TWO_BY_TWO = {"T1i", "T1ii", "T3i", "T3ii", "T5", "T5_unconstrained"}
_SINGLE_T = {"T2i", "T2ii", "T4i", "T4ii", "T6"}
_SAME_STRUCTURE = {"C1i", "C1ii", "C3i", "C3ii", "C5"}
_INTERMEDIATES = {"C2i", "C2ii", "C4i", "C4ii", "C6"}


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    satisfied: bool
    detail: str = ""


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    hypotheses: tuple[HypothesisCheck, ...]
    conclusion: OrderVerdict
    asserted: str
    conclusion_holds: bool
    consistent: bool
    inconclusive: bool = False
    notes: tuple[str, ...] = ()

    @property
    def all_hypotheses_hold(self) -> bool:
        return all(h.satisfied for h in self.hypotheses)


@dataclass(frozen=True)
class MonotoneReport:
    """Nonincreasingness verdict for a tabulated ratio."""

    nonincreasing: bool
    max_violation: float
    witness_t: float
    inconclusive: bool = False
    reason: str = ""


@dataclass(frozen=True)
class Scenario:
    """Everything needed to instantiate two comparable mixture models.

    ``common_param`` is the shared rate power (vary_alpha) or shared tilt
    (vary_lambda).  B is derived by applying ``chain`` to ``matrix_a`` unless
    ``matrix_b`` is given directly; two-group propositions additionally need
    ``group_sizes``.
    """

    baseline: BaselineDistribution
    variant: str
    common_param: float
    matrix_a: ParameterMatrix
    chain: tuple[TTransform, ...] | None = None
    matrix_b: ParameterMatrix | None = None
    grid: EvaluationGrid = field(default_factory=default_grid)
    group_sizes: tuple[int, int] | None = None

    def __post_init__(self):
        if self.variant not in ("vary_alpha", "vary_lambda"):
            raise ParameterError(f"unknown model variant {self.variant!r}")
        if not (self.common_param > 0 and np.isfinite(self.common_param)):
            raise ParameterError("common parameter must be a positive real")
        if self.chain is None and self.matrix_b is None:
            raise ParameterError("scenario needs a transform chain or an explicit matrix_b")
        if self.chain is not None:
            object.__setattr__(self, "chain", tuple(self.chain))
            for t in self.chain:
                if t.n != self.matrix_a.n:
                    raise ShapeError(
                        f"transform size {t.n} does not match matrix width {self.matrix_a.n}"
                    )
        if self.matrix_b is not None and self.matrix_b.n != self.matrix_a.n:
            raise ShapeError("matrix_a and matrix_b widths differ")
        if self.group_sizes is not None:
            object.__setattr__(self, "group_sizes", tuple(int(g) for g in self.group_sizes))
            n1, n2 = self.group_sizes
            if n1 < 1 or n2 < 1 or n1 + n2 != self.matrix_a.n:
                raise ShapeError("group sizes must be positive and sum to the matrix width")

    def resolved_matrix_b(self) -> ParameterMatrix:
        return self.matrix_b if self.matrix_b is not None else self._chain_image

    @cached_property
    def _chain_image(self) -> ParameterMatrix:
        # computed once here; verify_chain_witness recomputes it, as its check
        return apply_chain(self.matrix_a, self.chain)

    def model_a(self) -> MixtureModel:
        return model_from_matrix(self.matrix_a, self.variant, self.common_param, self.baseline)

    def model_b(self) -> MixtureModel:
        return model_from_matrix(
            self.resolved_matrix_b(), self.variant, self.common_param, self.baseline
        )


def model_from_matrix(
    matrix: ParameterMatrix,
    variant: str,
    common_param: float,
    baseline: BaselineDistribution,
) -> MixtureModel:
    """Top row = mixing weights, bottom row = the varying parameter."""
    pairs = list(zip(matrix.top_row, matrix.bottom_row))
    if variant == "vary_alpha":
        return MixtureModel.vary_alpha(baseline, common_param, pairs)
    return MixtureModel.vary_lambda(baseline, common_param, pairs)


def t7_ratio_monotone(
    baseline: BaselineDistribution,
    lam: float,
    grid: EvaluationGrid,
    slack: float = 1e-9,
) -> MonotoneReport:
    """Nonincreasingness of (1 - S**lam) / (x * lam * r(x)) along the grid."""
    if len(grid) < 2:
        raise ParameterError("monotonicity needs at least two grid points")
    x = grid.x_values
    r = np.asarray(baseline.hazard(x), dtype=float)
    if np.any(~np.isfinite(r)) or np.any(r <= 0):
        return MonotoneReport(
            nonincreasing=False, max_violation=float("nan"), witness_t=float("nan"),
            inconclusive=True, reason="baseline hazard not positive and finite on the grid",
        )
    ratio = -np.expm1(lam * np.asarray(baseline.log_survival(x))) / (x * lam * r)
    rises = np.diff(ratio) / np.maximum(1.0, np.abs(ratio[:-1]))
    viol = np.maximum(rises, 0.0)
    worst = int(np.argmax(viol))
    return MonotoneReport(
        nonincreasing=bool(np.max(viol) <= slack),
        max_violation=float(np.max(viol)),
        witness_t=float(grid.t_values[worst]),
    )


# -- hypothesis helpers --------------------------------------------------------


def _hyp_chain(s: Scenario, theorem_id: str) -> list[HypothesisCheck]:
    checks: list[HypothesisCheck] = []
    if s.chain is None:
        checks.append(HypothesisCheck(
            "chain_majorization_witness", False,
            "not verifiable: scenario provides matrix_b without a transform chain",
        ))
        return checks
    b = s.resolved_matrix_b()
    ok = verify_chain_witness(s.matrix_a, b, s.chain)
    checks.append(HypothesisCheck(
        "chain_majorization_witness", ok,
        f"chain of {len(s.chain)} transform(s) reproduces matrix_b" if ok
        else "chain does not reproduce matrix_b within 1e-9",
    ))
    if theorem_id in _SINGLE_T:
        checks.append(HypothesisCheck(
            "single_t_transform", len(s.chain) == 1,
            f"chain length {len(s.chain)}",
        ))
    if theorem_id in _SAME_STRUCTURE:
        ok = len(s.chain) > 0 and same_structure(s.chain)
        checks.append(HypothesisCheck(
            "same_structure_chain", ok,
            "all transforms share one permutation" if ok else "permutations differ",
        ))
    if theorem_id in _INTERMEDIATES:
        checks.append(HypothesisCheck(
            "chain_length_at_least_two", len(s.chain) >= 2,
            f"chain length {len(s.chain)}",
        ))
        space = "K" if theorem_id in ("C2i", "C4i", "C6") else "L"
        inter_ok = True
        detail = []
        m = s.matrix_a
        for i, t in enumerate(s.chain[:-1], start=1):
            m = apply_chain(m, [t])
            member = in_space(m, space)
            inter_ok &= member
            detail.append(f"A*T1..T{i} in {space}: {member}")
        checks.append(HypothesisCheck(
            f"intermediates_in_{space}", inter_ok, "; ".join(detail) or "no intermediates",
        ))
    return checks


def _hyp_space(s: Scenario, space: str) -> HypothesisCheck:
    ok = in_space(s.matrix_a, space)
    return HypothesisCheck(
        f"matrix_a_in_{space}", ok,
        f"(weights, parameters) rows are {'oppositely' if space == 'K' else 'similarly'} ordered: {ok}",
    )


def _hyp_side_alpha(model: MixtureModel, grid: EvaluationGrid) -> HypothesisCheck:
    """For i<j: alpha_j * p_i * S_i(x) >= alpha_i * p_j * S_j(x) on the grid."""
    terms = model._terms(model.baseline.log_survival(grid.x_values))
    comp = terms.components()
    p = np.asarray(model.weights)
    a = np.asarray(model.alphas)
    worst = 0.0
    for i in range(model.n_components):
        for j in range(i + 1, model.n_components):
            gap = a[j] * p[i] * comp[i] - a[i] * p[j] * comp[j]
            worst = max(worst, float(np.max(-gap)))
    ok = worst <= _SIDE_TOL
    return HypothesisCheck(
        "tilt_weighted_survival_ordering", ok, f"worst pointwise deficit {worst:.3e}"
    )


def _hyp_side_lambda(model: MixtureModel, grid: EvaluationGrid) -> HypothesisCheck:
    """For i<j: p_i*S_i(x)/(1-(1-alpha)*z_i) >= p_j*S_j(x)/(1-(1-alpha)*z_j)."""
    terms = model._terms(model.baseline.log_survival(grid.x_values))
    comp = terms.w * terms.a * terms.z / terms.m**2
    worst = 0.0
    for i in range(model.n_components):
        for j in range(i + 1, model.n_components):
            worst = max(worst, float(np.max(comp[j] - comp[i])))
    ok = worst <= _SIDE_TOL
    return HypothesisCheck(
        "weighted_odds_ordering", ok, f"worst pointwise deficit {worst:.3e}"
    )


def _hyp_products_equal(s: Scenario) -> HypothesisCheck:
    p = np.asarray(s.matrix_a.top_row)
    a = np.asarray(s.matrix_a.bottom_row)
    prods = p * a
    spread = float(np.max(prods) - np.min(prods))
    ok = spread <= _PRODUCT_TOL
    return HypothesisCheck(
        "weight_tilt_products_equal", ok,
        f"weight*tilt products {tuple(round(v, 12) for v in prods)} (spread {spread:.3e})",
    )


def _hyp_positive_hazard(s: Scenario) -> HypothesisCheck:
    r = np.asarray(s.baseline.hazard(s.grid.x_values))
    ok = bool(np.all(np.isfinite(r)) and np.all(r > 0))
    return HypothesisCheck("baseline_hazard_positive", ok, f"min hazard {float(np.min(r)):.3e}")


def _two_group_params(matrix: ParameterMatrix, sizes: tuple[int, int], label: str):
    n1, n2 = sizes
    top = np.asarray(matrix.top_row)
    bot = np.asarray(matrix.bottom_row)
    for row, name in ((top, "weights"), (bot, "parameters")):
        if np.ptp(row[:n1]) > 1e-12 or np.ptp(row[n1:]) > 1e-12:
            raise ShapeError(f"{label} {name} are not constant within the two groups")
    return float(top[0]), float(top[n1]), float(bot[0]), float(bot[n1])


def _hyp_two_group(s: Scenario) -> list[HypothesisCheck]:
    if s.group_sizes is None:
        raise ShapeError("two-group propositions need explicit group sizes")
    n1, n2 = s.group_sizes
    b = s.resolved_matrix_b()
    p1, p2, a1, a2 = _two_group_params(s.matrix_a, s.group_sizes, "matrix_a")
    q1, q2, b1, b2 = _two_group_params(b, s.group_sizes, "matrix_b")
    checks = [
        HypothesisCheck(
            "same_mixing_weights",
            abs(p1 - q1) <= 1e-12 and abs(p2 - q2) <= 1e-12,
            f"weights A=({p1}, {p2}), B=({q1}, {q2})",
        ),
        HypothesisCheck(
            "tilt_interval_nesting",
            a1 >= b1 - 1e-12 and b1 >= b2 - 1e-12 and b2 >= a2 - 1e-12,
            f"{a1} >= {b1} >= {b2} >= {a2}",
        ),
        HypothesisCheck(
            "first_group_weight_not_larger",
            p1 <= p2 + 1e-12,
            f"p1={p1} vs p2={p2}",
        ),
        HypothesisCheck(
            "group_weighted_tilt_sums_ordered",
            n1 * a1 + n2 * a2 >= n1 * b1 + n2 * b2 - 1e-12,
            f"{n1}*{a1} + {n2}*{a2} = {n1 * a1 + n2 * a2} vs {n1 * b1 + n2 * b2}",
        ),
    ]
    ratio = t7_ratio_monotone(s.baseline, s.common_param, s.grid)
    checks.insert(0, HypothesisCheck(
        "survival_deficit_ratio_nonincreasing",
        ratio.nonincreasing and not ratio.inconclusive,
        ratio.reason if ratio.inconclusive
        else f"max scaled rise {ratio.max_violation:.3e} at t={ratio.witness_t:.6g}",
    ))
    return checks


# -- proposition dispatch --------------------------------------------------------


def _inconclusive_verdict(reason: str) -> OrderVerdict:
    return OrderVerdict(
        holds_leq=False, holds_geq=False,
        max_violation_leq=float("nan"), max_violation_geq=float("nan"),
        witness_t=float("nan"), inconclusive=True, reason=reason,
    )


def check_theorem(theorem_id: str, s: Scenario) -> TheoremReport:
    """Evaluate the hypotheses and conclusion of one proposition on a scenario.

    Raises ``ShapeError`` when the scenario arity does not match the
    proposition; an inconclusive order check yields an inconclusive report.
    """
    if theorem_id not in THEOREM_IDS and theorem_id not in SEARCHABLE_IDS:
        raise ParameterError(f"unknown theorem id {theorem_id!r}")
    n = s.matrix_a.n
    if theorem_id in _TWO_BY_TWO and n != 2:
        raise ShapeError(f"{theorem_id} applies to 2x2 matrices, got width {n}")

    notes: list[str] = []
    hypotheses: list[HypothesisCheck] = []

    if theorem_id in _ST_ALPHA or theorem_id in _HR_FAMILY or theorem_id in ("T7", "C7"):
        expected_variant = "vary_alpha"
    else:
        expected_variant = "vary_lambda"
    if s.variant != expected_variant:
        raise ParameterError(
            f"{theorem_id} needs a {expected_variant} scenario, got {s.variant}"
        )
    model_a, model_b = s.model_a(), s.model_b()

    if theorem_id in ("T7", "C7"):
        hypotheses = _hyp_two_group(s)
        if theorem_id == "T7":
            asserted = "model A dominates model B in the star order (A >=star B)"
            try:
                conclusion = check_star(model_a, model_b, s.grid)
            except (TailError, NumericalError) as exc:
                conclusion = _inconclusive_verdict(str(exc))
            holds = conclusion.holds_geq
        else:
            asserted = "model A dominates model B in the Lorenz order (A >=lorenz B)"
            try:
                conclusion = check_lorenz(model_a, model_b)
            except (InfiniteMeanSuspected, TailError) as exc:
                conclusion = _inconclusive_verdict(str(exc))
            holds = conclusion.holds_geq
    elif theorem_id in _HR_FAMILY:
        hypotheses = _hyp_chain(s, "T5" if theorem_id == "T5_unconstrained" else theorem_id)
        hypotheses.append(_hyp_space(s, "K"))
        if theorem_id == "T5_unconstrained":
            notes.append("weight*tilt balance deliberately dropped (necessity probe)")
        else:
            hypotheses.append(_hyp_products_equal(s))
        hypotheses.append(_hyp_positive_hazard(s))
        asserted = (
            "hazard of model A dominates model B pointwise "
            "(survival ratio S_B/S_A nondecreasing)"
        )
        conclusion = check_hr(model_a, model_b, s.grid)
        holds = conclusion.holds_leq
    else:
        # usual stochastic order families
        part_two = theorem_id.endswith("ii")
        space = "L" if part_two else "K"
        hypotheses = _hyp_chain(s, theorem_id)
        hypotheses.append(_hyp_space(s, space))
        if part_two:
            hypotheses.append(
                _hyp_side_alpha(model_a, s.grid) if theorem_id in _ST_ALPHA
                else _hyp_side_lambda(model_a, s.grid)
            )
        if theorem_id in _INTERMEDIATES:
            notes.append(
                f"intermediate products are required to remain in "
                f"{'K' if not part_two else 'L'}_n"
            )
        conclusion = check_st(model_a, model_b, s.grid)
        if theorem_id in _ST_ALPHA:
            a_below = not part_two  # part (i): A below B; part (ii): A above B
        else:
            a_below = part_two  # vary-rate-power: part (i) puts A above B
        if a_below:
            asserted = "model A below model B in the usual stochastic order (A <=st B)"
            holds = conclusion.holds_leq
        else:
            asserted = "model A above model B in the usual stochastic order (A >=st B)"
            holds = conclusion.holds_geq

    all_hyp = all(h.satisfied for h in hypotheses)
    inconclusive = conclusion.inconclusive
    consistent = not (all_hyp and not holds and not inconclusive)
    return TheoremReport(
        theorem_id=theorem_id,
        hypotheses=tuple(hypotheses),
        conclusion=conclusion,
        asserted=asserted,
        conclusion_holds=bool(holds and not inconclusive),
        consistent=consistent,
        inconclusive=inconclusive,
        notes=tuple(notes),
    )


# -- bundled reference scenarios ---------------------------------------------


EXAMPLE_IDS = (1, 2, 3, 4, 5, 6, 7)

_SWAP12_3 = (0, 2, 1)  # mix entries 2 and 3 of a 3-vector
_SWAP01_3 = (1, 0, 2)
_SWAP02_3 = (2, 1, 0)

_EXAMPLES: dict[int, dict] = {
    1: dict(
        theorem="T1i", baseline=("exponential", {"a": 0.2}), variant="vary_alpha",
        common=0.1, top=(0.6, 0.4), bottom=(0.3, 0.4),
        chain=((0.4, (1, 0)),),
    ),
    2: dict(
        theorem="C1i", baseline=("exponential", {"a": 2.0}), variant="vary_alpha",
        common=0.2, top=(0.2, 0.3, 0.5), bottom=(0.5, 0.3, 0.1),
        chain=((0.4, _SWAP12_3), (0.2, _SWAP12_3)),
    ),
    3: dict(
        theorem="C2i", baseline=("exponential", {"a": 3.0}), variant="vary_alpha",
        common=0.2, top=(0.1, 0.4, 0.5), bottom=(0.7, 0.5, 0.3),
        chain=((0.3, _SWAP12_3), (0.4, _SWAP01_3), (0.1, _SWAP02_3)),
    ),
    4: dict(
        theorem="T3i", baseline=("exponential", {"a": 2.0}), variant="vary_lambda",
        common=0.2, top=(0.2, 0.8), bottom=(0.5, 0.25),
        chain=((0.3, (1, 0)),),
    ),
    5: dict(
        theorem="C3i", baseline=("exponential", {"a": 0.2}), variant="vary_lambda",
        common=0.2, top=(0.5, 0.4, 0.1), bottom=(3.0, 4.0, 5.0),
        chain=((0.4, _SWAP12_3), (0.2, _SWAP12_3)),
    ),
    6: dict(
        theorem="T5", baseline=("exponential", {"a": 3.0}), variant="vary_alpha",
        common=0.2, top=(0.3, 0.7), bottom=(0.7, 0.3),
        chain=((0.9, (1, 0)),),
    ),
    7: dict(
        theorem="T7", baseline=("power_burr", {"a": 0.2, "b": 0.5}), variant="vary_alpha",
        common=0.1,
        top=(0.3, 0.3, 0.3, 0.05, 0.05), bottom=(8.0, 8.0, 8.0, 2.0, 2.0),
        b_top=(0.3, 0.3, 0.3, 0.05, 0.05), b_bottom=(6.0, 6.0, 6.0, 3.0, 3.0),
        group_sizes=(3, 2),
    ),
}


def example_scenario(k: int, grid_points: int | None = None) -> tuple[str, Scenario]:
    """The k-th bundled reference scenario and its proposition id."""
    if k not in _EXAMPLES:
        raise ParameterError(f"example id must be in {EXAMPLE_IDS}, got {k!r}")
    entry = _EXAMPLES[k]
    kind, params = entry["baseline"]
    grid = default_grid() if grid_points is None else default_grid(grid_points)
    chain = None
    matrix_b = None
    if "chain" in entry:
        chain = tuple(TTransform(omega=o, permutation=perm) for o, perm in entry["chain"])
    else:
        matrix_b = ParameterMatrix(entry["b_top"], entry["b_bottom"])
    scenario = Scenario(
        baseline=make_baseline(kind, **params),
        variant=entry["variant"],
        common_param=entry["common"],
        matrix_a=ParameterMatrix(entry["top"], entry["bottom"]),
        chain=chain,
        matrix_b=matrix_b,
        grid=grid,
        group_sizes=entry.get("group_sizes"),
    )
    return entry["theorem"], scenario


def verify_example(k: int, grid_points: int | None = None) -> TheoremReport:
    """Run the k-th bundled reference scenario through its proposition checker."""
    theorem_id, scenario = example_scenario(k, grid_points)
    return check_theorem(theorem_id, scenario)


# -- counterexample search -----------------------------------------------------


def _sample_scenario(theorem_id: str, rng: np.random.Generator, grid: EvaluationGrid) -> Scenario:
    baseline = make_baseline("exponential", a=rng.uniform(0.2, 3.0))
    omega = rng.uniform(0.05, 0.95)
    chain = (TTransform(omega=omega, permutation=(1, 0)),)
    if theorem_id == "T1i":
        lam = rng.uniform(0.1, 2.0)
        p1 = rng.uniform(0.05, 0.95)
        while True:
            a1, a2 = rng.uniform(0.05, 1.0, size=2)
            if (p1 - (1 - p1)) * (a1 - a2) <= 0:
                break
        return Scenario(
            baseline=baseline, variant="vary_alpha", common_param=lam,
            matrix_a=ParameterMatrix((p1, 1 - p1), (a1, a2)), chain=chain, grid=grid,
        )
    if theorem_id == "T3i":
        alpha = rng.uniform(0.05, 0.95)
        p1 = rng.uniform(0.05, 0.95)
        while True:
            l1, l2 = rng.uniform(0.1, 3.0, size=2)
            if (p1 - (1 - p1)) * (l1 - l2) <= 0:
                break
        return Scenario(
            baseline=baseline, variant="vary_lambda", common_param=alpha,
            matrix_a=ParameterMatrix((p1, 1 - p1), (l1, l2)), chain=chain, grid=grid,
        )
    if theorem_id == "T5":
        lam = rng.uniform(0.1, 2.0)
        while True:
            p1 = rng.uniform(0.05, 0.95)
            a1 = rng.uniform(0.05, 1.0)
            a2 = p1 * a1 / (1 - p1)  # balance forces opposite ordering of rows
            if 0.0 < a2 <= 1.0:
                break
        return Scenario(
            baseline=baseline, variant="vary_alpha", common_param=lam,
            matrix_a=ParameterMatrix((p1, 1 - p1), (a1, a2)), chain=chain, grid=grid,
        )
    if theorem_id == "T5_unconstrained":
        lam = rng.uniform(0.1, 2.0)
        p1 = rng.uniform(0.05, 0.95)
        while True:
            a1, a2 = rng.uniform(0.05, 1.0, size=2)
            if (p1 - (1 - p1)) * (a1 - a2) <= 0:
                break
        return Scenario(
            baseline=baseline, variant="vary_alpha", common_param=lam,
            matrix_a=ParameterMatrix((p1, 1 - p1), (a1, a2)), chain=chain, grid=grid,
        )
    if theorem_id == "T6":
        lam = rng.uniform(0.1, 2.0)
        while True:
            w = rng.dirichlet(np.ones(3))
            # equal weight*tilt products force opposite row ordering (K_3)
            tilts = rng.uniform(0.2, 0.95) * w.min() / w
            if np.all((0 < tilts) & (tilts <= 1.0)) and np.all(w > 0.02):
                break
        perms = ((1, 0, 2), (0, 2, 1), (2, 1, 0))
        t3 = TTransform(omega=omega, permutation=perms[int(rng.integers(0, 3))])
        return Scenario(
            baseline=baseline, variant="vary_alpha", common_param=lam,
            matrix_a=ParameterMatrix(tuple(w), tuple(tilts)), chain=(t3,), grid=grid,
        )
    raise ParameterError(f"theorem id {theorem_id!r} is not searchable; use one of {SEARCHABLE_IDS}")


def search_counterexamples(
    theorem_id: str,
    trials: int,
    seed: int,
    grid_points: int | None = None,
) -> list[TheoremReport]:
    """Sample hypothesis-satisfying scenarios and collect inconsistent reports.

    Scenarios are drawn by rejection sampling; trial k uses the deterministic
    stream seeded by (seed, k), so runs are reproducible and parallelizable.
    An empty result means no counterexample was found, not a proof.
    """
    if theorem_id not in SEARCHABLE_IDS:
        raise ParameterError(f"theorem id {theorem_id!r} is not searchable; use one of {SEARCHABLE_IDS}")
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ParameterError(f"trials must be a positive integer, got {trials!r}")
    grid = default_grid() if grid_points is None else default_grid(grid_points)
    findings: list[TheoremReport] = []
    for trial in range(int(trials)):
        rng = np.random.default_rng((int(seed), trial))
        scenario = _sample_scenario(theorem_id, rng, grid)
        report = check_theorem(theorem_id, scenario)
        if not report.consistent:
            tag = (
                f"search trial {trial}: baseline exponential(a={scenario.baseline.rate:.6g}), "
                f"common={scenario.common_param:.6g}, "
                f"A={scenario.matrix_a.as_array().tolist()}, "
                f"omega={scenario.chain[0].omega:.6g}"
            )
            findings.append(replace(report, notes=report.notes + (tag,)))
    return findings
