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

Each proposition's contract lives in one place, its ``PropositionSpec`` row
in ``PROPOSITIONS``.  ``check_theorem`` looks the row up, evaluates every
hypothesis, runs the order check, and reports ``consistent = False`` only in
the red-flag state: all hypotheses satisfied while the conclusion definitively
fails.  Scenario JSON documents, the bundled ``scenarios/example*.json`` among
them, are parsed by ``scenario_from_dict`` alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from .baseline import BaselineDistribution, make_baseline
from .errors import (
    InfiniteMeanSuspected,
    ParameterError,
    ScenarioParseError,
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
from .orders import (
    DEFAULT_SLACK,
    OrderVerdict,
    _check_hr,
    _monotone_violations,
    _undecided,
    check_lorenz,
    check_st,
    check_star,
)

__all__ = [
    "HypothesisCheck",
    "TheoremReport",
    "MonotoneReport",
    "Scenario",
    "PropositionSpec",
    "PROPOSITIONS",
    "THEOREM_IDS",
    "SEARCHABLE_IDS",
    "model_from_matrix",
    "scenario_from_dict",
    "scenario_to_dict",
    "bundled_scenario_path",
    "check_theorem",
    "t7_ratio_monotone",
    "verify_example",
    "EXAMPLE_IDS",
    "search_counterexamples",
]

EXAMPLE_IDS = (1, 2, 3, 4, 5, 6, 7)

_SIDE_TOL = 1e-12
_PRODUCT_TOL = 1e-10


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
    viol = _monotone_violations(-ratio)
    worst = int(np.argmax(viol))
    return MonotoneReport(
        nonincreasing=bool(np.max(viol) <= DEFAULT_SLACK),
        max_violation=float(np.max(viol)),
        witness_t=float(grid.t_values[worst]),
    )


# -- scenario documents ----------------------------------------------------------

_SCENARIO_KEYS = {
    "baseline", "model_variant", "common_param", "matrix_a",
    "chain", "matrix_b", "grid", "theorem_id", "group_sizes",
}
_REQUIRED_KEYS = ("baseline", "model_variant", "common_param", "matrix_a")
_MATRIX_KEYS = ("p", "theta")
_CHAIN_KEYS = ("omega", "permutation")
_GRID_KEYS = {"points", "t_min", "t_max"}


def _require_keys(doc: dict, allowed, where: str, required=()) -> None:
    for key in doc:
        if key not in allowed:
            raise ScenarioParseError(f"unknown key {key!r} in {where}")
    for key in required:
        if key not in doc:
            raise ScenarioParseError(f"missing key {key!r} in {where}")


def _parse_matrix(doc, where: str) -> ParameterMatrix:
    if not isinstance(doc, dict):
        raise ScenarioParseError(f"{where} must be an object with keys 'p' and 'theta'")
    _require_keys(doc, _MATRIX_KEYS, where, _MATRIX_KEYS)
    return ParameterMatrix(tuple(doc["p"]), tuple(doc["theta"]))


def scenario_from_dict(doc: dict, grid_points: int) -> tuple[str | None, Scenario]:
    """The proposition id (or None) and the Scenario of a parsed JSON document.

    Unknown keys are rejected by name.  The grid has ``grid_points`` points on
    ``[1e-4, 1-1e-4]`` unless the document's ``grid`` object pins it.
    """
    try:
        if not isinstance(doc, dict):
            raise ScenarioParseError("scenario document must be a JSON object")
        _require_keys(doc, _SCENARIO_KEYS, "scenario", _REQUIRED_KEYS)
        if "chain" not in doc and "matrix_b" not in doc:
            raise ScenarioParseError("scenario needs key 'chain' or key 'matrix_b'")

        baseline_doc = doc["baseline"]
        if not isinstance(baseline_doc, dict):
            raise ScenarioParseError("key 'baseline' must be an object")
        _require_keys(baseline_doc, {"kind", "params"}, "baseline")
        if "kind" not in baseline_doc or "params" not in baseline_doc:
            raise ScenarioParseError("baseline needs keys 'kind' and 'params'")
        baseline = make_baseline(baseline_doc["kind"], **baseline_doc["params"])

        chain = None
        if "chain" in doc:
            parsed = []
            for i, entry in enumerate(doc["chain"]):
                _require_keys(entry, _CHAIN_KEYS, f"chain[{i}]", _CHAIN_KEYS)
                parsed.append(TTransform(omega=float(entry["omega"]),
                                         permutation=tuple(entry["permutation"])))
            chain = tuple(parsed)

        matrix_b = _parse_matrix(doc["matrix_b"], "matrix_b") if "matrix_b" in doc else None

        grid_doc = doc.get("grid", {})
        _require_keys(grid_doc, _GRID_KEYS, "grid")
        grid = default_grid(
            points=int(grid_doc.get("points", grid_points)),
            t_min=float(grid_doc.get("t_min", 1e-4)),
            t_max=float(grid_doc.get("t_max", 1.0 - 1e-4)),
        )

        theorem_id = doc.get("theorem_id")
        if theorem_id is not None and theorem_id not in THEOREM_IDS:
            raise ScenarioParseError(f"unknown value for key 'theorem_id': {theorem_id!r}")

        group_sizes = doc.get("group_sizes")
        return theorem_id, Scenario(
            baseline=baseline,
            variant=doc["model_variant"],
            common_param=float(doc["common_param"]),
            matrix_a=_parse_matrix(doc["matrix_a"], "matrix_a"),
            chain=chain,
            matrix_b=matrix_b,
            grid=grid,
            group_sizes=tuple(int(g) for g in group_sizes) if group_sizes else None,
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ParameterError):
            raise
        raise ScenarioParseError(f"malformed scenario value: {exc}") from exc


def scenario_to_dict(s: Scenario, theorem_id: str | None = None) -> dict:
    """Serialize a Scenario back to its JSON document form."""
    doc: dict = {
        "baseline": {"kind": s.baseline.kind, "params": s.baseline.params()},
        "model_variant": s.variant,
        "common_param": s.common_param,
        "matrix_a": {"p": list(s.matrix_a.top_row), "theta": list(s.matrix_a.bottom_row)},
    }
    if s.chain is not None:
        doc["chain"] = [
            {"omega": t.omega, "permutation": list(t.permutation)} for t in s.chain
        ]
    if s.matrix_b is not None:
        doc["matrix_b"] = {"p": list(s.matrix_b.top_row), "theta": list(s.matrix_b.bottom_row)}
    t = s.grid.t_values
    doc["grid"] = {"points": len(s.grid), "t_min": float(t[0]), "t_max": float(t[-1])}
    if s.group_sizes is not None:
        doc["group_sizes"] = list(s.group_sizes)
    if theorem_id is not None:
        doc["theorem_id"] = theorem_id
    return doc


def bundled_scenario_path(k: int) -> Path:
    """Filesystem path of the bundled example scenario file."""
    if k not in EXAMPLE_IDS:
        raise ParameterError(f"example id must be in {EXAMPLE_IDS}, got {k!r}")
    return Path(str(resources.files("mixorder").joinpath(f"scenarios/example{k}.json")))


# -- hypothesis helpers --------------------------------------------------------


def _hyp_chain(s: Scenario, spec: PropositionSpec) -> list[HypothesisCheck]:
    if s.chain is None:
        return [HypothesisCheck(
            "chain_majorization_witness", False,
            "not verifiable: scenario provides matrix_b without a transform chain",
        )]
    ok = verify_chain_witness(s.matrix_a, s.resolved_matrix_b(), s.chain)
    checks = [HypothesisCheck(
        "chain_majorization_witness", ok,
        f"chain of {len(s.chain)} transform(s) reproduces matrix_b" if ok
        else "chain does not reproduce matrix_b within 1e-9",
    )]
    if spec.chain == "single":
        checks.append(HypothesisCheck(
            "single_t_transform", len(s.chain) == 1, f"chain length {len(s.chain)}",
        ))
    elif spec.chain == "same":
        ok = len(s.chain) > 0 and same_structure(s.chain)
        checks.append(HypothesisCheck(
            "same_structure_chain", ok,
            "all transforms share one permutation" if ok else "permutations differ",
        ))
    elif spec.chain == "intermediates":
        checks.append(HypothesisCheck(
            "chain_length_at_least_two", len(s.chain) >= 2, f"chain length {len(s.chain)}",
        ))
        inter_ok = True
        detail = []
        m = s.matrix_a
        for i, t in enumerate(s.chain[:-1], start=1):
            m = apply_chain(m, [t])
            member = in_space(m, spec.space)
            inter_ok &= member
            detail.append(f"A*T1..T{i} in {spec.space}: {member}")
        checks.append(HypothesisCheck(
            f"intermediates_in_{spec.space}", inter_ok, "; ".join(detail) or "no intermediates",
        ))
    return checks


def _hyp_space(s: Scenario, space: str) -> HypothesisCheck:
    ok = in_space(s.matrix_a, space)
    return HypothesisCheck(
        f"matrix_a_in_{space}", ok,
        f"(weights, parameters) rows are {'oppositely' if space == 'K' else 'similarly'} ordered: {ok}",
    )


def _hyp_side(model: MixtureModel, grid: EvaluationGrid, side: str) -> HypothesisCheck:
    """Part (ii)'s ordering of the components on the grid, for every i < j.

    ``alpha``: alpha_j * p_i * S_i(x) >= alpha_i * p_j * S_j(x).
    ``lambda``: p_i*S_i(x)/(1-(1-alpha)*z_i) >= p_j*S_j(x)/(1-(1-alpha)*z_j).
    """
    terms = model._terms(model.baseline.log_survival(grid.x_values))
    n = model.n_components
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if side == "alpha":
        name = "tilt_weighted_survival_ordering"
        comp, p, a = terms.components(), model.weights, model.alphas
        deficits = [-(a[j] * p[i] * comp[i] - a[i] * p[j] * comp[j]) for i, j in pairs]
    else:
        name = "weighted_odds_ordering"
        comp = terms.w * terms.a * terms.z / terms.m**2
        deficits = [comp[j] - comp[i] for i, j in pairs]
    worst = max([0.0] + [float(np.max(d)) for d in deficits])
    return HypothesisCheck(name, worst <= _SIDE_TOL, f"worst pointwise deficit {worst:.3e}")


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


def _hyp_positive_hazard(r: np.ndarray) -> HypothesisCheck:
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


# -- search samplers: (rng, omega) -> (common_param, matrix_a, chain) -------------


def _sample_k2(rng, omega, common=(0.1, 2.0), params=(0.05, 1.0)):
    """A in K_2 (weights and parameters oppositely ordered), one swap transform."""
    c = rng.uniform(*common)
    p1 = rng.uniform(0.05, 0.95)
    while True:
        v1, v2 = rng.uniform(*params, size=2)
        if (p1 - (1 - p1)) * (v1 - v2) <= 0:
            break
    return c, ParameterMatrix((p1, 1 - p1), (v1, v2)), (TTransform(omega, (1, 0)),)


def _sample_balanced_k2(rng, omega):
    """Equal weight*tilt products, which force A into K_2, one swap transform."""
    lam = rng.uniform(0.1, 2.0)
    while True:
        p1 = rng.uniform(0.05, 0.95)
        a1 = rng.uniform(0.05, 1.0)
        a2 = p1 * a1 / (1 - p1)
        if 0.0 < a2 <= 1.0:
            break
    return lam, ParameterMatrix((p1, 1 - p1), (a1, a2)), (TTransform(omega, (1, 0)),)


def _sample_balanced_k3(rng, omega):
    """Equal weight*tilt products over three components, one random transform."""
    lam = rng.uniform(0.1, 2.0)
    while True:
        w = rng.dirichlet(np.ones(3))
        tilts = rng.uniform(0.2, 0.95) * w.min() / w
        if np.all((0 < tilts) & (tilts <= 1.0)) and np.all(w > 0.02):
            break
    perm = ((1, 0, 2), (0, 2, 1), (2, 1, 0))[int(rng.integers(0, 3))]
    return lam, ParameterMatrix(tuple(w), tuple(tilts)), (TTransform(omega, perm),)


# -- the proposition table ---------------------------------------------------------


_ASSERTED = {
    ("st", "leq"): "model A below model B in the usual stochastic order (A <=st B)",
    ("st", "geq"): "model A above model B in the usual stochastic order (A >=st B)",
    ("hr", "leq"): (
        "hazard of model A dominates model B pointwise (survival ratio S_B/S_A nondecreasing)"
    ),
    ("star", "geq"): "model A dominates model B in the star order (A >=star B)",
    ("lorenz", "geq"): "model A dominates model B in the Lorenz order (A >=lorenz B)",
}


@dataclass(frozen=True)
class PropositionSpec:
    """One proposition: the scenario it takes, its hypotheses and its conclusion.

    Hypotheses are reported in field order: the chain witness with the extra
    ``chain`` check (``single``, ``same`` or ``intermediates`` in ``space``),
    A in ``space``, ``side``, ``balance`` and ``positive_hazard``; a
    ``two_group`` proposition reports the two-group conditions instead.
    """

    variant: str
    two_by_two: bool
    order: str
    direction: str
    chain: str = ""
    space: str = "K"
    side: str = ""
    balance: bool = False
    positive_hazard: bool = False
    two_group: bool = False
    notes: tuple[str, ...] = ()
    sampler: Callable | None = None

    @property
    def asserted(self) -> str:
        return _ASSERTED[self.order, self.direction]


_IN_K = ("intermediate products are required to remain in K_n",)
_IN_L = ("intermediate products are required to remain in L_n",)
_PROBE = ("weight*tilt balance deliberately dropped (necessity probe)",)
_A, _L = "vary_alpha", "vary_lambda"
_sample_k2_lam = partial(_sample_k2, common=(0.05, 0.95), params=(0.1, 3.0))

PROPOSITIONS: dict[str, PropositionSpec] = {
    # id:  (variant, 2x2, order, direction, chain, space, side, balance, positive_hazard)
    # usual stochastic order, vary-tilt: part (i) A <=st B, part (ii) A >=st B
    "T1i": PropositionSpec(_A, True, "st", "leq", sampler=_sample_k2),
    "T1ii": PropositionSpec(_A, True, "st", "geq", "", "L", "alpha"),
    "T2i": PropositionSpec(_A, False, "st", "leq", "single"),
    "T2ii": PropositionSpec(_A, False, "st", "geq", "single", "L", "alpha"),
    "C1i": PropositionSpec(_A, False, "st", "leq", "same"),
    "C1ii": PropositionSpec(_A, False, "st", "geq", "same", "L", "alpha"),
    "C2i": PropositionSpec(_A, False, "st", "leq", "intermediates", notes=_IN_K),
    "C2ii": PropositionSpec(_A, False, "st", "geq", "intermediates", "L", "alpha", notes=_IN_L),
    # usual stochastic order, vary-rate-power: the directions flip
    "T3i": PropositionSpec(_L, True, "st", "geq", sampler=_sample_k2_lam),
    "T3ii": PropositionSpec(_L, True, "st", "leq", "", "L", "lambda"),
    "T4i": PropositionSpec(_L, False, "st", "geq", "single"),
    "T4ii": PropositionSpec(_L, False, "st", "leq", "single", "L", "lambda"),
    "C3i": PropositionSpec(_L, False, "st", "geq", "same"),
    "C3ii": PropositionSpec(_L, False, "st", "leq", "same", "L", "lambda"),
    "C4i": PropositionSpec(_L, False, "st", "geq", "intermediates", notes=_IN_K),
    "C4ii": PropositionSpec(_L, False, "st", "leq", "intermediates", "L", "lambda", notes=_IN_L),
    # hazard dominance of model A under equal weight*tilt products
    "T5": PropositionSpec(
        _A, True, "hr", "leq", "", "K", "", True, True, sampler=_sample_balanced_k2
    ),
    # a pseudo-id: T5 with the balance dropped, probing its necessity
    "T5_unconstrained": PropositionSpec(
        _A, True, "hr", "leq", "", "K", "", False, True, notes=_PROBE, sampler=_sample_k2
    ),
    # searchable for its genuine three-component counterexamples
    "T6": PropositionSpec(
        _A, False, "hr", "leq", "single", "K", "", True, True, sampler=_sample_balanced_k3
    ),
    "C5": PropositionSpec(_A, False, "hr", "leq", "same", "K", "", True, True),
    "C6": PropositionSpec(_A, False, "hr", "leq", "intermediates", "K", "", True, True),
    # star and Lorenz dominance of model A, two-group vary-tilt mixtures
    "T7": PropositionSpec(_A, False, "star", "geq", two_group=True),
    "C7": PropositionSpec(_A, False, "lorenz", "geq", two_group=True),
}

# the paper's propositions; T5_unconstrained is a search-only probe
THEOREM_IDS = tuple(k for k in PROPOSITIONS if k != "T5_unconstrained")
SEARCHABLE_IDS = tuple(k for k, spec in PROPOSITIONS.items() if spec.sampler is not None)


# -- proposition check ---------------------------------------------------------------

def _conclusion(order: str, a: MixtureModel, b: MixtureModel, grid, hazard) -> OrderVerdict:
    if order == "st":
        return check_st(a, b, grid)
    if order == "hr":
        return _check_hr(a, b, grid, hazard)
    if order == "star":
        return check_star(a, b, grid)
    try:
        return check_lorenz(a, b)
    except (InfiniteMeanSuspected, TailError) as exc:
        return _undecided(str(exc))


def check_theorem(theorem_id: str, s: Scenario) -> TheoremReport:
    """Evaluate the hypotheses and conclusion of one proposition on a scenario.

    Everything is read from the id's row in ``PROPOSITIONS``.  Raises
    ``ShapeError`` when the scenario arity does not match the proposition; an
    inconclusive order check yields an inconclusive report.
    """
    spec = PROPOSITIONS.get(theorem_id) if isinstance(theorem_id, str) else None
    if spec is None:
        raise ParameterError(f"unknown theorem id {theorem_id!r}")
    if spec.two_by_two and s.matrix_a.n != 2:
        raise ShapeError(f"{theorem_id} applies to 2x2 matrices, got width {s.matrix_a.n}")
    if s.variant != spec.variant:
        raise ParameterError(f"{theorem_id} needs a {spec.variant} scenario, got {s.variant}")
    model_a, model_b = s.model_a(), s.model_b()

    hazard = None
    if spec.two_group:
        hypotheses = _hyp_two_group(s)
    else:
        hypotheses = _hyp_chain(s, spec) + [_hyp_space(s, spec.space)]
        if spec.side:
            hypotheses.append(_hyp_side(model_a, s.grid, spec.side))
        if spec.balance:
            hypotheses.append(_hyp_products_equal(s))
        if spec.positive_hazard:
            # one evaluation serves the hypothesis and the hazard-rate check
            hazard = np.asarray(s.baseline.hazard(s.grid.x_values))
            hypotheses.append(_hyp_positive_hazard(hazard))

    conclusion = _conclusion(spec.order, model_a, model_b, s.grid, hazard)
    holds = getattr(conclusion, f"holds_{spec.direction}")
    inconclusive = conclusion.inconclusive
    return TheoremReport(
        theorem_id=theorem_id,
        hypotheses=tuple(hypotheses),
        conclusion=conclusion,
        asserted=spec.asserted,
        conclusion_holds=bool(holds and not inconclusive),
        consistent=not (all(h.satisfied for h in hypotheses) and not holds and not inconclusive),
        inconclusive=inconclusive,
        notes=spec.notes,
    )


# -- bundled reference scenarios ---------------------------------------------


def example_scenario(k: int, grid_points: int | None = None) -> tuple[str, Scenario]:
    """The k-th bundled reference scenario (``scenarios/example{k}.json``) and its id.

    The grid has 2001 points unless ``grid_points`` is given.
    """
    doc = json.loads(bundled_scenario_path(k).read_text(encoding="utf-8"))
    return scenario_from_dict(doc, 2001 if grid_points is None else grid_points)


def verify_example(k: int, grid_points: int | None = None) -> TheoremReport:
    """Run the k-th bundled reference scenario through its proposition checker."""
    return check_theorem(*example_scenario(k, grid_points))


# -- counterexample search -----------------------------------------------------


def search_counterexamples(
    theorem_id: str,
    trials: int,
    seed: int,
) -> list[TheoremReport]:
    """Sample hypothesis-satisfying scenarios and collect inconsistent reports.

    Scenarios are drawn by rejection sampling and checked on ``default_grid()``,
    the 2001-point grid; trial k uses the deterministic stream seeded by
    (seed, k), so runs are reproducible and parallelizable.  An empty result
    means no counterexample was found, not a proof.
    """
    if theorem_id not in SEARCHABLE_IDS:
        raise ParameterError(f"theorem id {theorem_id!r} is not searchable; use one of {SEARCHABLE_IDS}")
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ParameterError(f"trials must be a positive integer, got {trials!r}")
    spec = PROPOSITIONS[theorem_id]
    grid = default_grid()
    findings: list[TheoremReport] = []
    for trial in range(int(trials)):
        rng = np.random.default_rng((int(seed), trial))
        baseline = make_baseline("exponential", a=rng.uniform(0.2, 3.0))
        omega = rng.uniform(0.05, 0.95)
        scenario = Scenario(baseline, spec.variant, *spec.sampler(rng, omega), grid=grid)
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
