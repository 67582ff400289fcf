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
fails.  Scenario JSON files, the bundled ``scenarios/example*.json`` among
them, are read by ``read_scenario`` alone and parsed by ``scenario_from_dict``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace
from functools import partial
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
    apply_t_transform,
    in_space,
    same_structure,
    verify_chain_witness,
)
from .mixture import (
    EvaluationGrid,
    MixtureModel,
    _require_count,
    _require_seed,
    default_grid,
)
from .orders import (
    DEFAULT_SLACK,
    OrderVerdict,
    _asserted_verdict,
    _monotone_max,
    _undecided,
    check_order,
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
    "scenario_from_dict",
    "scenario_to_dict",
    "read_scenario",
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
            # A, A*T1, ..., A*T1..Tk; the last is B unless matrix_b is given
            images = itertools.accumulate(self.chain, apply_t_transform, initial=self.matrix_a)
            object.__setattr__(self, "_chain_images", tuple(images))
        if self.matrix_b is not None and self.matrix_b.n != self.matrix_a.n:
            raise ShapeError("matrix_a and matrix_b widths differ")
        if self.group_sizes is not None:
            sizes = tuple(int(g) for g in self.group_sizes)
            object.__setattr__(self, "group_sizes", sizes)
            if len(sizes) != 2 or min(sizes) < 1 or sum(sizes) != self.matrix_a.n:
                raise ShapeError("group sizes must be two positive integers summing to the width")

    def resolved_matrix_b(self) -> ParameterMatrix:
        return self.matrix_b if self.matrix_b is not None else self._chain_images[-1]

    def model_a(self) -> MixtureModel:
        return self._model(self.matrix_a)

    def model_b(self) -> MixtureModel:
        return self._model(self.resolved_matrix_b())

    def _model(self, matrix: ParameterMatrix) -> MixtureModel:
        """Top row = mixing weights, bottom row = the varying parameter; ``variant``
        names the ``MixtureModel`` constructor."""
        pairs = zip(matrix.top_row, matrix.bottom_row)
        return getattr(MixtureModel, self.variant)(self.baseline, self.common_param, pairs)


def t7_ratio_monotone(
    baseline: BaselineDistribution,
    lam: float,
    grid: EvaluationGrid,
) -> MonotoneReport:
    """Nonincreasingness of (1 - S**lam) / (x * lam * r(x)) along the grid."""

    def undecided(reason):
        return MonotoneReport(False, float("nan"), float("nan"), inconclusive=True, reason=reason)

    if len(grid) < 2:
        return undecided("monotonicity needs at least two grid points")
    x = grid.x_values
    r = np.asarray(baseline.hazard(x), dtype=float)
    if np.any(~np.isfinite(r)) or np.any(r <= 0):
        return undecided("baseline hazard not positive and finite on the grid")
    ratio = -np.expm1(lam * np.asarray(baseline.log_survival(x))) / (x * lam * r)
    (worst, i), _ = _monotone_max(-ratio)
    return MonotoneReport(worst <= DEFAULT_SLACK, worst, float(grid.t_values[i]))


# -- scenario documents ----------------------------------------------------------

# The one statement of a scenario document's shape.  An object lists its keys: one
# ending in "?" may be left out, and "*" stands for any key.  A one-item list is an
# array of that item, float is a JSON number and int a JSON integer; any other value
# (object) passes through, for the Scenario and make_baseline to check.
_MATRIX = {"p": [float], "theta": [float]}
_SHAPE = {
    "baseline": {"kind": object, "params": {"*": float}},
    "model_variant": object,
    "common_param": float,
    "matrix_a": _MATRIX,
    "chain?": [{"omega": float, "permutation": [int]}],
    "matrix_b?": _MATRIX,
    "grid?": {"points?": int, "t_min?": float, "t_max?": float},
    "group_sizes?": [int],
    "theorem_id?": object,
}


def _number(value, where: str, kind: type = float):
    """``value`` as ``kind``, checked to be a JSON number (``float``) or integer (``int``)."""
    # float() and int() would also take strings and booleans, and int() truncates
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else int):
        noun = "number" if kind is float else "integer"
        raise ScenarioParseError(
            f"malformed scenario value: could not convert {where}: {value!r} is not a JSON {noun}"
        )
    try:
        return kind(value)
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise ScenarioParseError(f"malformed scenario value: could not convert {where}: {exc}") from exc


def _walk(value, shape, where: str = ""):
    """``value`` checked against ``shape``, a part of ``_SHAPE``, with its numbers converted.

    ``where`` is the path of ``value`` in the document, empty for the document
    itself; a fault is a ``ScenarioParseError`` that names it.
    """
    name = where or "scenario"
    if isinstance(shape, list):
        # tuple() of a string would take its characters as the entries
        if not isinstance(value, list):
            raise ScenarioParseError(f"{name} must be an array")
        return [_walk(v, shape[0], f"{where}[{i}]") for i, v in enumerate(value)]
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise ScenarioParseError(f"{name} must be an object")
        keys = {key.rstrip("?"): item for key, item in shape.items()}
        for key in value:
            if key not in keys and "*" not in keys:
                raise ScenarioParseError(f"unknown key {key!r} in {name}")
        for key in shape:
            if key[-1] not in "?*" and key not in value:
                raise ScenarioParseError(f"missing key {key!r} in {name}")
        return {key: _walk(v, keys.get(key, keys.get("*")), f"{where}.{key}" if where else key)
                for key, v in value.items()}
    return _number(value, name, shape) if shape in (float, int) else value


def scenario_from_dict(doc: dict, grid_points: int | None = None,
                       grid_points_key: str = "grid points") -> tuple[str | None, Scenario]:
    """The proposition id (or None) and the Scenario of a parsed JSON document.

    The document is checked against ``_SHAPE``: unknown keys are rejected by
    name, and a value that is not a JSON number (or, for ``grid.points``,
    ``permutation`` and ``group_sizes``, a JSON integer) by its key.  The grid
    is ``default_grid`` with what ``grid_points`` and, over it, the document's
    ``grid`` object pin; a point count that is not a positive integer, or a grid
    that cannot be allocated, is named ``grid.points`` or, for ``grid_points``,
    ``grid_points_key``.
    """
    try:
        doc = _walk(doc, _SHAPE)
        if "chain" not in doc and "matrix_b" not in doc:
            raise ScenarioParseError("scenario needs key 'chain' or key 'matrix_b'")
        theorem_id = doc.get("theorem_id")
        if theorem_id is not None and theorem_id not in THEOREM_IDS:
            raise ScenarioParseError(f"unknown value for key 'theorem_id': {theorem_id!r}")
        pins = doc.get("grid", {})
        points_key = "grid.points" if "points" in pins else grid_points_key
        if grid_points is not None:
            pins = {"points": grid_points, **pins}
        a, b, baseline = doc["matrix_a"], doc.get("matrix_b"), doc["baseline"]
        try:  # the registry checks the kind and its parameters, here a document's keys
            baseline = make_baseline(baseline["kind"], **baseline["params"])
        except ParameterError as exc:
            raise ScenarioParseError(str(exc)) from None
        return theorem_id, Scenario(
            baseline=baseline,
            variant=doc["model_variant"],
            common_param=doc["common_param"],
            matrix_a=ParameterMatrix(a["p"], a["theta"]),
            chain=[TTransform(**t) for t in doc["chain"]] if "chain" in doc else None,
            matrix_b=ParameterMatrix(b["p"], b["theta"]) if b is not None else None,
            grid=default_grid(**pins, what=points_key),
            group_sizes=doc.get("group_sizes"),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ParameterError):
            raise
        raise ScenarioParseError(f"malformed scenario value: {exc}") from exc


def read_scenario(path: str | Path, grid_points: int | None = None,
                  grid_points_key: str = "grid points") -> tuple[str | None, Scenario]:
    """The proposition id (or None) and the Scenario of a JSON file, as ``scenario_from_dict``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioParseError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(doc, grid_points, grid_points_key)


def scenario_to_dict(s: Scenario, theorem_id: str | None = None) -> dict:
    """Serialize a Scenario back to its JSON document form; a grid other than
    ``np.linspace(t_min, t_max, points)``, bit for bit, is a ``ParameterError``."""
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
    if not np.array_equal(t, np.linspace(t[0], t[-1], t.size)):
        raise ParameterError("only a uniform grid (points, t_min, t_max) can be serialized")
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
    # without matrix_b, B is the chain's own last image: there is nothing to compare
    ok = s.matrix_b is None or verify_chain_witness(s.matrix_a, s.matrix_b, s.chain)
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
        for i, m in enumerate(s._chain_images[1:-1], start=1):
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


def _hyp_side(model: MixtureModel, grid: EvaluationGrid, variant: str) -> HypothesisCheck:
    """Part (ii)'s ordering of the components on the grid, for every i < j.

    ``vary_alpha``: alpha_j * p_i * S_i(x) >= alpha_i * p_j * S_j(x).
    ``vary_lambda``: p_i*S_i(x)/(1-(1-alpha)*z_i) >= p_j*S_j(x)/(1-(1-alpha)*z_j).
    """
    terms = model._terms(model.baseline.log_survival(grid.x_values))
    n = model.n_components
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if variant == "vary_alpha":
        name = "tilt_weighted_survival_ordering"
        comp, p, a = terms.components(), model.weights, model.alphas
        deficits = [-(a[j] * p[i] * comp[i] - a[i] * p[j] * comp[j]) for i, j in pairs]
    else:
        name = "weighted_odds_ordering"
        comp = terms.wa * terms.z / terms.m**2
        deficits = [comp[j] - comp[i] for i, j in pairs]
    worst = max([0.0] + [float(np.max(d)) for d in deficits])
    return HypothesisCheck(name, worst <= _SIDE_TOL, f"worst pointwise deficit {worst:.3e}")


def _hyp_products_equal(s: Scenario) -> HypothesisCheck:
    prods = [p * a for p, a in zip(s.matrix_a.top_row, s.matrix_a.bottom_row)]
    spread = max(prods) - min(prods)
    ok = spread <= _PRODUCT_TOL
    return HypothesisCheck(
        "weight_tilt_products_equal", ok,
        f"weight*tilt products {tuple(round(v, 12) for v in prods)} (spread {spread:.3e})",
    )


def _hyp_hazard_positive(s: Scenario) -> HypothesisCheck:
    """Whether the baseline hazard is positive and finite on the grid, read one block
    of points at a time."""
    low, finite = np.inf, True
    for _, x in s.grid.blocks():
        r = np.asarray(s.baseline.hazard(x))
        low = np.minimum(low, r.min())  # a NaN anywhere is the minimum
        finite = finite and bool(np.isfinite(r).all())
    low = float(low)
    return HypothesisCheck("baseline_hazard_positive", finite and low > 0, f"min hazard {low:.3e}")


def _group_params(matrix: ParameterMatrix, sizes: tuple[int, int], label: str):
    n1, n2 = sizes
    top = np.asarray(matrix.top_row)
    bot = np.asarray(matrix.bottom_row)
    for row, name in ((top, "weights"), (bot, "parameters")):
        if np.ptp(row[:n1]) > 1e-12 or np.ptp(row[n1:]) > 1e-12:
            raise ShapeError(f"{label} {name} are not constant within the two groups")
    return float(top[0]), float(top[n1]), float(bot[0]), float(bot[n1])


def _hyp_groups(s: Scenario) -> list[HypothesisCheck]:
    if s.group_sizes is None:
        raise ShapeError("two-group propositions need explicit group sizes")
    n1, n2 = s.group_sizes
    b = s.resolved_matrix_b()
    p1, p2, a1, a2 = _group_params(s.matrix_a, s.group_sizes, "matrix_a")
    q1, q2, b1, b2 = _group_params(b, s.group_sizes, "matrix_b")
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
        v1, v2 = rng.uniform(*params, size=2).tolist()
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
        # the weights are a Dirichlet(1, 1, 1) draw: rng.dirichlet(np.ones(3)) takes
        # these three exponentials and scales them by 1 / their sum
        g = rng.standard_exponential(3).tolist()
        inv = 1.0 / (g[0] + g[1] + g[2])
        w = [v * inv for v in g]
        scale = rng.uniform(0.2, 0.95) * min(w)
        tilts = [scale / v for v in w]
        if all(0.0 < a <= 1.0 for a in tilts) and min(w) > 0.02:
            break
    perm = ((1, 0, 2), (0, 2, 1), (2, 1, 0))[int(rng.integers(0, 3))]
    return lam, ParameterMatrix(w, tilts), (TTransform(omega, perm),)


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

    Hypotheses are reported in this order: the chain witness with the extra
    ``chain`` check (none for ``2x2``, which admits only 2x2 matrices;
    ``single``, ``same`` or ``intermediates`` in ``space``), A in ``space``,
    part (ii)'s ordering in the ``variant``'s form when ``space`` is ``L``,
    ``balance`` and, for the hr order, a positive baseline hazard.  The star
    and Lorenz rows, chain ``""``, report the two-group conditions instead.
    """

    variant: str
    order: str
    direction: str
    chain: str = ""
    space: str = "K"
    balance: bool = False
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
    # id:  (variant, order, direction, chain, space, balance)
    # usual stochastic order, vary-tilt: part (i) A <=st B, part (ii) A >=st B
    "T1i": PropositionSpec(_A, "st", "leq", "2x2", sampler=_sample_k2),
    "T1ii": PropositionSpec(_A, "st", "geq", "2x2", "L"),
    "T2i": PropositionSpec(_A, "st", "leq", "single"),
    "T2ii": PropositionSpec(_A, "st", "geq", "single", "L"),
    "C1i": PropositionSpec(_A, "st", "leq", "same"),
    "C1ii": PropositionSpec(_A, "st", "geq", "same", "L"),
    "C2i": PropositionSpec(_A, "st", "leq", "intermediates", notes=_IN_K),
    "C2ii": PropositionSpec(_A, "st", "geq", "intermediates", "L", notes=_IN_L),
    # usual stochastic order, vary-rate-power: the directions flip
    "T3i": PropositionSpec(_L, "st", "geq", "2x2", sampler=_sample_k2_lam),
    "T3ii": PropositionSpec(_L, "st", "leq", "2x2", "L"),
    "T4i": PropositionSpec(_L, "st", "geq", "single"),
    "T4ii": PropositionSpec(_L, "st", "leq", "single", "L"),
    "C3i": PropositionSpec(_L, "st", "geq", "same"),
    "C3ii": PropositionSpec(_L, "st", "leq", "same", "L"),
    "C4i": PropositionSpec(_L, "st", "geq", "intermediates", notes=_IN_K),
    "C4ii": PropositionSpec(_L, "st", "leq", "intermediates", "L", notes=_IN_L),
    # hazard dominance of model A under equal weight*tilt products
    "T5": PropositionSpec(_A, "hr", "leq", "2x2", "K", True, sampler=_sample_balanced_k2),
    # a pseudo-id: T5 with the balance dropped, probing its necessity
    "T5_unconstrained": PropositionSpec(_A, "hr", "leq", "2x2", notes=_PROBE, sampler=_sample_k2),
    # searchable for its genuine three-component counterexamples
    "T6": PropositionSpec(_A, "hr", "leq", "single", "K", True, sampler=_sample_balanced_k3),
    "C5": PropositionSpec(_A, "hr", "leq", "same", "K", True),
    "C6": PropositionSpec(_A, "hr", "leq", "intermediates", "K", True),
    # star and Lorenz dominance of model A, two-group vary-tilt mixtures
    "T7": PropositionSpec(_A, "star", "geq"),
    "C7": PropositionSpec(_A, "lorenz", "geq"),
}

# the paper's propositions; T5_unconstrained is a search-only probe
THEOREM_IDS = tuple(k for k in PROPOSITIONS if k != "T5_unconstrained")
SEARCHABLE_IDS = tuple(k for k, spec in PROPOSITIONS.items() if spec.sampler is not None)


# -- proposition check ---------------------------------------------------------------

def check_theorem(theorem_id: str, s: Scenario) -> TheoremReport:
    """Evaluate the hypotheses and conclusion of one proposition on a scenario.

    Everything is read from the id's row in ``PROPOSITIONS``.  Raises
    ``ShapeError`` when the scenario arity does not match the proposition; an
    inconclusive order check yields an inconclusive report.
    """
    spec = PROPOSITIONS.get(theorem_id) if isinstance(theorem_id, str) else None
    if spec is None:
        raise ParameterError(f"unknown theorem id {theorem_id!r}")
    if spec.chain == "2x2" and s.matrix_a.n != 2:
        raise ShapeError(f"{theorem_id} applies to 2x2 matrices, got width {s.matrix_a.n}")
    if s.variant != spec.variant:
        raise ParameterError(f"{theorem_id} needs a {spec.variant} scenario, got {s.variant}")
    model_a, model_b = s.model_a(), s.model_b()
    hypotheses = _hypotheses(spec, s, model_a)
    try:
        conclusion = check_order(spec.order, model_a, model_b, s.grid)
    except (InfiniteMeanSuspected, TailError) as exc:
        conclusion = _undecided(str(exc))
    return _report(theorem_id, spec, hypotheses, conclusion)


def _hypotheses(spec: PropositionSpec, s: Scenario, model_a: MixtureModel) -> list[HypothesisCheck]:
    """``spec``'s hypotheses evaluated on ``s``, whose model A is ``model_a``."""
    if spec.order in ("star", "lorenz"):
        hypotheses = _hyp_groups(s)
    else:
        hypotheses = _hyp_chain(s, spec) + [_hyp_space(s, spec.space)]
        if spec.space == "L":
            hypotheses.append(_hyp_side(model_a, s.grid, spec.variant))
        if spec.balance:
            hypotheses.append(_hyp_products_equal(s))
    if spec.order == "hr":
        hypotheses.append(_hyp_hazard_positive(s))
    return hypotheses


def _report(theorem_id: str, spec: PropositionSpec, hypotheses: list[HypothesisCheck],
            conclusion: OrderVerdict) -> TheoremReport:
    """The report of ``hypotheses`` and the order verdict ``conclusion`` on one scenario."""
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


def example_scenario(k: int, grid_points: int | None = None,
                     grid_points_key: str = "grid points") -> tuple[str, Scenario]:
    """The k-th bundled reference scenario (``scenarios/example{k}.json``) and its id."""
    return read_scenario(bundled_scenario_path(k), grid_points, grid_points_key)


def verify_example(k: int, grid_points: int | None = None,
                   grid_points_key: str = "grid points") -> TheoremReport:
    """Run the k-th bundled reference scenario through its proposition checker."""
    return check_theorem(*example_scenario(k, grid_points, grid_points_key))


# -- counterexample search -----------------------------------------------------


def _search_trial(theorem_id: str, spec: PropositionSpec, s: Scenario) -> TheoremReport | None:
    """``check_theorem(theorem_id, s)``, or None where its asserted direction holds or
    is inconclusive: such a report is consistent whatever its hypotheses say.

    The trial's one model pair gives ``orders._asserted_verdict``, whose one pass
    decides that direction and, where it fails, gives the report's verdict.
    """
    model_a, model_b = s.model_a(), s.model_b()
    conclusion = _asserted_verdict(spec.order, spec.direction, model_a, model_b, s.grid)
    if conclusion is None:
        return None
    return _report(theorem_id, spec, _hypotheses(spec, s, model_a), conclusion)


def search_counterexamples(
    theorem_id: str,
    trials: int,
    seed: int,
) -> list[TheoremReport]:
    """Sample hypothesis-satisfying scenarios and collect inconsistent reports.

    Scenarios are drawn by rejection sampling and checked on ``default_grid()``;
    trial k uses the deterministic stream seeded by (seed, k), so runs are
    reproducible and parallelizable.  A trial builds its model pair once and
    evaluates both survivals in one pass.  An st trial is decided on ``check_st``'s
    verdict; an hr trial first on the asserted direction's survival ratio alone,
    without the hazard cross-check.  Only a trial where that direction definitively
    fails gets a report, equal to ``check_theorem``'s, since any other report is
    consistent; for hr it adds the rest of the verdict to the same pass.  An empty
    result means no counterexample was found, not a proof.
    """
    if theorem_id not in SEARCHABLE_IDS:
        raise ParameterError(f"theorem id {theorem_id!r} is not searchable; use one of {SEARCHABLE_IDS}")
    _require_count(trials, "trials")
    _require_seed(seed)
    spec = PROPOSITIONS[theorem_id]
    grid = default_grid()
    findings: list[TheoremReport] = []
    for trial in range(int(trials)):
        rng = np.random.default_rng((int(seed), trial))
        baseline = make_baseline("exponential", a=rng.uniform(0.2, 3.0))
        omega = rng.uniform(0.05, 0.95)
        scenario = Scenario(baseline, spec.variant, *spec.sampler(rng, omega), grid=grid)
        report = _search_trial(theorem_id, spec, scenario)
        if report is not None and not report.consistent:
            tag = (
                f"search trial {trial}: baseline exponential(a={scenario.baseline.rate:.6g}), "
                f"common={scenario.common_param:.6g}, "
                f"A={scenario.matrix_a.as_array().tolist()}, "
                f"omega={scenario.chain[0].omega:.6g}"
            )
            findings.append(replace(report, notes=report.notes + (tag,)))
    return findings
