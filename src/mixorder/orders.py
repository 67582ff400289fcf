"""Grid-based verifiers for the four stochastic orders, plus sign-function evaluators.

Conventions (smaller = shorter-lived):

* ``m1 <=st m2``      -- survival of m1 below survival of m2 pointwise.
* ``m1 <=hr m2``      -- survival ratio S_{m2}/S_{m1} nondecreasing;
                         equivalently hazard of m1 >= hazard of m2 pointwise.
* ``m1 <=star m2``    -- quantile_{m2}(cdf_{m1}(x)) / x nondecreasing.
* ``m1 <=lorenz m2``  -- Lorenz curve of m1 above the one of m2 pointwise.

Every check returns an :class:`OrderVerdict` for both directions with the
worst violation magnitude and its grid witness.  Monotonicity checks use the
scaled consecutive-difference slack ``DEFAULT_SLACK * max(1, |value|)`` so that
grid discretization of a genuinely monotone curve cannot fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .baseline import BaselineDistribution
from .errors import (
    DomainError,
    InfiniteMeanSuspected,
    ParameterError,
    TailError,
)
from .mixture import EvaluationGrid, MixtureModel

__all__ = [
    "OrderVerdict",
    "LorenzCurve",
    "check_st",
    "check_hr",
    "check_star",
    "lorenz_curve",
    "check_lorenz",
    "default_lorenz_grid",
    "h_pa",
    "h_plambda",
    "h_hr",
]

DEFAULT_SLACK = 1e-9

# grid points where survival drops below this are dropped before forming
# ratios or hazards; the remaining suffix is recorded as truncated
_SURVIVAL_FLOOR = 1e-280

# cdf levels outside this band cannot be inverted to the monotonicity slack:
# near u = 1 the cdf's own ulp (~2e-16) floors the quantile resolution at
# ~2e-16/((1-u) * ln(1/(1-u))) relative, which crosses 1e-9 around 1-u ~ 3e-8
_CDF_LO = 1e-300
_CDF_HI = 1.0 - 3e-8


@dataclass(frozen=True)
class OrderVerdict:
    """Two-sided dominance/monotonicity result over a grid.

    ``holds_leq`` answers "is m1 <= m2 in this order"; ``holds_geq`` the
    reverse.  Both can be true only when the curves coincide within slack.
    ``witness_t`` is the t-coordinate of the worst violation found.
    """

    holds_leq: bool
    holds_geq: bool
    max_violation_leq: float
    max_violation_geq: float
    witness_t: float
    inconclusive: bool = False
    reason: str = ""
    hazard_holds_leq: bool | None = None
    hazard_holds_geq: bool | None = None
    hazard_disagrees: bool = False
    truncated_at_t: float | None = None
    notes: tuple[str, ...] = ()


def _undecided(reason: str, **extra) -> OrderVerdict:
    """A verdict that decides neither direction, for ``reason``."""
    nan = float("nan")
    return OrderVerdict(False, False, nan, nan, nan, inconclusive=True, reason=reason, **extra)


def _directional_verdict(
    viol_leq: np.ndarray,
    viol_geq: np.ndarray,
    t: np.ndarray,
    slack: float,
    **extra,
) -> OrderVerdict:
    max_leq = float(np.max(viol_leq)) if viol_leq.size else 0.0
    max_geq = float(np.max(viol_geq)) if viol_geq.size else 0.0
    if max_leq >= max_geq and viol_leq.size:
        witness = float(t[int(np.argmax(viol_leq))])
    elif viol_geq.size:
        witness = float(t[int(np.argmax(viol_geq))])
    else:
        witness = float("nan")
    return OrderVerdict(
        holds_leq=max_leq <= slack,
        holds_geq=max_geq <= slack,
        max_violation_leq=max_leq,
        max_violation_geq=max_geq,
        witness_t=witness,
        **extra,
    )


def _baseline_pair(m1: MixtureModel, m2: MixtureModel, method: str, x: np.ndarray):
    """Both models' baseline ``method`` at x, evaluated once for a shared baseline."""
    v1 = getattr(m1.baseline, method)(x)
    return v1, (v1 if m2.baseline == m1.baseline else getattr(m2.baseline, method)(x))


def check_st(
    m1: MixtureModel,
    m2: MixtureModel,
    grid: EvaluationGrid,
    slack: float = DEFAULT_SLACK,
) -> OrderVerdict:
    """Pointwise survival comparison on the grid."""
    l1, l2 = _baseline_pair(m1, m2, "log_survival", grid.x_values)
    s1 = m1._terms(l1).survival()
    s2 = m2._terms(l2).survival()
    return _directional_verdict(
        np.maximum(s1 - s2, 0.0), np.maximum(s2 - s1, 0.0), grid.t_values, slack
    )


def _monotone_violations(values: np.ndarray) -> np.ndarray:
    """Per-step violation of nondecreasingness, scaled by max(1, |value|)."""
    drops = -(np.diff(values))
    return np.maximum(drops / np.maximum(1.0, np.abs(values[:-1])), 0.0)


def check_hr(
    m1: MixtureModel,
    m2: MixtureModel,
    grid: EvaluationGrid,
    slack: float = DEFAULT_SLACK,
) -> OrderVerdict:
    """Hazard-rate order via survival-ratio monotonicity, cross-checked on hazards.

    Primary criterion: m1 <=hr m2 iff S_{m2}/S_{m1} is nondecreasing along the
    grid.  Secondary: pointwise hazards (m1 <=hr m2 iff hazard_{m1} >=
    hazard_{m2}).  The verdict carries both; ``hazard_disagrees`` flags a
    split decision beyond slack.  Grid points past survival underflow are
    dropped and the truncation point recorded.
    """
    return _check_hr(m1, m2, grid, None, slack)


def _check_hr(m1, m2, grid, hazard, slack=DEFAULT_SLACK) -> OrderVerdict:
    """``check_hr`` given the shared baseline's hazard on the whole grid, or None."""
    x = grid.x_values
    l1, l2 = _baseline_pair(m1, m2, "log_survival", x)
    k1, k2 = m1._terms(l1), m2._terms(l2)
    s1, s2 = k1.survival(), k2.survival()
    safe = (s1 >= _SURVIVAL_FLOOR) & (s2 >= _SURVIVAL_FLOOR)
    t_cut = None
    if not np.all(safe):
        cut = int(np.argmin(safe))  # first unsafe index; survival is nonincreasing
        t_cut = float(grid.t_values[cut])
        x, s1, s2 = x[:cut], s1[:cut], s2[:cut]
        k1, k2 = k1.head(cut), k2.head(cut)
    t = grid.t_values[: x.size]
    if t.size < 2:
        return _undecided("fewer than two grid points with positive survival", truncated_at_t=t_cut)
    ratio_leq = s2 / s1
    ratio_geq = s1 / s2
    viol_leq = _monotone_violations(ratio_leq)
    viol_geq = _monotone_violations(ratio_geq)

    if hazard is None:
        r1, r2 = _baseline_pair(m1, m2, "hazard", x)
    else:
        r1 = r2 = hazard[: x.size]
    h1 = k1.hazard(r1, x)
    h2 = k2.hazard(r2, x)
    hscale = np.maximum(1.0, np.maximum(np.abs(h1), np.abs(h2)))
    hviol_leq = float(np.max(np.maximum((h2 - h1) / hscale, 0.0)))
    hviol_geq = float(np.max(np.maximum((h1 - h2) / hscale, 0.0)))
    hz_leq = hviol_leq <= slack
    hz_geq = hviol_geq <= slack

    verdict = _directional_verdict(
        viol_leq,
        viol_geq,
        t[:-1],
        slack,
        hazard_holds_leq=hz_leq,
        hazard_holds_geq=hz_geq,
        hazard_disagrees=False,
        truncated_at_t=t_cut,
        notes=() if t_cut is None else (f"grid truncated at t={t_cut:.6g} (survival underflow)",),
    )
    if (verdict.holds_leq != hz_leq) or (verdict.holds_geq != hz_geq):
        verdict = replace(
            verdict,
            hazard_disagrees=True,
            notes=verdict.notes + ("ratio and hazard criteria disagree beyond slack",),
        )
    return verdict


def check_star(
    m1: MixtureModel,
    m2: MixtureModel,
    grid: EvaluationGrid,
) -> OrderVerdict:
    """Star order: monotonicity of quantile_{other}(cdf_{one}(x)) / x.

    A ``TailError`` during quantile inversion marks the verdict inconclusive.
    Grid points whose cdf is numerically 0 or 1 are dropped (recorded) since
    they cannot be inverted.  Each quantile solve starts from the inverted
    model's own cdf table on the kept points, not from the small-u slope.
    """
    l1, l2 = _baseline_pair(m1, m2, "log_survival", grid.x_values)
    u1 = m1._terms(l1).cdf()
    u2 = m2._terms(l2).cdf()
    keep = (u1 > _CDF_LO) & (u1 < _CDF_HI) & (u2 > _CDF_LO) & (u2 < _CDF_HI)
    notes: tuple[str, ...] = ()
    if not np.all(keep):
        notes = (f"{int(np.sum(~keep))} grid points dropped (cdf at 0 or 1)",)
    t = grid.t_values[keep]
    if t.size < 2:
        return _undecided("fewer than two grid points with invertible cdf", notes=notes)
    x = grid.x_values[keep]
    try:
        s_12 = m2._quantile(u1[keep], m2._table_start(u2[keep], l2[keep]))
        s_21 = m1._quantile(u2[keep], m1._table_start(u1[keep], l1[keep]))
    except TailError as exc:
        return _undecided(f"quantile inversion hit the tail guard: {exc}", notes=notes)
    viol_leq = _monotone_violations(s_12 / x)
    viol_geq = _monotone_violations(s_21 / x)
    return _directional_verdict(viol_leq, viol_geq, t[:-1], DEFAULT_SLACK, notes=notes)


# -- Lorenz ------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LorenzCurve:
    """Normalized quantile integral L(p) on a clipped probability grid."""

    p_values: np.ndarray = field(repr=False)
    l_values: np.ndarray = field(repr=False)
    mean: float


def default_lorenz_grid() -> np.ndarray:
    """1601 uniform levels on [1e-6, 0.99] plus 400 geometric ones toward 1 - 1e-6.

    The refinement keeps the trapezoid rule accurate where heavy-ish quantile
    functions grow fastest.
    """
    body = np.linspace(1e-6, 0.99, 1601)
    tail = 1.0 - np.geomspace(1e-2, 1e-6, 400)
    return np.unique(np.concatenate([body, tail]))


def lorenz_curve(m: MixtureModel) -> LorenzCurve:
    """Trapezoid quadrature of the quantile function on ``default_lorenz_grid()``.

    All levels are inverted by one array call to ``m.quantile``; ``mean`` is the
    integral over the clipped range [1e-6, 1 - 1e-6].  The mixture survival
    decays like ``S**min(lams)``: when ``baseline.tail_index * min(lams) <= 1``
    the mean is infinite, and ``InfiniteMeanSuspected`` is raised before any
    inversion.  A level past ``cdf(1e18)`` raises the quantile's ``TailError``.
    """
    decay = m.baseline.tail_index * min(m.lams)
    if decay <= 1.0:
        raise InfiniteMeanSuspected(
            f"survival decays like x**-{decay:.6g}, so the mean is infinite"
        )
    u = default_lorenz_grid()
    q = m.quantile(u)
    steps = np.diff(u)
    segments = 0.5 * (q[1:] + q[:-1]) * steps
    total = float(np.sum(segments))
    cum = np.concatenate([[0.0], np.cumsum(segments)])
    return LorenzCurve(p_values=u, l_values=cum / total, mean=total)


def check_lorenz(
    m1: MixtureModel,
    m2: MixtureModel,
) -> OrderVerdict:
    """Lorenz order: m1 <=lorenz m2 iff L_{m1}(p) >= L_{m2}(p) - DEFAULT_SLACK for all p.

    Both curves come from ``lorenz_curve``, whose errors pass through.
    """
    c1 = lorenz_curve(m1)
    c2 = lorenz_curve(m2)
    diff = c1.l_values - c2.l_values
    return _directional_verdict(
        np.maximum(-diff, 0.0), np.maximum(diff, 0.0), c1.p_values, DEFAULT_SLACK
    )


# -- sign-function evaluators --------------------------------------------------
#
# Each evaluator computes the exact value of the Schur-type derivative
# combination
#
#     H = (p1-p2) * (dG/dp1 - dG/dp2) + (c1-c2) * (dG/dc1 - dG/dc2)
#
# for G the two-component mixture survival (c = tilt or rate power) or the
# two-component mixture hazard (c = tilt), using closed-form partial
# derivatives.  The sign of H drives the dominance conclusions; its value is
# validated against central finite differences in the test suite.


def _require_positive_x(x: float) -> float:
    x = float(x)
    if not (x > 0 and np.isfinite(x)):
        raise DomainError(f"evaluation point must be > 0, got {x!r}")
    return x


def h_pa(
    p: tuple[float, float],
    alpha: tuple[float, float],
    lam: float,
    baseline: BaselineDistribution,
    x: float,
) -> float:
    """Derivative combination of the vary-tilt mixture survival at fixed x."""
    x = _require_positive_x(x)
    p1, p2 = p
    a1, a2 = alpha
    z = float(np.exp(lam * baseline.log_survival(x)))
    m1 = 1.0 - (1.0 - a1) * z
    m2 = 1.0 - (1.0 - a2) * z
    d_p = (a1 - a2) * (z - z * z) / (m1 * m2)
    d_a = (z - z * z) * (p1 * m2 * m2 - p2 * m1 * m1) / (m1 * m1 * m2 * m2)
    return (p1 - p2) * d_p + (a1 - a2) * d_a


def h_plambda(
    p: tuple[float, float],
    lam: tuple[float, float],
    alpha: float,
    baseline: BaselineDistribution,
    x: float,
) -> float:
    """Derivative combination of the vary-rate-power mixture survival at fixed x."""
    x = _require_positive_x(x)
    p1, p2 = p
    l1, l2 = lam
    logs = float(baseline.log_survival(x))
    z1, z2 = np.exp(l1 * logs), np.exp(l2 * logs)
    ab = 1.0 - alpha
    m1 = 1.0 - ab * z1
    m2 = 1.0 - ab * z2
    d_p = alpha * (z1 - z2) / (m1 * m2)
    d_l = alpha * logs * (p1 * z1 * m2 * m2 - p2 * z2 * m1 * m1) / (m1 * m1 * m2 * m2)
    return (p1 - p2) * d_p + (l1 - l2) * d_l


def h_hr(
    p: tuple[float, float],
    alpha: tuple[float, float],
    lam: float,
    baseline: BaselineDistribution,
    x: float,
) -> float:
    """Derivative combination of the vary-tilt mixture hazard at fixed x.

    The sign claim behind this evaluator is asserted under the balance
    condition p1*alpha1 == p2*alpha2, which is enforced as a precondition.
    """
    x = _require_positive_x(x)
    p1, p2 = p
    a1, a2 = alpha
    if abs(p1 * a1 - p2 * a2) > 1e-10:
        raise ParameterError(
            f"h_hr requires p1*alpha1 == p2*alpha2 within 1e-10, got {p1 * a1!r} vs {p2 * a2!r}"
        )
    z = float(np.exp(lam * baseline.log_survival(x)))
    r = float(baseline.hazard(x))
    m1 = 1.0 - (1.0 - a1) * z
    m2 = 1.0 - (1.0 - a2) * z
    n = p1 * a1 * m2 * m2 + p2 * a2 * m1 * m1
    d = m1 * m2 * (p1 * a1 * m2 + p2 * a2 * m1)
    # quotient-rule partials of lam*r*N/D in each of the four coordinates
    dn_p1, dd_p1 = a1 * m2 * m2, a1 * m1 * m2 * m2
    dn_p2, dd_p2 = a2 * m1 * m1, a2 * m1 * m1 * m2
    dn_a1 = p1 * m2 * m2 + 2.0 * p2 * a2 * m1 * z
    dd_a1 = z * m2 * (p1 * a1 * m2 + p2 * a2 * m1) + m1 * m2 * (p1 * m2 + p2 * a2 * z)
    dn_a2 = p2 * m1 * m1 + 2.0 * p1 * a1 * m2 * z
    dd_a2 = z * m1 * (p1 * a1 * m2 + p2 * a2 * m1) + m1 * m2 * (p2 * m1 + p1 * a1 * z)
    c = lam * r / (d * d)
    dp1 = c * (dn_p1 * d - n * dd_p1)
    dp2 = c * (dn_p2 * d - n * dd_p2)
    da1 = c * (dn_a1 * d - n * dd_a1)
    da2 = c * (dn_a2 * d - n * dd_a2)
    return (p1 - p2) * (dp1 - dp2) + (a1 - a2) * (da1 - da2)
