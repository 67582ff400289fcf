"""Finite mixtures of tilt/rate-power transformed baselines.

Every evaluation is a function of the baseline log-survival ``log s = log S(x)``:
component i contributes ``z_i = s**lam_i`` and ``m_i = 1 - (1 - alpha_i) * z_i``;
survival is ``sum_i p_i alpha_i z_i / m_i`` and density ``r(x) sum_i p_i lam_i
alpha_i z_i / m_i**2`` with ``r`` the baseline hazard.  One private kernel,
``MixtureModel._terms``, computes these terms from ``log s`` for the public
methods, ``orders`` and ``theorems``.  When every component shares one ``lam``
(every ``vary_alpha`` model) it computes one power instead of n identical ones.
``vary_alpha`` components differ in weight and tilt, ``vary_lambda`` components
in weight and ``lam`` (sharing the tilt); both are stored as (weight, alpha,
lam) triples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .baseline import BaselineDistribution
from .errors import DomainError, NumericalError, ParameterError, TailError

__all__ = [
    "MixtureModel",
    "EvaluationGrid",
    "CurveSeries",
    "default_grid",
    "evaluate_curve",
]

_WEIGHT_TOL = 1e-12
# quantile bisection bracket in log x: e^-745 is the smallest subnormal, and
# levels past cdf(1e18) are a heavy tail the solver does not follow
_QUANTILE_LOG_X_MIN = -745.0
_QUANTILE_X_MAX = 1e18
_QUANTILE_LOG_RTOL = 1e-15
_QUANTILE_MAX_ITER = 200

CURVE_KINDS = ("survival", "hazard", "density", "cdf")


@dataclass(frozen=True)
class MixtureModel:
    """An n-component mixture, immutable after construction."""

    baseline: BaselineDistribution
    variant: str  # "vary_alpha" | "vary_lambda"
    weights: tuple[float, ...]
    alphas: tuple[float, ...]
    lams: tuple[float, ...]

    def __post_init__(self):
        n = len(self.weights)
        if n < 1 or len(self.alphas) != n or len(self.lams) != n:
            raise ParameterError("weights/alphas/lams must share a positive length")
        if self.variant not in ("vary_alpha", "vary_lambda"):
            raise ParameterError(f"unknown mixture variant {self.variant!r}")
        if any(not (w > 0 and math.isfinite(w)) for w in self.weights):
            raise ParameterError("all mixing weights must be > 0")
        if abs(sum(self.weights) - 1.0) > _WEIGHT_TOL:
            raise ParameterError(
                f"mixing weights must sum to 1 within {_WEIGHT_TOL}, got {sum(self.weights)!r}"
            )
        for name, vals in (("alpha", self.alphas), ("lam", self.lams)):
            if any(not (v > 0 and math.isfinite(v)) for v in vals):
                raise ParameterError(f"all {name} values must be positive reals")

    # -- constructors ------------------------------------------------------

    @classmethod
    def vary_alpha(
        cls,
        baseline: BaselineDistribution,
        lam: float,
        components: Iterable[tuple[float, float]],
    ) -> "MixtureModel":
        """Components given as (weight, tilt) pairs sharing one rate power."""
        comps = tuple(components)
        return cls(
            baseline=baseline,
            variant="vary_alpha",
            weights=tuple(float(w) for w, _ in comps),
            alphas=tuple(float(a) for _, a in comps),
            lams=(float(lam),) * len(comps),
        )

    @classmethod
    def vary_lambda(
        cls,
        baseline: BaselineDistribution,
        alpha: float,
        components: Iterable[tuple[float, float]],
    ) -> "MixtureModel":
        """Components given as (weight, rate power) pairs sharing one tilt."""
        comps = tuple(components)
        return cls(
            baseline=baseline,
            variant="vary_lambda",
            weights=tuple(float(w) for w, _ in comps),
            alphas=(float(alpha),) * len(comps),
            lams=tuple(float(l) for _, l in comps),
        )

    @property
    def n_components(self) -> int:
        return len(self.weights)

    # -- evaluation --------------------------------------------------------

    def _terms(self, logs) -> "_Terms":
        """The kernel: per-component terms at ``logs``, components on axis 0."""
        logs = np.asarray(logs, dtype=float)
        col = (-1,) + (1,) * logs.ndim
        a = np.array(self.alphas).reshape(col)
        lam = np.array(self.lams[:1] if len(set(self.lams)) == 1 else self.lams).reshape(col)
        c = lam * logs
        z = np.exp(c)
        return _Terms(np.array(self.weights).reshape(col), a, lam, c, z, 1.0 - (1.0 - a) * z)

    def survival(self, x):
        return self._terms(self.baseline.log_survival(x)).survival()

    def cdf(self, x):
        return 1.0 - self.survival(x)

    def density(self, x):
        return self._terms(self.baseline.log_survival(x)).density(self.baseline.hazard(x))

    def hazard(self, x):
        return self._terms(self.baseline.log_survival(x)).hazard(self.baseline.hazard(x), x)

    # -- quantiles and sampling -------------------------------------------

    def quantile(self, u):
        """Invert the cdf at a scalar level or an array of levels in (0, 1).

        All levels are solved together by one vectorized bisection in ``log x``
        over ``(e^-745, 1e18]`` on this model's own ``cdf``, stopping when the
        bracket's width is below ``1e-15 * max(1, |log x|)``.  A scalar (or
        0-d) level returns a ``float``; an array returns an array of the same
        shape.  Raises ``DomainError`` for levels outside (0, 1) or NaN, and
        ``TailError``, before any bisection, when a level exceeds
        ``cdf(1e18)``.
        """
        levels = np.asarray(u, dtype=float)
        bad = ~((levels > 0.0) & (levels < 1.0))
        if np.any(bad):
            raise DomainError(
                f"quantile level must lie in (0, 1), got {float(levels[bad][0])!r}"
            )
        u_max = float(self.cdf(_QUANTILE_X_MAX))
        past = levels > u_max
        if np.any(past):
            raise TailError(
                f"quantile level {float(levels[past][0])!r} lies past "
                f"cdf({_QUANTILE_X_MAX:g}) = {u_max!r}"
            )
        lo = np.full(levels.shape, _QUANTILE_LOG_X_MIN)
        hi = np.full(levels.shape, np.log(_QUANTILE_X_MAX))
        for _ in range(_QUANTILE_MAX_ITER):
            mid = 0.5 * (lo + hi)
            below = self.cdf(np.exp(mid)) < levels
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
            if np.all(hi - lo <= _QUANTILE_LOG_RTOL * np.maximum(1.0, np.abs(mid))):
                break
        x = np.exp(0.5 * (lo + hi))
        return float(x) if levels.ndim == 0 else x

    def sample(self, n: int, seed: int) -> np.ndarray:
        """Inverse-transform sampling: pick a component, invert its survival."""
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ParameterError(f"sample count must be a positive integer, got {n!r}")
        rng = np.random.default_rng(seed)
        idx = rng.choice(self.n_components, size=n, p=np.asarray(self.weights))
        u = rng.uniform(size=n)
        a = np.asarray(self.alphas)[idx]
        lam = np.asarray(self.lams)[idx]
        z = (u / (a + u * (1.0 - a))) ** (1.0 / lam)
        return np.asarray(self.baseline.inverse_survival(z), dtype=float)


class _Terms(NamedTuple):
    """Columns ``w, a, lam``; ``c = lam * log s``, ``z = exp(c)``, tilt denominator ``m``."""

    w: np.ndarray
    a: np.ndarray
    lam: np.ndarray
    c: np.ndarray
    z: np.ndarray
    m: np.ndarray

    def head(self, k: int) -> "_Terms":
        """The terms at the first ``k`` levels of a one-dimensional level array."""
        return self._replace(c=self.c[:, :k], z=self.z[:, :k], m=self.m[:, :k])

    def components(self) -> np.ndarray:
        """Per-component survivals ``alpha_i * z_i / m_i``, shape (n,) + levels."""
        return self.a * self.z / self.m

    def survival(self):
        return np.sum(self.w * self.a * self.z / self.m, axis=0)

    def density(self, r):
        """Mixture density, given the baseline hazard ``r`` at the same points."""
        return np.sum(self.w * self.lam * self.a * self.z * r / self.m**2, axis=0)

    def hazard(self, r, x):
        """Mixture hazard, given the baseline hazard ``r`` at the points ``x``."""
        # density/survival with the common factor max_i z_i divided out, so the
        # ratio stays exact where every component survival underflows
        zt = np.exp(self.c - np.max(self.c, axis=0))
        num = np.sum(self.w * self.lam * self.a * zt / self.m**2, axis=0) * r
        den = np.sum(self.w * self.a * zt / self.m, axis=0)
        if np.any(den == 0.0):
            arr = np.asarray(x, dtype=float)
            witness = float(arr[np.asarray(den) == 0.0][0]) if arr.ndim else float(arr)
            raise NumericalError("mixture survival underflow in hazard", witness=witness)
        return num / den


# -- curve tabulation -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EvaluationGrid:
    """Strictly increasing grid of t in (0,1), mapped to x = t/(1-t)."""

    t_values: np.ndarray = field(repr=False)
    x_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        t = np.array(self.t_values, dtype=float)
        if t.ndim != 1 or t.size < 1:
            raise ParameterError("grid must be a one-dimensional, non-empty array")
        if np.any(t <= 0) or np.any(t >= 1):
            raise ParameterError("grid t-values must lie strictly inside (0, 1)")
        if np.any(np.diff(t) <= 0):
            raise ParameterError("grid t-values must be strictly increasing")
        # both arrays are private read-only copies, so x stays t/(1-t) for good
        x = t / (1.0 - t)
        t.flags.writeable = x.flags.writeable = False
        object.__setattr__(self, "t_values", t)
        object.__setattr__(self, "x_values", x)

    def __len__(self) -> int:
        return int(self.t_values.size)


def default_grid(points: int = 2001, t_min: float = 1e-4, t_max: float = 1.0 - 1e-4) -> EvaluationGrid:
    """Uniform t-grid on [t_min, t_max]; the endpoints t = 0, 1 are singular."""
    if not isinstance(points, (int, np.integer)) or points < 1:
        raise ParameterError(f"grid points must be a positive integer, got {points!r}")
    return EvaluationGrid(np.linspace(t_min, t_max, int(points)))


@dataclass(frozen=True, eq=False)
class CurveSeries:
    """Pointwise curve values, aligned with the generating grid."""

    which: str
    t: np.ndarray
    x: np.ndarray
    values: np.ndarray


def evaluate_curve(model: MixtureModel, grid: EvaluationGrid, which: str) -> CurveSeries:
    """Tabulate survival/hazard/density/cdf over the grid."""
    if which not in CURVE_KINDS:
        raise ParameterError(f"curve kind must be one of {CURVE_KINDS}, got {which!r}")
    x = grid.x_values
    try:
        values = getattr(model, which)(x)
    except NumericalError as exc:
        if exc.witness is not None:
            t_bad = exc.witness / (1.0 + exc.witness)
            raise NumericalError(
                f"curve evaluation failed at t={t_bad:.6g}", witness=exc.witness
            ) from exc
        raise
    return CurveSeries(which=which, t=grid.t_values, x=x, values=np.asarray(values, dtype=float))
