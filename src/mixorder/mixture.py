"""Finite mixtures of tilt/rate-power transformed baselines.

Every evaluation is a function of the baseline log-survival ``log s = log S(x)``:
component i contributes ``z_i = s**lam_i`` and ``m_i = 1 - (1 - alpha_i) * z_i``;
survival is ``sum_i p_i alpha_i z_i / m_i`` and density ``r(x) sum_i p_i lam_i
alpha_i z_i / m_i**2`` with ``r`` the baseline hazard.  One private kernel,
``MixtureModel._terms``, computes these terms from ``log s`` for the public
methods, ``orders`` and ``theorems``.  When every component shares one ``lam``
(every ``vary_alpha`` model) it computes one power instead of n identical ones.

Quantiles are solved on the same kernel by safeguarded Newton steps in
``w = log(-log s)``, then mapped back through the baseline's closed-form
``inverse_log_survival``, so no step evaluates the baseline (see ``quantile``).

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
# quantile range: e^-745 is the smallest subnormal, and levels past cdf(1e18)
# are a heavy tail the solver does not follow; the solver's bracket in
# w = log(-log S) runs from -745 to log(-log S(1e18))
_QUANTILE_X_MIN = math.exp(-745.0)
_QUANTILE_X_MAX = 1e18
_QUANTILE_W_MIN = -745.0
_QUANTILE_W_RTOL = 1e-12
_QUANTILE_MAX_ITER = 200
_C_FLOOR = -np.finfo(float).max

CURVE_KINDS = ("survival", "hazard", "density", "cdf")


@dataclass(frozen=True)
class MixtureModel:
    """An n-component mixture, immutable after construction."""

    baseline: BaselineDistribution
    weights: tuple[float, ...]
    alphas: tuple[float, ...]
    lams: tuple[float, ...]

    def __post_init__(self):
        n = len(self.weights)
        if n < 1 or len(self.alphas) != n or len(self.lams) != n:
            raise ParameterError("weights/alphas/lams must share a positive length")
        if any(not (w > 0 and math.isfinite(w)) for w in self.weights):
            raise ParameterError("all mixing weights must be > 0")
        if abs(sum(self.weights) - 1.0) > _WEIGHT_TOL:
            raise ParameterError(
                f"mixing weights must sum to 1 within {_WEIGHT_TOL}, got {sum(self.weights)!r}"
            )
        for name, vals in (("alpha", self.alphas), ("lam", self.lams)):
            if any(not (v > 0 and math.isfinite(v)) for v in vals):
                raise ParameterError(f"all {name} values must be positive reals")
        # the kernel's columns w, a, lam, built once and never written; one lam
        # when all components share it
        lams = self.lams[:1] if len(set(self.lams)) == 1 else self.lams
        columns = (np.array(self.weights), np.array(self.alphas), np.array(lams))
        object.__setattr__(self, "_columns", columns)

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
        w, a, lam = self._columns
        w, a, lam = w.reshape(col), a.reshape(col), lam.reshape(col)
        c = lam * logs
        z = np.exp(c)
        return _Terms(w, a, lam, c, z, 1.0 - (1.0 - a) * z)

    def survival(self, x):
        return self._terms(self.baseline.log_survival(x)).survival()

    def cdf(self, x):
        return self._terms(self.baseline.log_survival(x)).cdf()

    def density(self, x):
        return self._terms(self.baseline.log_survival(x)).density(self.baseline.hazard(x))

    def hazard(self, x):
        return self._terms(self.baseline.log_survival(x)).hazard(self.baseline.hazard(x), x)

    # -- quantiles and sampling -------------------------------------------

    def quantile(self, u):
        """Invert the cdf at a scalar level or an array of levels in (0, 1).

        Each level is solved on the kernel ``_terms`` in ``w = log(-log S(x))``,
        bracketed by ``[-745, log(-log S(1e18))]`` and started from the small-u
        slope ``w0 = log(-log1p(-u) / sum_i p_i lam_i / alpha_i)``.  An iteration
        takes one Newton step, with derivative ``dG/dlog s`` (the kernel's
        ``density(1.0)``), on ``log F - log u`` for ``u <= 1/2``, where ``F`` is
        the cancellation-free cdf ``sum_i p_i (1 - z_i) / m_i``, and on
        ``log1p(-u) - log G`` above; a step that leaves the bracket becomes a
        bisection.  A level stops, and leaves the working arrays, once its step
        is at most ``1e-12 * max(1, |w|)``, so every level follows the same
        iterations, to the bit, as in a scalar call (``check_star`` starts them
        from its cdf table instead).  ``w`` maps back through the baseline's
        ``inverse_log_survival`` and is clipped to ``(e^-745, 1e18]``.

        A scalar (or 0-d) level returns a ``float``; an array returns an array
        of the same shape.  Raises ``DomainError`` for levels outside (0, 1) or
        NaN, and ``TailError``, before solving, when a level exceeds
        ``cdf(1e18)``.
        """
        slope = sum(p * l / a for p, a, l in zip(self.weights, self.alphas, self.lams))
        return self._quantile(u, lambda v: np.log(-np.log1p(-v) / slope))

    def _quantile(self, u, start):
        """``quantile`` with the Newton start ``w0 = start(v)`` for the flattened levels ``v``."""
        levels = np.asarray(u, dtype=float)
        bad = ~((levels > 0.0) & (levels < 1.0))
        if np.any(bad):
            raise DomainError(
                f"quantile level must lie in (0, 1), got {float(levels[bad][0])!r}"
            )
        logs_max = self.baseline.log_survival(_QUANTILE_X_MAX)
        u_max = float(self._terms(logs_max).cdf())
        past = levels > u_max
        if np.any(past):
            raise TailError(
                f"quantile level {float(levels[past][0])!r} lies past "
                f"cdf({_QUANTILE_X_MAX:g}) = {u_max!r}"
            )
        flat = levels.reshape(-1)
        w_max = math.log(-float(logs_max))
        w = self._solve_log_log_survival(flat, np.clip(start(flat), _QUANTILE_W_MIN, w_max), w_max)
        x = self.baseline.inverse_log_survival(-np.exp(w))
        x = np.clip(x, _QUANTILE_X_MIN, _QUANTILE_X_MAX)
        return float(x[0]) if levels.ndim == 0 else x.reshape(levels.shape)

    def _table_start(self, cdf: np.ndarray, logs: np.ndarray):
        """A Newton start for ``_quantile`` from this model's increasing cdf table.

        ``cdf``, inside ``(1e-300, 1 - 3e-8)``, and baseline ``logs`` at the same
        points give ``w = log(-log s)`` linear in ``log u`` for ``u <= 1/2`` and
        ``-log s`` linear in ``-log(1 - u)`` above, where the mixture is nearly
        linear; past the far ends it follows ``u ~ e^w`` and ``1 - u ~ s^min(lam)``.
        """
        def start(u):
            lc, hc, lam = np.log(cdf), -np.log1p(-cdf), min(self.lams)
            lu, hu = np.log(u), -np.log1p(-u)
            low = np.interp(lu, lc, np.log(-logs) - lc) + lu
            high = (np.interp(hu, hc, -lam * logs - hc) + np.maximum(hu, hc[0])) / lam
            return np.where(u <= 0.5, low, np.log(high))
        return start

    def _solve_log_log_survival(self, u: np.ndarray, w: np.ndarray, w_max: float) -> np.ndarray:
        """``w = log(-log s)`` with ``1 - G(s) = u`` for each level of the 1-d ``u``, from ``w``."""
        upper = u > 0.5
        target = np.where(upper, np.log1p(-u), np.log(u))
        lo = np.full(u.shape, _QUANTILE_W_MIN)
        hi = np.full(u.shape, w_max)
        out = np.empty(u.shape)
        todo = np.arange(u.size)
        # log(0) and 0 * inf where a level's kernel under- or overflows make the
        # Newton step non-finite; such a step is replaced by a bisection
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(_QUANTILE_MAX_ITER):
                ew = np.exp(w)
                t = self._terms(-ew)
                tail = np.where(upper, t.survival(), t.cdf())
                g = np.where(upper, target - np.log(tail), np.log(tail) - target)
                low = g < 0.0
                lo = np.where(low, w, lo)
                hi = np.where(low, hi, w)
                # dg/dw = e^w * (dG/dlog s) / tail on both sides
                step = -g * tail / (t.density(1.0) * ew)
                new = w + step
                new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
                done = np.abs(new - w) <= _QUANTILE_W_RTOL * np.maximum(1.0, np.abs(w))
                out[todo[done]] = new[done]
                go = ~done
                if not np.any(go):
                    break
                todo, w, lo, hi, upper, target = (
                    arr[go] for arr in (todo, new, lo, hi, upper, target)
                )
            else:
                out[todo] = w
        return out

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


def _sum_rows(rows):
    """Sum over the component axis 0 in row order.

    ``np.sum`` switches to pairwise order from 8 components on, and whether it
    does depends on the number of levels, so a level could sum differently in a
    scalar and in an array call; row order gives every level the same sum.
    """
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total


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
        return _sum_rows(self.w * self.a * self.z / self.m)

    def cdf(self):
        """``1 - survival`` as ``sum_i w_i (1 - z_i) / m_i``, free of cancellation near s = 1."""
        return _sum_rows(self.w * -np.expm1(self.c) / self.m)

    def density(self, r):
        """Mixture density, given the baseline hazard ``r`` at the same points."""
        return _sum_rows(self.w * self.lam * self.a * self.z * r / self.m**2)

    def hazard(self, r, x):
        """Mixture hazard, given the baseline hazard ``r`` at the points ``x``."""
        # density/survival with the common factor max_i z_i divided out, so the
        # ratio stays exact where every component survival underflows; the
        # finite floor of the max keeps c - max c at -inf, not NaN, where every
        # c is -inf
        zt = np.exp(self.c - np.max(self.c, axis=0, initial=_C_FLOOR))
        num = _sum_rows(self.w * self.lam * self.a * zt / self.m**2) * r
        den = _sum_rows(self.w * self.a * zt / self.m)
        if np.any(den == 0.0):
            # at s = 0 (x = inf) every c is -inf: the ratio's limit is min(lam) * r
            at_zero = np.isneginf(self.c[0])
            under = (den == 0.0) & ~at_zero
            if np.any(under):
                arr = np.asarray(x, dtype=float)
                witness = float(arr[under][0]) if arr.ndim else float(arr)
                raise NumericalError("mixture survival underflow in hazard", witness=witness)
            with np.errstate(invalid="ignore"):
                return np.where(at_zero, np.min(self.lam) * r, num / den)[()]
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
        if not np.all((t > 0) & (t < 1)):  # also rejects NaN
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
