"""Finite mixtures of tilt/rate-power transformed baselines.

Every evaluation is a function of the baseline log-survival ``log s = log S(x)``:
component i contributes ``z_i = s**lam_i`` and ``m_i = 1 - (1 - alpha_i) * z_i``;
survival is ``sum_i p_i alpha_i z_i / m_i`` and density ``r(x) sum_i p_i lam_i
alpha_i z_i / m_i**2`` with ``r`` the baseline hazard.  One private kernel,
``MixtureModel._terms``, computes these terms from ``log s`` for the public
methods, ``orders`` and ``theorems``.  When every component shares one ``lam``
(every ``vary_alpha`` model) it computes one power instead of n identical ones,
and the hazard needs no rescaling by it.

Quantiles are solved on the same kernel by safeguarded Newton steps in
``w = log(-log s)``, then mapped back through the baseline's closed-form
``inverse_log_survival``, so no step evaluates the baseline (see ``quantile``).

``vary_alpha`` components differ in weight and tilt, ``vary_lambda`` components
in weight and ``lam`` (sharing the tilt); both are stored as (weight, alpha,
lam) triples.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

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
# values that the large-array paths (sample, check_st and check_hr, the CLI's
# curve and sample output) work on at a time, so that their twenty-odd
# temporaries stay within a few MB instead of growing with the grid; _blocks
# turns it into a slice size
_BLOCK = 8192

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
        # the kernel's columns w, a, lam, w*a and w*lam*a, built once and never
        # written; one lam when all components share it
        lams = self.lams[:1] if len(set(self.lams)) == 1 else self.lams
        w, a, lam = np.array(self.weights), np.array(self.alphas), np.array(lams)
        object.__setattr__(self, "_columns", (w, a, lam, w * a, w * lam * a))

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

    def _shares_power(self, other: "MixtureModel") -> bool:
        """Whether the two models share their one ``lam``, and so ``z = s**lam``."""
        lam, other_lam = self._columns[2], other._columns[2]
        return lam.size == other_lam.size == 1 and lam[0] == other_lam[0]

    def _terms(self, logs, power: "tuple[np.ndarray, np.ndarray] | None" = None) -> "_Terms":
        """The kernel: per-component terms at ``logs``, components on axis 0.

        ``power``, the ``(c, z = exp(c))`` at the same ``logs`` of a model that shares
        this one's ``lam`` (``_shares_power``), is taken instead of computed.
        """
        logs = np.asarray(logs, dtype=float)
        col = (-1,) + (1,) * logs.ndim
        w, a, lam, wa, wla = (v.reshape(col) for v in self._columns)
        if power is not None:
            c, z = power
        else:
            c = lam * logs
            z = np.exp(c)
        return _Terms(w, a, lam, wa, wla, c, z, 1.0 - (1.0 - a) * z)

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
        ``survival_slope``), on ``log F - log u`` for ``u <= 1/2``, where ``F`` is
        the cancellation-free cdf ``sum_i p_i (1 - z_i) / m_i``, and on
        ``log1p(-u) - log G`` above; a step that leaves the bracket becomes a
        bisection.  A level stops, and leaves the working arrays, once its step
        is at most ``1e-12 * max(1, |w|)``, so every level follows the same
        iterations, to the bit, as in a scalar call.  (``check_star`` starts its
        levels from a cdf table instead, and they also stop on Newton's error
        bound, see ``_solve_log_log_survival``.)  ``w`` maps back through the
        baseline's ``inverse_log_survival`` and is clipped to ``(e^-745, 1e18]``.

        A scalar (or 0-d) level returns a ``float``; an array returns an array
        of the same shape.  Raises ``DomainError`` for levels outside (0, 1) or
        NaN, and then ``TailError``, before solving, when a level exceeds
        ``cdf(1e18)``.
        """
        levels = np.asarray(u, dtype=float)
        bad = ~((levels > 0.0) & (levels < 1.0))
        if np.any(bad):
            raise DomainError(
                f"quantile level must lie in (0, 1), got {float(levels[bad][0])!r}"
            )
        slope = sum(p * l / a for p, a, l in zip(self.weights, self.alphas, self.lams))
        return self._quantile(levels, lambda u, log_u, log1m_u: np.log(-log1m_u / slope))

    def _quantile(self, u, start):
        """``quantile`` of levels ``u`` already known to lie in (0, 1), with the Newton
        start ``w0 = start(u, log u, log1p(-u))`` for the flattened levels.

        The two logs serve the start and the solver's targets.  They are computed here
        unless the start carries ``levels = (u, log u, log1p(-u))`` for this very array
        ``u``, as ``_table_start``'s do; any other levels get their own logs.  A start
        marked ``near``, as ``_table_start``'s are, lets the solver stop a level on
        Newton's error bound.  Raises ``TailError`` when a level exceeds ``cdf(1e18)``.
        """
        levels = np.asarray(u, dtype=float)
        logs_max, u_max = self._tail_guard
        past = levels > u_max
        if np.any(past):
            raise TailError(
                f"quantile level {float(levels[past][0])!r} lies past "
                f"cdf({_QUANTILE_X_MAX:g}) = {u_max!r}"
            )
        flat = levels.reshape(-1)
        carried = getattr(start, "levels", None)
        if carried is not None and carried[0] is levels:
            log_u, log1m_u = carried[1:]
        else:
            log_u, log1m_u = np.log(flat), np.log1p(-flat)
        upper = flat > 0.5
        w_max = math.log(-logs_max)
        w0 = np.clip(start(flat, log_u, log1m_u), _QUANTILE_W_MIN, w_max)
        w = self._solve_log_log_survival(upper, np.where(upper, log1m_u, log_u), w0, w_max,
                                         getattr(start, "near", False))
        x = self.baseline.inverse_log_survival(-np.exp(w))
        x = np.clip(x, _QUANTILE_X_MIN, _QUANTILE_X_MAX)
        return float(x[0]) if levels.ndim == 0 else x.reshape(levels.shape)

    @cached_property
    def _tail_guard(self) -> tuple[float, float]:
        """``log S`` and the cdf at 1e18: the solver's bracket end and its tail guard."""
        logs_max = self.baseline.log_survival(_QUANTILE_X_MAX)
        return float(logs_max), float(self._terms(logs_max).cdf())

    def _table_start(self, logs: np.ndarray, w: np.ndarray, table: tuple[np.ndarray, np.ndarray],
                     levels: tuple[np.ndarray, np.ndarray, np.ndarray]):
        """A Newton start for ``_quantile`` from this model's increasing cdf table, for
        increasing levels.

        ``logs`` are baseline ``log s`` at the table's points and ``w = log(-logs)``;
        ``table`` is ``(log u, log1p(-u))`` of this model's cdf ``u`` there, inside
        ``(1e-300, 1 - 3e-8)``, and ``levels`` is ``(u, log u, log1p(-u))`` of the levels
        that the start is made for, which it carries for ``_quantile``.  The start takes
        ``w`` linear in ``log u`` for the levels at or below 1/2 and ``-log s`` linear in
        ``-log(1 - u)`` for those above, where the mixture is nearly linear; past the far
        ends it follows ``u ~ e^w`` and ``1 - u ~ s^min(lam)``.  Like the table, the levels
        must be increasing, so the two sides are a split at one index; a side with no
        levels costs nothing.  Such a start lies within about one grid cell of its root,
        so it is marked ``near``: its levels stop on Newton's error bound.
        """
        lc, hc, lam = table[0], -table[1], min(self.lams)

        def start(u, log_u, log1m_u):
            j = u.size - np.count_nonzero(u > 0.5)  # the levels at or below 1/2 come first
            out = np.empty(u.size)
            if j:
                out[:j] = np.interp(log_u[:j], lc, w - lc) + log_u[:j]
            if j < u.size:
                hu = -log1m_u[j:]
                out[j:] = np.interp(hu, hc, -lam * logs - hc) + np.maximum(hu, hc[0])
                np.log(out[j:] / lam, out=out[j:])
            return out
        start.near = True
        start.levels = levels
        return start

    def _solve_log_log_survival(self, upper: np.ndarray, target: np.ndarray, w: np.ndarray,
                                w_max: float, near: bool) -> np.ndarray:
        """``w = log(-log s)`` with ``log G(s) = target`` where ``upper`` and ``log(1 - G(s))
        = target`` elsewhere, for each level of the 1-d arrays, from ``w``.

        A level stops once its step is at most ``1e-12 * max(1, |w|)``.  From a
        ``near`` start, within Newton's quadratic reach, it also stops after the
        first Newton step whose predicted remaining error ``K * step**2`` is at most
        a tenth of that (``_settled``), instead of evaluating the kernel once more
        to confirm it; the two stops differ by about that error.  The bracket is
        updated in place, the bisection is formed only when some step leaves it, and
        the levels still running are gathered once per iteration by their indices.
        """
        # bounds |D2/D1| = |sum_i q_i lam_i (2 - m_i) / m_i| / sum_i q_i, q_i >= 0, over
        # m_i in [min(1, a_i), max(1, a_i)]
        ratio_bound = max(self.lams) * max(1.0, 2.0 / min(self.alphas) - 1.0)
        lo = np.full(w.shape, _QUANTILE_W_MIN)
        hi = np.full(w.shape, w_max)
        out = np.empty(w.shape)
        todo = np.arange(w.size)
        # log(0) and 0 * inf where a level's kernel under- or overflows make the
        # Newton step non-finite; such a step is replaced by a bisection
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(_QUANTILE_MAX_ITER):
                ew = np.exp(w)
                t = self._terms(-ew)
                tail = _by_side(upper, t.survival, t.cdf)
                # log F - log u below 1/2 and log1p(-u) - log G above both rise with w
                g = np.log(tail) - target
                np.negative(g, out=g, where=upper)
                low = g < 0.0
                np.putmask(lo, low, w)
                np.putmask(hi, ~low, w)
                # dg/dw = e^w * (dG/dlog s) / tail on both sides
                slope = t.survival_slope() * ew
                step = -g * tail / slope
                new = w + step
                inside = (new >= lo) & (new <= hi)
                if not inside.all():
                    new = np.where(inside, new, 0.5 * (lo + hi))
                tol = _QUANTILE_W_RTOL * np.maximum(1.0, np.abs(w))
                done = np.abs(new - w) <= tol
                if near and not done.all():
                    done |= inside & _settled(t, ew, slope, tail, upper, step * step, 0.2 * tol,
                                              ratio_bound)
                out[todo] = new
                go = (~done).nonzero()[0]
                if not go.size:
                    break
                todo, w, lo, hi, upper, target = (
                    arr.take(go) for arr in (todo, new, lo, hi, upper, target)
                )
        return out

    def sample(self, n: int, seed: int, block: slice | None = None) -> np.ndarray:
        """Inverse-transform sampling: pick a component, invert its survival.

        The draws are those of ``default_rng(seed)`` choosing all ``n`` component
        indices and then drawing ``n`` uniforms.  ``block``, a slice of ``range(n)``,
        makes only those draws of that stream, so a large sample can be taken one
        block at a time: ``choice`` takes one double of the stream per index, so the
        indices come from the seeded generator advanced to the block's start, and
        the uniforms from a second one advanced past the ``n`` indices as well.
        The work goes one ``_BLOCK`` of draws at a time.
        """
        _require_count(n, "sample count")
        _require_seed(seed)
        start, stop, step = (slice(None) if block is None else block).indices(n)
        if step != 1:
            raise ParameterError(f"sample block must be a contiguous slice, got {block!r}")
        rng, uniforms = np.random.default_rng(seed), np.random.default_rng(seed)
        rng.bit_generator.advance(start)
        uniforms.bit_generator.advance(n + start)
        p, alphas, lams = (np.asarray(v) for v in (self.weights, self.alphas, self.lams))
        draws = np.empty(max(stop - start, 0))
        for sub in _blocks(draws.size):
            size = sub.stop - sub.start
            idx = rng.choice(self.n_components, size=size, p=p)
            v = uniforms.uniform(size=size)
            a, lam = alphas[idx], lams[idx]
            draws[sub] = self.baseline.inverse_survival((v / (a + v * (1.0 - a))) ** (1.0 / lam))
        return draws


def _by_side(upper: np.ndarray, high, low) -> np.ndarray:
    """``np.where(upper, high(), low())``, calling only ``high`` or ``low`` where every level
    is on one side."""
    n = np.count_nonzero(upper)
    if n == upper.size:
        return high()
    return np.where(upper, high(), low()) if n else low()


def _settled(t: "_Terms", ew, slope, tail, upper, sq, tol, ratio_bound):
    """Where ``2 K sq <= tol``: Newton's predicted error ``K * sq`` after a step of square
    ``sq`` (Ortega & Rheinboldt, 1970) is within half of ``tol``.

    ``t`` is the kernel at ``w`` and ``ew = e^w``.  With ``D1 = dG/dlog s`` (``slope =
    e^w D1``), ``D2 = dD1/dlog s`` and ``g' = slope / tail``, ``K = |g''/2g'| = |1 - e^w
    D2/D1 -+ g'| / 2``, ``-`` for the cdf levels and ``+`` for the ``upper`` (survival)
    ones.  ``ratio_bound`` bounds ``|D2/D1|``, so ``D2`` is computed only at the levels
    that the bound ``2K <= 1 + e^w ratio_bound + g'`` leaves unsettled.
    """
    gp = slope / tail
    settled = (1.0 + ew * ratio_bound + gp) * sq <= tol
    rest = (~settled).nonzero()[0]
    if rest.size:
        ew, slope, gp, sq, tol, upper = (v.take(rest) for v in (ew, slope, gp, sq, tol, upper))
        k2 = np.abs(1.0 - ew * ew * t.density_slope(rest) / slope + np.where(upper, gp, -gp))
        settled[rest] = k2 * sq <= tol
    return settled


def _blocks(n: int, width: int = 1) -> list[slice]:
    """``range(n)`` as consecutive slices of ``_BLOCK // width`` indices, and at least
    ``width``, the last one shorter: rows of ``width`` values each, about ``_BLOCK`` values
    to a slice.  A pair of models (width 2) thus gets at least two points to a slice, so
    that only a one-point grid has no ratio step in its first slice."""
    step = max(width, _BLOCK // width)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _require_seed(seed) -> None:
    # bool is an int subclass, but True is not a seed
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")


def _require_count(value, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ParameterError(f"{what} must be a positive integer, got {value!r}")


def _sum_rows(rows):
    """Sum over the component axis 0 in row order.

    ``np.sum`` switches to pairwise order from 8 components on, and whether it
    does depends on the number of levels, so a level could sum differently in a
    scalar and in an array call; row order gives every level the same sum.
    """
    total = rows[0]
    for row in rows[1:]:
        total = total + row
    return total


class _Terms(NamedTuple):
    """Columns ``w, a, lam`` and products ``wa = w*a``, ``wla = w*lam*a``; ``c = lam * log s``,
    ``z = exp(c)`` and the tilt denominator ``m``."""

    w: np.ndarray
    a: np.ndarray
    lam: np.ndarray
    wa: np.ndarray
    wla: np.ndarray
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
        return _sum_rows(self.wa * self.z / self.m)

    def cdf(self):
        """``1 - survival`` as ``sum_i w_i (1 - z_i) / m_i``, free of cancellation near s = 1."""
        return _sum_rows(self.w * -np.expm1(self.c) / self.m)

    def survival_slope(self):
        """``dG/dlog s``, ``sum_i w_i lam_i a_i z_i / m_i**2``: ``density`` at a unit baseline
        hazard, to the bit, without multiplying by it."""
        return _sum_rows(self.wla * self.z / self.m**2)

    def density_slope(self, index):
        """``d survival_slope / dlog s``, ``sum_i w_i lam_i^2 a_i z_i (1 + (1 - a_i) z_i) /
        m_i**3``, at the levels ``index`` of a one-dimensional level array."""
        z, m = self.z.take(index, axis=1), self.m.take(index, axis=1)
        return _sum_rows(self.wla * self.lam * z * (2.0 - m) / (m * m * m))

    def density(self, r):
        """Mixture density, given the baseline hazard ``r`` at the same points."""
        return _sum_rows(self.wla * self.z * r / self.m**2)

    def hazard(self, r, x):
        """Mixture hazard, given the baseline hazard ``r`` at the points ``x``."""
        if self.lam.shape[0] == 1 and np.isfinite(self.c).all():
            # one lam: the rescaling below would multiply every term by exp(0) = 1.0
            return _sum_rows(self.wla / self.m**2) * r / _sum_rows(self.wa / self.m)
        # density/survival with the common factor max_i z_i divided out, so the
        # ratio stays exact where every component survival underflows; the
        # finite floor of the max keeps c - max c at -inf, not NaN, where every
        # c is -inf
        zt = np.exp(self.c - np.max(self.c, axis=0, initial=_C_FLOOR))
        num = _sum_rows(self.wla * zt / self.m**2) * r
        den = _sum_rows(self.wa * zt / self.m)
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
    """Strictly increasing grid of t in (0,1), mapped to x = t/(1-t).

    The grid keeps a private read-only copy of ``t_values`` (``default_grid``
    hands over its own array instead).  ``x_values`` is built, read-only, on its
    first read; the large-array paths form each block's ``x`` from its ``t`` with
    ``blocks`` instead, with the same bits.
    """

    t_values: np.ndarray = field(repr=False)
    _copy: InitVar[bool] = True

    def __post_init__(self, _copy):
        t = np.array(self.t_values, dtype=float) if _copy else self.t_values
        if t.ndim != 1 or t.size < 1:
            raise ParameterError("grid must be a one-dimensional, non-empty array")
        if not np.all((t > 0) & (t < 1)):  # also rejects NaN
            raise ParameterError("grid t-values must lie strictly inside (0, 1)")
        if np.any(t[1:] <= t[:-1]):
            raise ParameterError("grid t-values must be strictly increasing")
        t.flags.writeable = False
        object.__setattr__(self, "t_values", t)

    def __len__(self) -> int:
        return int(self.t_values.size)

    @cached_property
    def x_values(self) -> np.ndarray:
        x = _x_of(self.t_values)
        x.flags.writeable = False
        return x

    def blocks(self, width: int = 1) -> Iterator[tuple[slice, np.ndarray]]:
        """The grid's ``_blocks(len(self), width)``, in order, each with its points' ``x``."""
        for block in _blocks(len(self), width):
            yield block, _x_of(self.t_values[block])


def _x_of(t: np.ndarray) -> np.ndarray:
    """``t / (1 - t)``, dividing ``t`` into ``1 - t`` in place."""
    x = 1.0 - t
    np.divide(t, x, out=x)
    return x


def default_grid(points: int = 2001, t_min: float = 1e-4, t_max: float = 1.0 - 1e-4,
                 what: str = "grid points") -> EvaluationGrid:
    """Uniform t-grid on [t_min, t_max]; the endpoints t = 0, 1 are singular.

    A ``points`` that is not a positive integer, or a grid that cannot be
    allocated, is a ``ParameterError`` that names ``points`` as ``what``.
    """
    _require_grid_points(points, what)
    try:
        return EvaluationGrid(np.linspace(t_min, t_max, int(points)), _copy=False)
    except MemoryError:
        raise ParameterError(f"{what} asks for a grid of {points} points, "
                             f"more than this machine can allocate") from None


def _require_grid_points(points, what: str) -> None:
    """``points`` checked to be a positive integer that numpy can size an array by."""
    _require_count(points, what)
    try:
        np.broadcast_to(0.0, (points,))  # numpy's own size limit, without allocating
    except (ValueError, OverflowError) as exc:
        raise ParameterError(f"{what} is more than numpy can size an array by: {exc}") from None


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
    return CurveSeries(which=which, t=grid.t_values, x=x, values=_curve_values(model, x, which))


def _curve_values(model: MixtureModel, x: np.ndarray, which: str) -> np.ndarray:
    """``model``'s ``which`` curve at the points ``x``; a ``NumericalError`` names its t."""
    try:
        values = getattr(model, which)(x)
    except NumericalError as exc:
        if exc.witness is not None:
            t_bad = exc.witness / (1.0 + exc.witness)
            raise NumericalError(
                f"curve evaluation failed at t={t_bad:.6g}", witness=exc.witness
            ) from exc
        raise
    return np.asarray(values, dtype=float)
