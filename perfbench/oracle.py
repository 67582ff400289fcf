"""Independent reference evaluation used to check the library's outputs.

Everything here is written from the model definition (component survival
``alpha * z / (1 - (1 - alpha) * z)`` with ``z = S(x)**lam`` over an
exponential or power_burr baseline S) and the order criteria documented in
``mixorder.orders``. None of it calls library evaluation code: the library is
only asked for a model's parameters.

A verdict comparison is made only where the reference is decisive. The
library decides "holds" by a worst scaled violation of at most ``SLACK``;
when the reference's own violation lies within a factor of 100 of that
threshold, rounding differences between two correct implementations can
flip the answer, so either answer is accepted there.
"""

from __future__ import annotations

import math

import numpy as np

SLACK = 1e-9
_BAND = (SLACK / 100.0, SLACK * 100.0)

# the library's documented limits (orders.py, mixture.py)
_SURVIVAL_FLOOR = 1e-280
_CDF_LO = 1e-300
_CDF_HI = 1.0 - 3e-8
_BRACKET_LIMIT = 1e18


class Mix:
    """A mixture rebuilt from plain parameters."""

    def __init__(self, kind: str, params: dict, weights, alphas, lams):
        self.kind = kind
        self.params = dict(params)
        self.w = np.asarray(weights, dtype=float)[:, None]
        self.a = np.asarray(alphas, dtype=float)[:, None]
        self.lam = np.asarray(lams, dtype=float)[:, None]

    @classmethod
    def of(cls, model) -> "Mix":
        """Copy the parameters of a library ``MixtureModel``."""
        b = model.baseline
        return cls(b.kind, b.params(), model.weights, model.alphas, model.lams)

    @classmethod
    def from_doc(cls, doc: dict, side: str) -> "Mix":
        """Model ``a`` or ``b`` of a scenario document; B is A times the T-transform chain."""
        m = np.array([doc["matrix_a"]["p"], doc["matrix_a"]["theta"]], dtype=float)
        if side == "b":
            for t in doc["chain"]:
                n = len(t["permutation"])
                perm = np.zeros((n, n))
                perm[np.arange(n), t["permutation"]] = 1.0
                m = m @ (t["omega"] * np.eye(n) + (1.0 - t["omega"]) * perm)
        common = np.full(m.shape[1], float(doc["common_param"]))
        alphas, lams = (m[1], common) if doc["model_variant"] == "vary_alpha" else (common, m[1])
        return cls(doc["baseline"]["kind"], doc["baseline"]["params"], m[0], alphas, lams)

    def base_log_survival(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "exponential":
            return -self.params["a"] * x
        return -self.params["b"] * np.log1p(x ** self.params["a"])

    def base_hazard(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "exponential":
            return np.full_like(x, self.params["a"])
        a, b = self.params["a"], self.params["b"]
        with np.errstate(divide="ignore"):
            return a * b * x ** (a - 1.0) / (1.0 + x**a)

    def _z(self, x):
        return np.exp(self.lam * self.base_log_survival(np.asarray(x, dtype=float))[None, :])

    def survival(self, x):
        z = self._z(x)
        return np.sum(self.w * self.a * z / (1.0 - (1.0 - self.a) * z), axis=0)

    def cdf(self, x):
        return 1.0 - self.survival(x)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        z = self._z(x)
        terms = self.w * self.lam * self.a * z / (1.0 - (1.0 - self.a) * z) ** 2
        return np.sum(terms, axis=0) * self.base_hazard(x)

    def hazard(self, x):
        # divide out the largest component power so the ratio survives underflow
        x = np.asarray(x, dtype=float)
        c = self.lam * self.base_log_survival(x)[None, :]
        zt = np.exp(c - np.max(c, axis=0))
        m = 1.0 - (1.0 - self.a) * np.exp(c)
        num = np.sum(self.w * self.lam * self.a * zt / m**2, axis=0)
        den = np.sum(self.w * self.a * zt / m, axis=0)
        return num / den * self.base_hazard(x)

    def quantile(self, u) -> np.ndarray:
        """Vectorized bisection in log x; ``inf`` where the level lies past 1e18."""
        u = np.asarray(u, dtype=float)
        lo = np.full(u.shape, -700.0)
        hi = np.full(u.shape, math.log(_BRACKET_LIMIT))
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            below = self.cdf(np.exp(mid)) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        q = np.exp(0.5 * (lo + hi))
        return np.where(self.cdf(np.full(1, _BRACKET_LIMIT))[0] < u, np.inf, q)

    def mean_is_finite(self) -> bool:
        """Exact tail-index test: the mixture tail behaves like S**min(lam)."""
        if self.kind == "exponential":
            return True
        return self.params["a"] * self.params["b"] * float(np.min(self.lam)) > 1.0


# -- verdicts -------------------------------------------------------------------


def _monotone_violation(values: np.ndarray) -> float:
    drops = -np.diff(values) / np.maximum(1.0, np.abs(values[:-1]))
    return float(np.max(np.maximum(drops, 0.0))) if drops.size else 0.0


def star_violations(m1: Mix, m2: Mix, t: np.ndarray) -> tuple[float, float] | None:
    """Worst violations of A <=star B and A >=star B; None when a quantile passes 1e18."""
    x = t / (1.0 - t)
    u1, u2 = m1.cdf(x), m2.cdf(x)
    keep = (u1 > _CDF_LO) & (u1 < _CDF_HI) & (u2 > _CDF_LO) & (u2 < _CDF_HI)
    q12, q21 = m2.quantile(u1[keep]), m1.quantile(u2[keep])
    if not (np.all(np.isfinite(q12)) and np.all(np.isfinite(q21))):
        return None
    xk = x[keep]
    return _monotone_violation(q12 / xk), _monotone_violation(q21 / xk)


def st_violations(m1: Mix, m2: Mix, t: np.ndarray) -> tuple[float, float]:
    x = t / (1.0 - t)
    d = m1.survival(x) - m2.survival(x)
    return float(np.max(np.maximum(d, 0.0))), float(np.max(np.maximum(-d, 0.0)))


def hr_violations(m1: Mix, m2: Mix, t: np.ndarray) -> tuple[float, float]:
    """Survival-ratio criterion, on the grid prefix where both survivals stay above the floor."""
    x = t / (1.0 - t)
    s1, s2 = m1.survival(x), m2.survival(x)
    safe = (s1 >= _SURVIVAL_FLOOR) & (s2 >= _SURVIVAL_FLOOR)
    n = int(np.argmin(safe)) if not np.all(safe) else safe.size
    return _monotone_violation(s2[:n] / s1[:n]), _monotone_violation(s1[:n] / s2[:n])


def compare_holds(name: str, got: bool, violation: float) -> list[str]:
    """Problems found comparing a library verdict with the reference violation."""
    if _BAND[0] < violation < _BAND[1]:
        return []
    expected = violation <= SLACK
    if got != expected:
        return [f"{name}: library says {got}, reference violation {violation:.3g}"]
    return []


def ks_distance(draws: np.ndarray, m: Mix) -> float:
    """Kolmogorov-Smirnov distance between draws and the mixture cdf.

    An ``inf`` draw stands for a value past the float range: it counts in the
    sample size, but the distance is taken at the finite draws only.
    """
    x = np.sort(draws)
    n = x.size
    x = x[np.isfinite(x)]
    f = m.cdf(x)
    i = np.arange(1, x.size + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def curve_mismatches(values: np.ndarray, reference: np.ndarray,
                     rtol: float = 1e-9, atol: float = 1e-15) -> int:
    """Number of points where the values differ from the reference beyond tolerance."""
    return int(np.sum(~(np.abs(values - reference) <= rtol * np.abs(reference) + atol)))
