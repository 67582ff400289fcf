"""Baseline lifetime distributions: survival, density, hazard and inverse survival.

Two concrete families are built in, both supported on (0, inf):

* ``Exponential(rate=a)``        -- S(x) = exp(-a x)
* ``PowerBurr(shape_a, shape_b)`` -- S(x) = (1 + x**a) ** (-b)

The abstract surface is deliberately small; mixture and tilt transforms only
ever touch ``survival`` / ``log_survival`` / ``density`` / ``hazard`` /
``inverse_survival`` / ``tail_index``, so further baselines can be registered
without touching dependent modules.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError

__all__ = ["BaselineDistribution", "Exponential", "PowerBurr", "make_baseline"]


def _as_nonneg_array(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0) or np.any(np.isnan(arr)):
        raise DomainError(f"evaluation point must be >= 0, got {x!r}")
    return arr


def _as_survival_level(u) -> np.ndarray:
    arr = np.asarray(u, dtype=float)
    if np.any(arr <= 0) or np.any(arr > 1) or np.any(np.isnan(arr)):
        raise DomainError(f"survival level must lie in (0, 1], got {u!r}")
    return arr


class BaselineDistribution(ABC):
    """A baseline survival bundle on (0, inf).

    Implementations must satisfy S(0) = 1, S strictly decreasing to 0, and
    hazard(x) = density(x) / survival(x) wherever survival(x) > 0.  When
    survival underflows to 0.0 the closed-form hazard is still returned;
    callers that cannot tolerate the underflow must guard on ``survival``.
    """

    kind: str

    @abstractmethod
    def survival(self, x): ...

    @abstractmethod
    def log_survival(self, x): ...

    @abstractmethod
    def density(self, x): ...

    @abstractmethod
    def hazard(self, x): ...

    @abstractmethod
    def inverse_survival(self, u): ...

    @property
    @abstractmethod
    def tail_index(self) -> float:
        """Decay exponent k with survival ~ x**-k as x -> inf; inf for lighter tails."""

    def evaluate(self, x) -> dict:
        """Survival, density and hazard at x in one call."""
        return {"survival": self.survival(x), "density": self.density(x), "hazard": self.hazard(x)}

    def params(self) -> dict[str, float]:
        """Constructor parameters, keyed as accepted by :func:`make_baseline`."""
        raise NotImplementedError


@dataclass(frozen=True)
class Exponential(BaselineDistribution):
    rate: float

    kind = "exponential"
    tail_index = float("inf")

    def __post_init__(self):
        if not (self.rate > 0 and np.isfinite(self.rate)):
            raise ParameterError(f"exponential rate must be > 0, got {self.rate!r}")

    def survival(self, x):
        return np.exp(-self.rate * _as_nonneg_array(x))

    def log_survival(self, x):
        return -self.rate * _as_nonneg_array(x)

    def density(self, x):
        return self.rate * np.exp(-self.rate * _as_nonneg_array(x))

    def hazard(self, x):
        return np.full_like(_as_nonneg_array(x), self.rate)

    def inverse_survival(self, u):
        return -np.log(_as_survival_level(u)) / self.rate

    def params(self) -> dict[str, float]:
        return {"a": self.rate}


@dataclass(frozen=True)
class PowerBurr(BaselineDistribution):
    shape_a: float
    shape_b: float

    kind = "power_burr"

    def __post_init__(self):
        for name, v in (("shape_a", self.shape_a), ("shape_b", self.shape_b)):
            if not (v > 0 and np.isfinite(v)):
                raise ParameterError(f"power_burr {name} must be > 0, got {v!r}")

    def survival(self, x):
        return np.exp(self.log_survival(x))

    def log_survival(self, x):
        arr = _as_nonneg_array(x)
        return -self.shape_b * np.log1p(arr**self.shape_a)

    def density(self, x):
        # a*b*x**(a-1) * (1+x**a)**(-(b+1)); x**(a-1) diverges at 0 when a < 1
        arr = _as_nonneg_array(x)
        a, b = self.shape_a, self.shape_b
        with np.errstate(divide="ignore"):
            lead = arr ** (a - 1.0)
        return a * b * lead * np.exp(-(b + 1.0) * np.log1p(arr**a))

    def hazard(self, x):
        arr = _as_nonneg_array(x)
        a, b = self.shape_a, self.shape_b
        with np.errstate(divide="ignore"):
            lead = arr ** (a - 1.0)
        return a * b * lead / (1.0 + arr**a)

    def inverse_survival(self, u):
        arr = _as_survival_level(u)
        return (arr ** (-1.0 / self.shape_b) - 1.0) ** (1.0 / self.shape_a)

    @property
    def tail_index(self) -> float:
        return self.shape_a * self.shape_b

    def params(self) -> dict[str, float]:
        return {"a": self.shape_a, "b": self.shape_b}


_REGISTRY = {
    "exponential": (Exponential, ("a",)),
    "power_burr": (PowerBurr, ("a", "b")),
}


def make_baseline(kind: str, **params: float) -> BaselineDistribution:
    """Construct a registered baseline from its string kind and named parameters.

    ``make_baseline("exponential", a=0.2)`` or
    ``make_baseline("power_burr", a=0.2, b=0.5)``.
    """
    try:
        cls, names = _REGISTRY[kind]
    except KeyError:
        raise ParameterError(
            f"unknown baseline kind {kind!r}; known: {sorted(_REGISTRY)}"
        ) from None
    missing = [n for n in names if n not in params]
    extra = [n for n in params if n not in names]
    if missing or extra:
        raise ParameterError(
            f"baseline {kind!r} takes parameters {names}, got {sorted(params)}"
        )
    return cls(*(float(params[n]) for n in names))
