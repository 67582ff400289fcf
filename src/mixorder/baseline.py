"""Baseline lifetime distributions: survival, density, hazard and inverse survival.

Two concrete families are built in, both supported on (0, inf):

* ``Exponential(rate=a)``        -- S(x) = exp(-a x)
* ``PowerBurr(shape_a, shape_b)`` -- S(x) = (1 + x**a) ** (-b)

A baseline family implements ``log_survival``, ``hazard``,
``inverse_log_survival``, ``tail_index`` and ``params``, and checks its
parameters on construction.  ``BaselineDistribution`` derives the rest, once
for every family: ``survival = exp(log_survival)``, ``density = hazard *
survival`` and ``inverse_survival(u) = inverse_log_survival(log u)``.
Mixtures, orders and propositions reach a baseline only through these
methods, so a further family is one subclass and one entry in
``make_baseline``'s registry, with no change to dependent modules.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError

__all__ = ["BaselineDistribution", "Exponential", "PowerBurr", "make_baseline"]


def _as_nonneg_array(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(arr >= 0):  # also rejects NaN
        raise DomainError(f"evaluation point must be >= 0, got {x!r}")
    return arr


def _as_survival_level(u) -> np.ndarray:
    arr = np.asarray(u, dtype=float)
    if not np.all((arr > 0) & (arr <= 1)):  # also rejects NaN
        raise DomainError(f"survival level must lie in (0, 1], got {u!r}")
    return arr


def _as_log_survival_level(logs) -> np.ndarray:
    arr = np.asarray(logs, dtype=float)
    if not np.all(arr <= 0):  # also rejects NaN
        raise DomainError(f"log survival level must be <= 0, got {logs!r}")
    return arr


class BaselineDistribution(ABC):
    """A baseline survival bundle on (0, inf).

    A subclass implements ``log_survival``, ``hazard``, ``inverse_log_survival``
    and ``tail_index``, with S(0) = 1 and S strictly decreasing to 0; ``hazard``
    is the closed form, also where the survival underflows to 0.0.  This class
    derives ``survival``, ``density`` and ``inverse_survival`` from them, so
    hazard(x) = density(x) / survival(x) wherever survival(x) > 0.
    """

    kind: str

    @abstractmethod
    def log_survival(self, x): ...

    @abstractmethod
    def hazard(self, x): ...

    @abstractmethod
    def inverse_log_survival(self, logs):
        """The point x with ``log_survival(x) == logs``, exact where ``exp(logs)`` rounds to 1."""

    @property
    @abstractmethod
    def tail_index(self) -> float:
        """Decay exponent k with survival ~ x**-k as x -> inf; inf for lighter tails."""

    def survival(self, x):
        return np.exp(self.log_survival(x))

    def density(self, x):
        return self.hazard(x) * self.survival(x)

    def inverse_survival(self, u):
        """The point x with ``survival(x) == u``, for levels u in (0, 1]."""
        return self.inverse_log_survival(np.log(_as_survival_level(u)))

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

    def log_survival(self, x):
        return -self.rate * _as_nonneg_array(x)

    def hazard(self, x):
        return np.full_like(_as_nonneg_array(x), self.rate)

    def inverse_log_survival(self, logs):
        return -_as_log_survival_level(logs) / self.rate

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

    def log_survival(self, x):
        arr = _as_nonneg_array(x)
        a, b = self.shape_a, self.shape_b
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            xa = arr**a
            # where x**a overflows, log1p(x**a) = a*log(x) + log1p(x**-a)
            tail = a * np.log(arr) + np.log1p(arr**-a)
            return -b * np.where(np.isinf(xa), tail, np.log1p(xa))[()]

    def hazard(self, x):
        arr = _as_nonneg_array(x)
        a, b = self.shape_a, self.shape_b
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            xa = arr**a
            # where x**a overflows, x**(a-1)/(1 + x**a) = 1/(x*(1 + x**-a))
            tail = a * b / (arr * (1.0 + arr**-a))
            return np.where(np.isinf(xa), tail, a * b * arr ** (a - 1.0) / (1.0 + xa))[()]

    def inverse_log_survival(self, logs):
        v = -_as_log_survival_level(logs) / self.shape_b
        with np.errstate(over="ignore", divide="ignore"):
            e = np.expm1(v)
            # where expm1(v) overflows, expm1(v)**(1/a) = exp((v + log(-expm1(-v))) / a)
            tail = np.exp((v + np.log(-np.expm1(-v))) / self.shape_a)
        return np.where(np.isinf(e), tail, e ** (1.0 / self.shape_a))[()]

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
