"""Baseline lifetime distributions: survival, density, hazard and inverse survival.

Two concrete families are built in, both supported on (0, inf):

* ``Exponential(rate=a)``        -- S(x) = exp(-a x)
* ``PowerBurr(shape_a, shape_b)`` -- S(x) = (1 + x**a) ** (-b)

A baseline family is a frozen dataclass whose fields are its parameters.  It
implements ``log_survival``, ``hazard``, ``inverse_log_survival`` and
``tail_index`` and declares ``param_names``, the ``make_baseline`` names of its
fields.  ``BaselineDistribution`` does the rest once for every family: it
validates the fields (> 0 and finite) and serializes them (``params()``), and
derives ``survival = exp(log_survival)``, ``density = hazard * survival`` and
``inverse_survival(u) = inverse_log_survival(log u)``.  Mixtures, orders and
propositions reach a baseline only through these methods, so a further family
is one subclass and one entry in ``make_baseline``'s registry.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, ParameterError

__all__ = ["BaselineDistribution", "Exponential", "PowerBurr", "make_baseline"]


def _as_nonneg_array(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not (arr >= 0).all():  # also rejects NaN
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


def _where_overflowed(values, overflowed, tail, x):
    """``values`` with ``tail(x)`` in place of its entries where ``overflowed`` holds.

    ``tail`` runs on those entries of ``x`` only; a 0-d result comes back as a scalar.
    """
    values = np.asarray(values)
    if overflowed.any():
        values[overflowed] = tail(np.asarray(x)[overflowed])
    return values[()]


class BaselineDistribution(ABC):
    """A baseline survival bundle on (0, inf).

    A subclass implements ``log_survival``, ``hazard``, ``inverse_log_survival``
    and ``tail_index``, with S(0) = 1 and S strictly decreasing to 0; ``hazard``
    is the closed form, also where the survival underflows to 0.0.  This class
    derives ``survival``, ``density`` and ``inverse_survival`` from them, so
    hazard(x) = density(x) / survival(x) wherever survival(x) > 0.
    """

    kind: str
    param_names: tuple[str, ...]

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (v > 0 and np.isfinite(v)):
                raise ParameterError(f"{self.kind} {f.name} must be > 0, got {v!r}")

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
        return {name: getattr(self, f.name) for name, f in zip(self.param_names, fields(self))}


@dataclass(frozen=True)
class Exponential(BaselineDistribution):
    rate: float

    kind = "exponential"
    param_names = ("a",)
    tail_index = float("inf")

    def log_survival(self, x):
        return -self.rate * _as_nonneg_array(x)

    def hazard(self, x):
        return np.full_like(_as_nonneg_array(x), self.rate)

    def inverse_log_survival(self, logs):
        return -_as_log_survival_level(logs) / self.rate


@dataclass(frozen=True)
class PowerBurr(BaselineDistribution):
    shape_a: float
    shape_b: float

    kind = "power_burr"
    param_names = ("a", "b")

    def log_survival(self, x):
        arr = _as_nonneg_array(x)
        a, b = self.shape_a, self.shape_b
        with np.errstate(over="ignore"):
            xa = arr**a
            # where x**a overflows, log1p(x**a) = a*log(x) + log1p(x**-a)
            return -b * _where_overflowed(np.log1p(xa), np.isinf(xa),
                                          lambda y: a * np.log(y) + np.log1p(y**-a), arr)

    def hazard(self, x):
        arr = _as_nonneg_array(x)
        a, b = self.shape_a, self.shape_b
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            xa = arr**a
            # where x**a overflows, x**(a-1)/(1 + x**a) = 1/(x*(1 + x**-a))
            return _where_overflowed(a * b * arr ** (a - 1.0) / (1.0 + xa), np.isinf(xa),
                                     lambda y: a * b / (y * (1.0 + y**-a)), arr)

    def inverse_log_survival(self, logs):
        v = -_as_log_survival_level(logs) / self.shape_b
        with np.errstate(over="ignore"):
            e = np.expm1(v)
            # where expm1(v) overflows, expm1(v)**(1/a) = exp((v + log(-expm1(-v))) / a)
            return _where_overflowed(e ** (1.0 / self.shape_a), np.isinf(e),
                                     lambda w: np.exp((w + np.log(-np.expm1(-w))) / self.shape_a), v)

    @property
    def tail_index(self) -> float:
        return self.shape_a * self.shape_b


_REGISTRY = {cls.kind: cls for cls in (Exponential, PowerBurr)}


def make_baseline(kind: str, **params: float) -> BaselineDistribution:
    """Construct a registered baseline from its string kind and named parameters.

    ``make_baseline("exponential", a=0.2)`` or
    ``make_baseline("power_burr", a=0.2, b=0.5)``.
    """
    try:
        cls = _REGISTRY[kind]
    except KeyError:
        raise ParameterError(
            f"unknown baseline kind {kind!r}; known: {sorted(_REGISTRY)}"
        ) from None
    names = cls.param_names
    missing = [n for n in names if n not in params]
    extra = [n for n in params if n not in names]
    if missing or extra:
        raise ParameterError(
            f"baseline {kind!r} takes parameters {names}, got {sorted(params)}"
        )
    return cls(*(float(params[n]) for n in names))
