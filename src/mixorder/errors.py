"""Semantic exception hierarchy shared by every mixorder module."""

from __future__ import annotations


class MixOrderError(Exception):
    """Base class for all mixorder errors."""


class ParameterError(MixOrderError, ValueError):
    """A constructor or call argument violates its contract (range, count, sign)."""


class DomainError(MixOrderError, ValueError):
    """An evaluation point lies outside the mathematical domain of the function."""


class ShapeError(MixOrderError, ValueError):
    """Vector or matrix dimensions are incompatible."""


class NumericalError(MixOrderError, ArithmeticError):
    """Evaluation became numerically meaningless (e.g. survival underflow).

    ``witness`` carries the offending evaluation point when known.
    """

    def __init__(self, message: str, witness: float | None = None):
        super().__init__(message if witness is None else f"{message} (witness x={witness!r})")
        self.witness = witness


class TailError(MixOrderError):
    """A quantile level lies past ``cdf(1e18)``, beyond the heavy-tail guard.

    Raised before any inversion work; the message names the first such level.
    """


class InfiniteMeanSuspected(MixOrderError):
    """The Lorenz machinery detected a (numerically) divergent mean integral."""
