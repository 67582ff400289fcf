"""Vector majorization, T-transform matrices, and parameter-matrix spaces.

Vectors are compared through their increasing rearrangements: ``a`` majorizes
``b`` when every prefix sum of sorted(a) is <= the matching prefix sum of
sorted(b) and the totals agree; weak supermajorization drops the total-sum
requirement and demands the prefix inequality for every prefix including the
last.

A T-transform is T = omega*I + (1-omega)*P for a permutation matrix P; chains
of T-transforms acting on 2-row parameter matrices define the chain order used
by the theorem checkers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ParameterError, ShapeError

__all__ = [
    "ParameterMatrix",
    "TTransform",
    "majorizes",
    "weakly_supermajorizes",
    "apply_t_transform",
    "apply_chain",
    "verify_chain_witness",
    "same_structure",
    "in_space",
    "row_majorizes",
    "recover_t_transform_2x2",
]

# sorted-order comparisons tolerate the 2-4 decimal digits of the bundled
# example matrices
_ORDER_SLACK = 1e-12
# entrywise tolerance for a chain's image, and for a recovered omega
_WITNESS_TOL = 1e-9


@dataclass(frozen=True)
class ParameterMatrix:
    """A 2 x n matrix: mixing weights on top, tilt/rate parameters below."""

    top_row: tuple[float, ...]
    bottom_row: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "top_row", tuple(float(v) for v in self.top_row))
        object.__setattr__(self, "bottom_row", tuple(float(v) for v in self.bottom_row))
        n = len(self.top_row)
        if n < 2 or len(self.bottom_row) != n:
            raise ShapeError("parameter matrix needs two rows of equal length n >= 2")
        if any(v <= 0 or not math.isfinite(v) for v in self.top_row + self.bottom_row):
            raise ParameterError("parameter matrix entries must be positive reals")

    @property
    def n(self) -> int:
        return len(self.top_row)

    def as_array(self) -> np.ndarray:
        return np.array([self.top_row, self.bottom_row], dtype=float)


@dataclass(frozen=True)
class TTransform:
    """omega*I + (1-omega)*P with P the matrix of ``permutation`` (0-based)."""

    omega: float
    permutation: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "permutation", tuple(int(i) for i in self.permutation))
        if not (0.0 <= self.omega <= 1.0):
            raise ParameterError(f"omega must lie in [0, 1], got {self.omega!r}")
        n = len(self.permutation)
        if sorted(self.permutation) != list(range(n)):
            raise ParameterError(f"permutation must be a bijection of 0..{n - 1}")

    @property
    def n(self) -> int:
        return len(self.permutation)

    @classmethod
    def swap(cls, omega: float, i: int = 0, j: int = 1, n: int = 2) -> "TTransform":
        """The transposition mixing entries i and j of an n-vector."""
        perm = list(range(n))
        perm[i], perm[j] = perm[j], perm[i]
        return cls(omega=omega, permutation=tuple(perm))

    def matrix(self) -> np.ndarray:
        n = self.n
        p = np.zeros((n, n))
        p[np.arange(n), self.permutation] = 1.0
        return self.omega * np.eye(n) + (1.0 - self.omega) * p


def _sorted_prefix_sums(v: Sequence[float]) -> np.ndarray:
    return np.cumsum(np.sort(np.asarray(v, dtype=float)))


def majorizes(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when a majorizes b: prefix dominance of sorted vectors, equal totals."""
    if len(a) != len(b):
        raise ShapeError(f"vector lengths differ: {len(a)} vs {len(b)}")
    ca, cb = _sorted_prefix_sums(a), _sorted_prefix_sums(b)
    if abs(ca[-1] - cb[-1]) > _ORDER_SLACK:
        return False
    return bool(np.all(ca[:-1] <= cb[:-1] + _ORDER_SLACK))


def weakly_supermajorizes(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when every prefix sum of sorted(a) is <= the one of sorted(b)."""
    if len(a) != len(b):
        raise ShapeError(f"vector lengths differ: {len(a)} vs {len(b)}")
    ca, cb = _sorted_prefix_sums(a), _sorted_prefix_sums(b)
    return bool(np.all(ca <= cb + _ORDER_SLACK))


def apply_t_transform(m: ParameterMatrix, t: TTransform) -> ParameterMatrix:
    """Right-multiply both rows by T; row sums are preserved."""
    if t.n != m.n:
        raise ShapeError(f"transform size {t.n} does not match matrix width {m.n}")
    out = m.as_array() @ t.matrix()
    return ParameterMatrix(tuple(out[0]), tuple(out[1]))


def apply_chain(m: ParameterMatrix, chain: Iterable[TTransform]) -> ParameterMatrix:
    """Left-to-right application; an empty chain returns the matrix unchanged."""
    out = m
    for t in chain:
        out = apply_t_transform(out, t)
    return out


def verify_chain_witness(
    a: ParameterMatrix,
    b: ParameterMatrix,
    chain: Iterable[TTransform],
) -> bool:
    """True when applying the chain to A reproduces B entrywise within 1e-9."""
    if a.n != b.n:
        raise ShapeError(f"matrix widths differ: {a.n} vs {b.n}")
    produced = apply_chain(a, chain)
    return bool(np.max(np.abs(produced.as_array() - b.as_array())) <= _WITNESS_TOL)


def same_structure(chain: Sequence[TTransform]) -> bool:
    """True when every transform in the chain carries the same permutation."""
    if len(chain) == 0:
        raise ParameterError("structure of an empty chain is undefined")
    first = chain[0].permutation
    return all(t.permutation == first for t in chain)


def in_space(m: ParameterMatrix, which: str) -> bool:
    """Membership in K (rows oppositely ordered) or L (rows similarly ordered).

    K: (a_i - a_j)(b_i - b_j) <= 0 for all pairs; L: >= 0 for all pairs.
    """
    if which not in ("K", "L"):
        raise ParameterError(f"space must be 'K' or 'L', got {which!r}")
    top = np.asarray(m.top_row)
    bot = np.asarray(m.bottom_row)
    prod = np.subtract.outer(top, top) * np.subtract.outer(bot, bot)
    if which == "K":
        return bool(np.all(prod <= _ORDER_SLACK))
    return bool(np.all(prod >= -_ORDER_SLACK))


def row_majorizes(a: ParameterMatrix, b: ParameterMatrix) -> bool:
    """True when each row of A majorizes the corresponding row of B."""
    if a.n != b.n:
        raise ShapeError(f"matrix widths differ: {a.n} vs {b.n}")
    return majorizes(a.top_row, b.top_row) and majorizes(a.bottom_row, b.bottom_row)


def recover_t_transform_2x2(
    a: ParameterMatrix, b: ParameterMatrix
) -> TTransform | None:
    """Solve B = A * T_omega for the 2x2 swap transform, if a solution exists.

    Uses b11 = omega*a11 + (1-omega)*a12 on the first row with distinct
    entries; returns None when no omega in [0, 1] reproduces B within 1e-9.
    """
    if a.n != 2 or b.n != 2:
        raise ShapeError("recovery is defined for 2x2 matrices only")
    omega = None
    for row_a, row_b in zip(a.as_array(), b.as_array()):
        if abs(row_a[0] - row_a[1]) > _WITNESS_TOL:
            omega = (row_b[0] - row_a[1]) / (row_a[0] - row_a[1])
            break
    if omega is None:
        # both rows constant: any omega works, identity is canonical
        omega = 1.0
    if not (-_WITNESS_TOL <= omega <= 1.0 + _WITNESS_TOL):
        return None
    t = TTransform(omega=min(1.0, max(0.0, float(omega))), permutation=(1, 0))
    return t if verify_chain_witness(a, b, [t]) else None
