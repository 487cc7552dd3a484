"""Feasible sets and Euclidean projection.

All learners in this package operate over an origin-centered axis-aligned
box, for which the Euclidean projection is an exact per-coordinate clamp.
Decision points are plain float64 numpy vectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


def as_decision(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite float64 vector, optionally checking its length."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"decision must be a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("decision has non-finite entries")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    return v


@dataclass(frozen=True)
class Box:
    """Origin-centered box ``[-half_width, half_width]^dim``.

    The box always contains the origin and has Euclidean diameter
    ``2 * half_width * sqrt(dim)``.
    """

    dim: int
    half_width: float

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be a positive integer")
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError("half_width must be a positive finite real")

    @classmethod
    def from_diameter(cls, dim: int, diameter: float) -> "Box":
        """Box whose Euclidean diameter equals ``diameter`` exactly."""
        if not (math.isfinite(diameter) and diameter > 0):
            raise ValueError("diameter must be a positive finite real")
        return cls(dim, diameter / (2.0 * math.sqrt(dim)))

    @property
    def diameter(self) -> float:
        return 2.0 * self.half_width * math.sqrt(self.dim)

    def project(self, p) -> np.ndarray:
        """Euclidean projection of one point: clamp each coordinate to [-half_width, half_width]."""
        p = np.asarray(p, dtype=np.float64)
        if p.shape != (self.dim,):
            raise ValueError(f"expected a point of dimension {self.dim}, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("point has non-finite entries")
        return np.clip(p, -self.half_width, self.half_width)

    def origin(self) -> np.ndarray:
        return np.zeros(self.dim)

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-self.half_width, self.half_width, size=self.dim)

    def vertices(self):
        """Iterate over all 2^dim corners (keep dim small)."""
        for signs in itertools.product((-1.0, 1.0), repeat=self.dim):
            yield self.half_width * np.array(signs)
