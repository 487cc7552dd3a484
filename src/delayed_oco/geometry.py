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

try:  # clamp(v, lo, hi[, out]): the ufunc np.clip wraps, one dispatch, bitwise max then min
    from numpy._core.umath import clip as clamp
except ImportError:  # NumPy 1.x
    from numpy.core.umath import clip as clamp


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
    ``2 * half_width * sqrt(dim)``.  ``lo`` and ``hi`` are its bounds -half_width and
    half_width as read-only 0-d float64 arrays, against which every clamp runs.
    """

    dim: int
    half_width: float

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be a positive integer")
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError("half_width must be a positive finite real")
        for name, value in (("lo", -self.half_width), ("hi", self.half_width)):
            bound = np.array(value, dtype=np.float64)
            bound.setflags(write=False)
            object.__setattr__(self, name, bound)

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
        """Euclidean projection of one finite point of dimension ``dim`` (``as_decision``):
        clamp each coordinate to [-half_width, half_width]."""
        return clamp(as_decision(p, self.dim), self.lo, self.hi)

    def origin(self) -> np.ndarray:
        return np.zeros(self.dim)

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-self.half_width, self.half_width, size=self.dim)

    def vertices(self):
        """Iterate over all 2^dim corners (keep dim small)."""
        for signs in itertools.product((-1.0, 1.0), repeat=self.dim):
            yield self.half_width * np.array(signs)


_WALK_ROWS = 512  # the most steps a stretch sums at once, so a walk holds a chunk of rows
_STEP_ROWS = 8  # up to this many steps, one at a time are cheaper than a stretch


def clamped_walk(y: np.ndarray, steps: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 path: np.ndarray | None = None) -> np.ndarray:
    """The end of the walk y <- clamp(y - step, lo, hi) over the rows of ``steps``, in the
    box [lo, hi] with lo = -hi, bitwise the per-step loop.  ``lo`` and ``hi`` are 0-d, as
    a ``Box``'s, or arrays of y's shape; each clamp, of a stretch or of one step, is one
    ``clamp`` call, which selects a value and never rounds one, so it gives the same bits
    on every host.  ``path``, when given, has len(steps) + 1 rows and receives every
    position, row 0 being y; without it the walk holds one stretch of at most
    ``_WALK_ROWS`` rows.

    A clamp leaves a point inside the box as it is, so y minus a running difference of
    the next steps (``np.subtract.accumulate``) is the walk bitwise up to the row in
    which a coordinate leaves the box, where the clamp puts it on a face.  A step that
    pushes it further out clamps it back there (hi - s >= hi for s <= 0, and
    -hi - s <= -hi for s >= 0) while the running difference moves further out, so the
    coordinate rests on its face, the clamp of the difference, until a step of the
    difference's sign turns it back in.  A stretch commits the rows up to the first turn
    of any coordinate, read from the signs of the step and the difference, not from
    their product, which underflows to 0 below about 2.5e-324 (a box of half-width about
    1e-162, or subnormal steps).  The walk steps one row at a time where at most
    ``_STEP_ROWS`` steps are left, and after a stretch that committed at most that many
    rows, twice as many plain steps each time.  A NaN never leaves the box and walks on
    as NaN, as the loop's clamps keep it.  Past a row that left, the running difference
    may overflow or read inf - inf; the callers step under ``np.errstate``.
    """
    K = len(steps)
    chunk = path is None
    if not chunk:
        path[0] = y
    elif K > _STEP_ROWS:
        path = np.empty((min(K, _WALK_ROWS) + 1, *y.shape))
    k, size, plain, theta = 0, _WALK_ROWS, 1, y  # steps taken, the next stretch's, plain steps
    while k < K:
        stop = K  # the rows to step one at a time, unless a stretch pays first
        if K - k > _STEP_ROWS:
            span = path[(0 if chunk else k):][:min(size, K - k) + 1]
            run, m = span[1:], len(span) - 1  # the positions after each step; their count
            ahead = steps[k:k + m]
            span[0] = theta  # before the steps, as theta may be a row of the stretch before
            run[:] = ahead
            np.subtract.accumulate(span, axis=0, out=span)
            out = np.abs(run) > hi
            if out[:-1].any():  # up to its first turn a coordinate that left is out
                turns = out[:-1] & ((ahead[1:] > 0) == (run[:-1] > 0)) & (ahead[1:] != 0)
                first = int(turns.argmax())  # in the flattened rows; 0 when none turns
                if turns.flat[first]:
                    m = first // theta.size + 1
            clamp(run[:m], lo, hi, out=run[:m])
            theta, k, size = run[m - 1], k + m, max(32, 2 * m)
            if m > _STEP_ROWS:
                plain = 1
                continue
            stop, plain = min(k + plain, K), 2 * plain
        for s in range(k, stop):
            theta = clamp(theta - steps[s], lo, hi)
            if not chunk:
                path[s + 1] = theta
        k = stop
    return theta if theta.base is None else theta.copy()  # not a row of the stretch
