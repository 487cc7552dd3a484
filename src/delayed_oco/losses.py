"""Convex loss sequences f_1..f_T, one array-backed family per kind.

* ``QuadraticTracking(targets, scale)``  f_t(x) = (scale/2) * ||x - targets[t-1]||^2
* ``Linear(grads)``                      f_t(x) = <grads[t-1], x>

A family holds all T rounds as one (T, n) array.  ``value(t, x)`` and
``gradient(t, x)`` evaluate round t (1-based, as everywhere in the package)
at one point; ``values(X)`` evaluates every round t at row t-1 of X in one
batched call.  Inputs are validated where they enter the program (the
config boundary), not on every call.

``len(f)`` is T and ``f[i]`` (0-based) is the one-round family of round i+1.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Box, as_decision  # noqa: F401  (the benchmark's tests read losses.as_decision)


def _frozen(a) -> np.ndarray:
    """Read-only float64 copy, so a row handed out can never alter the family."""
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


class QuadraticTracking:
    """f_t(x) = (scale/2) * ||x - targets[t-1]||_2^2, minimized at the round's target."""

    def __init__(self, targets, scale: float):
        self.targets = _frozen(targets)
        self.scale = float(scale)

    def __len__(self) -> int:
        return self.targets.shape[0]

    def __getitem__(self, i: int) -> "QuadraticTracking":
        return QuadraticTracking(self.targets[[i]], self.scale)

    def value(self, t: int, x) -> float:
        d = x - self.targets[t - 1]
        return 0.5 * self.scale * float(np.dot(d, d))

    def gradient(self, t: int, x) -> np.ndarray:
        return self.scale * (x - self.targets[t - 1])

    def values(self, X) -> np.ndarray:
        """f_t at row t-1 of X, shape (..., T, n); leading axes broadcast."""
        d = X - self.targets
        return 0.5 * self.scale * np.einsum("...j,...j->...", d, d)


class Linear:
    """f_t(x) = <grads[t-1], x>; the gradient is the constant row grads[t-1]."""

    def __init__(self, grads):
        self.grads = _frozen(grads)

    def __len__(self) -> int:
        return self.grads.shape[0]

    def __getitem__(self, i: int) -> "Linear":
        return Linear(self.grads[[i]])

    def value(self, t: int, x) -> float:
        return float(np.dot(self.grads[t - 1], x))

    def gradient(self, t: int, x) -> np.ndarray:
        return self.grads[t - 1]

    def values(self, X) -> np.ndarray:
        """f_t at row t-1 of X, shape (..., T, n); leading axes broadcast."""
        return np.einsum("...j,...j->...", X, self.grads)


def quadratic_drift_scale(bound: float, box: Box, max_target_norm: float) -> float:
    """Curvature for tracking losses that keeps gradients below ``bound``.

    With scale = bound / (2*h*sqrt(n) + max_t ||target_t||), the gradient
    norm sup over the box is at most bound for every target in the sweep,
    with no runtime clipping.
    """
    denom = 2.0 * box.half_width * math.sqrt(box.dim) + max_target_norm
    return bound / denom
