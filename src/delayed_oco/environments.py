"""Comparator sequences, synthetic drift environments, and adversarial instances.

Comparator sequences are first-class inputs to regret evaluation rather than
something inferred from the losses: dynamic regret is defined against any
feasible sequence, and one trace can be scored against several of them.

Every environment builds one loss family (``QuadraticTracking`` or
``Linear``) over all T rounds with array operations; the drift targets'
random walk is summed in clamp-free spans, on moves scaled in one batch.

The adversarial instance couples block-end delays with random-sign linear
losses over a cube.  Within a block every round shares one loss
h_z(x) = (G/sqrt(n)) * <w_z, x> whose signs w_z are drawn Rademacher, and all
of the block's gradients arrive only at the block's last round, so no decision
inside block z can depend on w_z.  Its losses are the ``Linear`` family
with rows (G/sqrt(n)) * w_z, so every gradient has norm exactly G, and the
best fixed decision in hindsight is the one every ``Linear`` sum has, in
``metrics.minimize_total_loss``: the cube vertex x*_i = -h * sign(sum_t g_{t,i}).
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Box, clamped_walk
from .losses import Linear, QuadraticTracking, quadratic_drift_scale


def row_norms(M: np.ndarray) -> np.ndarray:
    """Row norms of a (..., n) array, bitwise the per-row ``sqrt(row.dot(row))``
    (``einsum`` or ``sum`` would round some rows differently)."""
    return np.sqrt(np.matmul(M[..., None, :], M[..., :, None])[..., 0, 0])


def path_length(points) -> float:
    """Total movement sum_t ||u_t - u_{t-1}||_2 of a (T, n) comparator sequence."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("comparators must be a nonempty (T, n) array")
    return float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())


def block_bounds(T: int, L: int) -> list[tuple[int, int]]:
    """Blocks {(z-1)L+1, ..., min(zL, T)} as inclusive 1-indexed (start, end)."""
    if L < 1:
        raise ValueError("block length must be >= 1")
    return [(s, min(s + L - 1, T)) for s in range(1, T + 1, L)]


def comparator_block_length(T: int, D: float, P: float) -> int:
    """L = ceil(T*D / max(P, D)); piecewise-constant comparators on blocks of
    this length have path length at most P."""
    return math.ceil(T * D / max(P, D))


def make_path_budget_comparators(box: Box, T: int, P: float, seed: int) -> np.ndarray:
    """Random piecewise-constant comparators with path length <= P: one uniform
    point of the box per block of ``comparator_block_length`` rounds."""
    L, h = comparator_block_length(T, box.diameter, P), box.half_width
    anchors = np.random.default_rng(seed).uniform(-h, h, (-(-T // L), box.dim))
    return np.repeat(anchors, L, axis=0)[:T]


def make_drift_environment(box: Box, T: int, step: float, loss_kind: str, seed: int,
                           grad_bound: float) -> tuple[QuadraticTracking | Linear, np.ndarray]:
    """Non-stationary testbed: losses track a projected random walk.

    The target theta_t moves by at most ``step`` per round (projection is
    1-Lipschitz, so clamping cannot enlarge a move), and the comparator
    sequence is the target path itself, giving path length <= (T-1)*step.
    Returns the loss family and the (T, n) targets.

    loss_kind "quadratic": f_t(x) = (s/2)*||x - theta_t||^2 with s chosen so
    gradients stay below ``grad_bound`` over the box with no clipping.
    loss_kind "linear":    f_t(x) = -grad_bound * <theta_t/||theta_t||, x>,
    i.e. a unit gradient of norm ``grad_bound`` pulling toward the target side
    (the zero gradient while theta_t sits at the origin).
    """
    return _drift_environments(box, T, step, loss_kind, [seed], grad_bound)[0]


def _drift_environments(box: Box, T: int, step: float, loss_kind: str, seeds: list[int],
                        grad_bound: float) -> list[tuple[QuadraticTracking | Linear, np.ndarray]]:
    """``make_drift_environment`` at each of ``seeds``, the walks stepping together;
    each (family, targets) is bitwise what its seed gives alone.

    The walks are one ``geometry.clamped_walk`` over the (R, n) stack of targets, which
    sums them in clamp-free spans, bitwise the round-by-round walk.
    """
    if not (math.isfinite(step) and step >= 0):
        raise ValueError("step must be a finite number >= 0")
    if loss_kind not in ("quadratic", "linear"):
        raise ValueError(f"unknown drift loss kind: {loss_kind!r}")
    # one draw for all rounds gives the same stream as one draw per round
    draws = [np.random.default_rng(s).uniform(-1.0, 1.0, size=(T, box.dim)) for s in seeds]
    moves = draws[0][:, None] if len(draws) == 1 else np.stack(draws, axis=1)
    norms = row_norms(moves)
    away = norms > 0
    np.multiply(moves, (step / np.where(away, norms, 1.0))[..., None], out=moves,
                where=away[..., None])
    walks = np.zeros((T, len(seeds), box.dim))  # row t-1 is theta_t
    # theta + move is theta - (-move) bitwise, the clamped walk's step
    with np.errstate(over="ignore", invalid="ignore"):  # a row that overflows leaves the box
        clamped_walk(walks[0], np.negative(moves[:T - 1], out=moves[:T - 1]), box.lo, box.hi,
                     walks)

    built = []
    for targets in (np.ascontiguousarray(walks[:, r]) for r in range(len(seeds))):
        if loss_kind == "quadratic":
            scale = quadratic_drift_scale(grad_bound, box,
                                          float(np.linalg.norm(targets, axis=1).max()))
            built.append((QuadraticTracking(targets, scale), targets))
            continue
        norms = row_norms(targets)
        away = norms > 1e-12
        grads = np.zeros((T, box.dim))
        grads[away] = (-grad_bound / norms[away])[:, None] * targets[away]
        built.append((Linear(grads), targets))
    return built


def make_lowerbound_instance(T: int, d: int, D: float, G: float, n: int,
                             seed: int) -> tuple[np.ndarray, Linear]:
    """The adversarial instance's sign matrix and losses: ``(signs, Linear)``.

    ``signs[z-1]`` is the Rademacher vector of block z, the z-th entry of
    ``block_bounds(T, d)``, and every round of block z has the loss
    (G/sqrt(n)) * <signs[z-1], x>.  Signs come from one bulk draw of a
    counter-based bit generator keyed on the seed, laid out as a (blocks,
    coordinates) matrix, so the instance is reproducible regardless of any
    later iteration order.  The delays are ``block_schedule(T, d)`` and the
    feasible set is ``Box.from_diameter(n, D)``.
    """
    if min(T, d, n) < 1 or min(D, G) <= 0:
        raise ValueError("T, d, n must be >= 1 and D, G positive")
    rng = np.random.default_rng(np.random.Philox(key=seed))
    signs = 2.0 * rng.integers(0, 2, size=(math.ceil(T / d), n)) - 1.0
    return signs, Linear((G / math.sqrt(n)) * signs[np.arange(T) // d])
