"""Comparator sequences, synthetic drift environments, and adversarial instances.

Comparator sequences are first-class inputs to regret evaluation rather than
something inferred from the losses: dynamic regret is defined against any
feasible sequence, and one trace can be scored against several of them.

Every environment builds one loss family (``QuadraticTracking`` or
``Linear``) over all T rounds with array operations; only the random walk
of the drift targets is stepped round by round.

The adversarial instance couples block-end delays with random-sign linear
losses over a cube.  Within a block every round shares one loss
h_z(x) = (G/sqrt(n)) * <w_z, x> whose signs w_z are drawn Rademacher, and all
of the block's gradients arrive only at the block's last round, so no decision
inside block z can depend on w_z.  The best fixed decision in hindsight has
the closed form  x*_i = -h * sign(sum_z w_{z,i} * |T_z|)  with total loss
-h*(G/sqrt(n)) * sum_i |sum_z w_{z,i} * |T_z||  (a linear objective is
minimized at a vertex of the cube).  Its losses are the ``Linear`` family
with rows (G/sqrt(n)) * w_z, so every gradient has norm exactly G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .delay import DelaySchedule, block_schedule
from .geometry import Box, as_decision
from .losses import Linear, QuadraticTracking, quadratic_drift_scale


def path_length(points) -> float:
    """Total movement sum_t ||u_t - u_{t-1}||_2 of a comparator sequence."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] == 0:
        raise ValueError("comparator sequence must be nonempty")
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


def make_piecewise_comparators(box: Box, T: int, block_len: int, anchors) -> np.ndarray:
    """Sequence constant on each length-``block_len`` block, one anchor per block."""
    blocks = block_bounds(T, block_len)
    anchors = [as_decision(a, box.dim) for a in anchors]
    if len(anchors) != len(blocks):
        raise ValueError(f"need {len(blocks)} anchors, got {len(anchors)}")
    out = np.empty((T, box.dim))
    for (start, end), a in zip(blocks, anchors):
        if not box.contains(a):
            raise ValueError("anchor outside the feasible set")
        out[start - 1:end] = a
    return out


def make_path_budget_comparators(box: Box, T: int, P: float, seed: int) -> np.ndarray:
    """Random piecewise-constant comparators with path length <= P."""
    rng = np.random.default_rng(seed)
    L = comparator_block_length(T, box.diameter, P)
    n_blocks = len(block_bounds(T, L))
    anchors = [box.random_point(rng) for _ in range(n_blocks)]
    return make_piecewise_comparators(box, T, L, anchors)


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
    if step < 0:
        raise ValueError("step must be nonnegative")
    if loss_kind not in ("quadratic", "linear"):
        raise ValueError(f"unknown drift loss kind: {loss_kind!r}")
    rng = np.random.default_rng(seed)
    targets = np.empty((T, box.dim))
    theta = box.origin()
    for t in range(T):
        targets[t] = theta
        move = rng.uniform(-1.0, 1.0, size=box.dim)
        norm = np.linalg.norm(move)
        if norm > 0:
            move *= step / norm
        theta = box.project(theta + move)

    if loss_kind == "quadratic":
        scale = quadratic_drift_scale(grad_bound, box,
                                      float(np.linalg.norm(targets, axis=1).max()))
        return QuadraticTracking(targets, scale), targets
    # one norm per row: a batched row reduction would round some rows differently
    norms = np.array([np.linalg.norm(row) for row in targets])
    away = norms > 1e-12
    grads = np.zeros((T, box.dim))
    grads[away] = (-grad_bound / norms[away])[:, None] * targets[away]
    return Linear(grads), targets


@dataclass(frozen=True)
class LowerBoundInstance:
    """Adversarial block-delay instance over the cube [-D/(2 sqrt n), ...]^n.

    ``signs[z-1]`` is the Rademacher vector of block z; block z covers rounds
    {(z-1)d+1, ..., min(zd, T)} and all its gradients arrive at the block's
    last round.
    """

    T: int
    d: int
    D: float
    G: float
    n: int
    seed: int
    signs: np.ndarray  # (Z, n), entries +-1

    def __post_init__(self):
        if min(self.T, self.d, self.n) < 1 or min(self.D, self.G) <= 0:
            raise ValueError("T, d, n must be >= 1 and D, G positive")
        Z = math.ceil(self.T / self.d)
        s = np.asarray(self.signs, dtype=np.float64)
        if s.shape != (Z, self.n) or not np.all(np.abs(s) == 1.0):
            raise ValueError(f"signs must be a ({Z}, {self.n}) +-1 matrix")
        object.__setattr__(self, "signs", s)

    @property
    def num_blocks(self) -> int:
        return math.ceil(self.T / self.d)

    @property
    def box(self) -> Box:
        return Box.from_diameter(self.n, self.D)

    @property
    def blocks(self) -> list[tuple[int, int]]:
        return block_bounds(self.T, self.d)

    @property
    def block_sizes(self) -> np.ndarray:
        return np.array([end - start + 1 for start, end in self.blocks])

    @property
    def schedule(self) -> DelaySchedule:
        return block_schedule(self.T, self.d)

    def losses(self) -> Linear:
        """f_t(x) = (G/sqrt(n)) * <w_z, x> for the block z that contains round t."""
        block = np.arange(self.T) // self.d
        return Linear((self.G / math.sqrt(self.n)) * self.signs[block])

    def to_dict(self) -> dict:
        return {"T": self.T, "d": self.d, "D": self.D, "G": self.G, "n": self.n,
                "seed": self.seed, "signs": self.signs.astype(int).tolist(),
                "delays": self.schedule.to_list()}

    @classmethod
    def from_dict(cls, data: dict) -> "LowerBoundInstance":
        return cls(T=data["T"], d=data["d"], D=data["D"], G=data["G"],
                   n=data["n"], seed=data["seed"],
                   signs=np.asarray(data["signs"], dtype=np.float64))


def make_lowerbound_instance(T: int, d: int, D: float, G: float, n: int,
                             seed: int) -> LowerBoundInstance:
    """Draw the per-block sign vectors and assemble the instance.

    Signs come from one bulk draw of a counter-based bit generator keyed on
    the seed, laid out as a (blocks, coordinates) matrix, so the instance is
    reproducible regardless of any later iteration order.
    """
    Z = math.ceil(T / d)
    rng = np.random.default_rng(np.random.Philox(key=seed))
    signs = 2.0 * rng.integers(0, 2, size=(Z, n)) - 1.0
    return LowerBoundInstance(T=T, d=d, D=D, G=G, n=n, seed=seed, signs=signs)


def best_fixed_decision(inst: LowerBoundInstance) -> tuple[np.ndarray, float]:
    """Minimizer of the instance's total loss over the cube, with its value.

    The total is linear with coordinate weights (G/sqrt(n)) * sum_z w_{z,i}|T_z|,
    so the optimum sits at a vertex: x*_i = -h * sign(weight_i), ties broken
    toward +h (any vertex on a tie face is optimal).
    """
    h = inst.box.half_width
    weighted = inst.block_sizes @ inst.signs  # (n,) = sum_z |T_z| * w_z
    x = np.where(weighted > 0, -h, h)
    total = -(h * inst.G / math.sqrt(inst.n)) * float(np.abs(weighted).sum())
    return x, total
