"""Regret computation, worst-case bound evaluators, and run traces.

The bound evaluators are pure scalar functions (they never look at traces) so
they can be unit-tested against hand calculations and reused by the CLI's
verification path.  All constants are kept exactly as the guarantees state
them - no tightening - so "measured <= bound" checks are faithful.

Throughout, the reorder penalty

    C = 0                      if arrivals stay in order,
    C = G * sqrt(2*d*T*D*P)    otherwise,

caps the joint effect of delays and moving comparators; the measured joint
effect sum_t ||u_t - u_{c_t}|| can be far smaller, so both are reported.

Regrets sum the losses a trace recorded as played (``RunTrace.loss_values``)
and score the comparators with one batched ``values`` call of the loss
family (``QuadraticTracking`` or ``Linear``); the hindsight optimum has a
closed form per family, and a dense grid (``grid_minimum``, n <= 2) is the
reference that the closed forms are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .delay import DelaySchedule
from .environments import comparator_block_length
from .geometry import Box
from .losses import Linear, QuadraticTracking

# grid search: mesh points x rounds evaluated per batched call (bounds memory)
_GRID_BATCH = 1 << 20
_GRID_RESOLUTION = 1e-3  # spacing of the reference grid's mesh along each axis


@dataclass
class RunTrace:
    """Per-round record of one learner run plus the schedule it ran on.

    ``decisions`` has exactly T rows; the arrivals and the backlog m_t of
    each round are the schedule's (its arrival plan ``stamps``, ``rounds``
    and ``offsets``, and ``schedule.backlog()``).  ``epoch_starts`` is a
    restarting learner's, and None for any other; ``dropped`` counts the stale
    stamps cut from a restarting learner's plan.  ``weights`` is a weighted
    learner's (T, N) history, the weights after each round.  ``simulate``
    over R runs in lockstep returns one trace with a run axis: decisions
    (T, R, n), weights (T, R, N), loss values (T, R), a list of R schedules
    and a list per run of the other fields; ``runs()`` splits it.
    """

    decisions: np.ndarray
    loss_values: np.ndarray
    schedule: DelaySchedule | list
    dropped: int | list = 0
    epoch_starts: tuple | list | None = None
    weights: np.ndarray | None = None

    @property
    def c_log(self) -> tuple | None:
        """A one-run trace's consumption order, flush window included: the plan's delivery
        order ``schedule.stamps``, which is the order ``simulate`` hands timestamps to
        ``ingest``.  None for a restarting learner, whose plan loses its stale stamps, so what
        it consumes never covers all T timestamps.  A lockstep trace's ``runs()`` have theirs."""
        return None if self.epoch_starts is not None else tuple(self.schedule.stamps.tolist())

    @property
    def weight_sums(self) -> np.ndarray | None:
        """The weight history summed over N, (T,) or (T, R); None without weights."""
        return None if self.weights is None else self.weights.sum(axis=-1)

    def runs(self) -> list["RunTrace"]:
        """Each run's own trace (views into this one), bitwise what it would record alone."""
        if isinstance(self.schedule, DelaySchedule):
            return [self]
        starts, weights = self.epoch_starts, self.weights
        return [RunTrace(self.decisions[:, r], self.loss_values[:, r], schedule, self.dropped[r],
                         None if starts is None else starts[r],
                         None if weights is None else weights[:, r])
                for r, schedule in enumerate(self.schedule)]


def dynamic_regret(trace: RunTrace, losses: QuadraticTracking | Linear, comparators) -> float:
    """sum_t f_t(x_t) - sum_t f_t(u_t) for any comparators; the played side is the
    trace's recorded ``loss_values``, so ``trace`` must be a run on these ``losses``."""
    us = np.asarray(comparators, dtype=np.float64)
    if not (len(losses) == len(trace.loss_values) == us.shape[0]):
        raise ValueError("losses, trace and comparators must share one horizon")
    return float(trace.loss_values.sum() - losses.values(us).sum())


def minimize_total_loss(losses: QuadraticTracking | Linear, box: Box) -> tuple[np.ndarray, float]:
    """Hindsight optimum of sum_t f_t over the box, by its closed form: (minimizer, value).

    A ``Linear`` sum is minimized at the vertex x_i = -h*sign(sum_t g_{t,i});
    a ``QuadraticTracking`` sum at the clamped mean of the targets
    (coordinate-separable).  ``grid_minimum`` is the reference they are checked against.
    """
    if isinstance(losses, Linear):
        g = losses.grads.sum(axis=0)
        h = box.half_width
        return np.where(g > 0, -h, h), -h * float(np.abs(g).sum())
    x = box.project(losses.targets.mean(axis=0))
    return x, float(losses.values(np.broadcast_to(x, losses.targets.shape)).sum())


def grid_minimum(losses: QuadraticTracking | Linear, box: Box) -> tuple[np.ndarray, float]:
    """The least sum_t f_t on a mesh of spacing 1e-3 over the box (n <= 2 only):
    (mesh point, value), the reference for ``minimize_total_loss``'s closed forms."""
    if box.dim > 2:
        raise ValueError("the grid search supports n <= 2 only")
    axes = [np.linspace(-box.half_width, box.half_width,
                        max(2, int(round(2 * box.half_width / _GRID_RESOLUTION)) + 1))
            for _ in range(box.dim)]
    mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    step = max(1, _GRID_BATCH // len(losses))
    totals = np.concatenate([losses.values(mesh[i:i + step, None, :]).sum(axis=1)
                             for i in range(0, mesh.shape[0], step)])
    best = int(np.argmin(totals))
    return mesh[best], float(totals[best])


def static_regret(trace: RunTrace, least: float) -> float:
    """sum_t f_t(x_t) - min_{x in K} sum_t f_t(x), the played side read from the
    trace's ``loss_values``; ``least`` is the minimum, the value
    ``minimize_total_loss(losses, box)`` gives for the losses ``trace`` ran on."""
    return float(trace.loss_values.sum() - least)


def joint_effect(c_log, comparators) -> float:
    """sum_t ||u_t - u_{c_t}||_2 over (T, n) comparators, the delay/comparator interaction term.

    Requires a complete consumption log, a permutation of 1..T, as the arrival
    plan's ``schedule.stamps`` (a non-restarting learner's ``RunTrace.c_log``) is.
    """
    us = np.asarray(comparators, dtype=np.float64)
    c = None if c_log is None else np.asarray(c_log, dtype=np.int64)
    if c is None or not np.array_equal(np.sort(c), np.arange(1, us.shape[0] + 1)):
        raise ValueError("consumption log is not a permutation of 1..T "
                         "(was the flush window run?)")
    return float(np.linalg.norm(us - us[c - 1], axis=1).sum())


# ---------------------------------------------------------------------------
# Worst-case bound evaluators.
# ---------------------------------------------------------------------------

def reorder_penalty(D: float, G: float, d: int, T: int, P_T: float,
                    in_order: bool) -> float:
    """C = 0 when arrivals stay in order, else G*sqrt(2*d*T*D*P_T)."""
    if in_order:
        return 0.0
    return G * math.sqrt(2.0 * d * T * D * P_T)


def bound_thm1(D: float, G: float, eta: float, sum_m: float, P_T: float,
               joint: float) -> float:
    """(D^2 + D*P_T)/eta + eta*G^2*sum_m + G*joint, any fixed learning rate."""
    if min(D, G, eta, sum_m) <= 0:
        raise ValueError("D, G, eta, sum_m must be positive")
    return (D * D + D * P_T) / eta + eta * G * G * sum_m + G * joint


def bound_cor1(D: float, G: float, S: float, P_T: float, in_order: bool,
               d: int, T: int) -> float:
    """(2D + P_T)*G*sqrt(S) + C for the backlog-tuned single learner."""
    return (2.0 * D + P_T) * G * math.sqrt(S) + reorder_penalty(D, G, d, T, P_T, in_order)


def bound_thm2(D: float, G: float, S: float, P_T: float, in_order: bool,
               d: int, T: int) -> float:
    """(3*sqrt(D(D+P_T)) + D)*G*sqrt(S) + C + 2GD*sqrt(S)*ln(k+1),
    k = floor(log2 sqrt((P_T+D)/D)) + 1, for the tuned expert pool."""
    k = math.floor(math.log2(math.sqrt((P_T + D) / D))) + 1
    return ((3.0 * math.sqrt(D * (D + P_T)) + D) * G * math.sqrt(S)
            + reorder_penalty(D, G, d, T, P_T, in_order)
            + 2.0 * G * D * math.sqrt(S) * math.log(k + 1))


def bound_thm4(D: float, G: float, S: float, P_T: float, in_order: bool,
               d: int, T: int) -> float:
    """G*(2D + P_T)*sqrt(2S)/(sqrt(2)-1) + C for the restarting single learner."""
    return (G * (2.0 * D + P_T) * math.sqrt(2.0 * S) / (math.sqrt(2.0) - 1.0)
            + reorder_penalty(D, G, d, T, P_T, in_order))


def bound_thm5(D: float, G: float, S: float, P_T: float, in_order: bool,
               d: int, T: int) -> float:
    """Restarting expert pool:
    ((2*ln(floor(log2 sqrt((D+P_T)/D)) + 2) + 1)*GD + 3G*sqrt(D^2+D*P_T))
    * sqrt(2S)/(sqrt(2)-1) + C."""
    k_floor = math.floor(math.log2(math.sqrt((D + P_T) / D)))
    lead = (2.0 * math.log(k_floor + 2) + 1.0) * G * D \
        + 3.0 * G * math.sqrt(D * D + D * P_T)
    return lead * math.sqrt(2.0 * S) / (math.sqrt(2.0) - 1.0) \
        + reorder_penalty(D, G, d, T, P_T, in_order)


def bound_lower(T: int, d: int, D: float, G: float, P: float) -> float:
    """Dynamic-regret lower bound over path budgets P in [0, T*D].

    With L = ceil(T*D/max(P, D)): D*G*T/(2*sqrt(2)) when d > L (the trivial
    regime), else G*sqrt(d*D*max(P, D)*T)/(4*sqrt(2))."""
    if not 0 <= P <= T * D:
        raise ValueError("path budget must lie in [0, T*D]")
    L = comparator_block_length(T, D, P)
    if d > L:
        return D * G * T / (2.0 * math.sqrt(2.0))
    return G * math.sqrt(d * D * max(P, D) * T) / (4.0 * math.sqrt(2.0))


def bound_lemma3(T: int, d: int, D: float, G: float) -> float:
    """Static-regret lower bound D*G*T / (2*sqrt(2*ceil(T/d))) that the
    block-delay adversarial instance realizes in expectation."""
    return D * G * T / (2.0 * math.sqrt(2.0 * math.ceil(T / d)))
