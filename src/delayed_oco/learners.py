"""Online learners for delayed gradient feedback.

All learners share one protocol so the harness can drive them identically:

    play(t)                    -> decision vector for round t (never mutates
                                  math state)
    ingest(t, stamps, grads)   -> consume the gradients delivered at the end of
                                  round t: ``grads[i]`` was queried at round
                                  ``stamps[i]``, and ``stamps`` is ascending

Four algorithms are provided:

* ``DelayedOGD``             - one projected step per delivered gradient, in
  ascending timestamp order; under unit delays this is textbook projected
  online gradient descent.  Given an (N, 1) column of rates it runs N
  iterates in lockstep on the same gradients.
* ``MildOGD``                - one such N-rate DelayedOGD pool with
  geometrically spaced learning rates, combined by a delay-aware Hedge over
  linearized surrogate losses. The pool reuses the meta decision's gradient,
  so the whole ensemble costs exactly one gradient query per round.
* ``DogdDoublingTrick`` / ``MildOgdDoublingTrick`` - restart-based variants
  that track the backlog statistic online instead of needing the backlog sum
  in advance.  Epoch v runs a fresh ``DelayedOGD`` / ``MildOGD`` tuned by the
  fixed-horizon formulas with the budget 2^v in place of the backlog sum.
  ``MildOgdDoublingTrick`` still reads the horizon T: it sizes the expert
  grid, N = ceil(log2(T+1)/2) + 1 rates (``expert_count``).

Rate helpers (``corollary_lr``, ``mild_lr_grid``, ``hedge_alpha``,
``init_weights``) compute the formula-derived parameters each algorithm's
guarantee asks for; the learners refuse rates that are not positive and finite.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from .geometry import Box


class DelayedOGD:
    """Delayed projected gradient descent.

    Keeps a single iterate y and performs one projected step per delivered
    gradient, traversing each round's arrivals in ascending timestamp order
    (the ascending order is load-bearing: it is what makes the consumption
    order equal the query order whenever delays preserve arrival order).
    ``c_log[i]`` is the timestamp of the (i+1)-th consumed gradient.

    ``eta`` is a positive finite scalar or an (N, 1) column of such rates.
    With a column, y is an (N, n) stack whose row i steps at rate ``eta[i]``
    on the same gradients, and each step projects the whole stack at once.

    A step projects by a bare clamp, without ``Box.project``'s checks: the
    rates are checked here, and ``simulate`` checks once per run that every
    gradient it handed out was finite.  A finite step that overflows to
    +-inf clamps to the face it points at, which is its exact projection.
    """

    def __init__(self, box: Box, eta):
        rates = np.asarray(eta, dtype=np.float64)
        if rates.ndim != 0 and (rates.ndim != 2 or rates.shape[1] != 1 or rates.size < 1):
            raise ValueError("learning rate must be a scalar or an (N, 1) column")
        if not np.all(np.isfinite(rates) & (rates > 0)):
            raise ValueError("learning rate must be positive and finite")
        self.box = box
        if rates.ndim == 0:
            self.eta = float(eta)
            self.y = box.origin()
        else:
            self.eta = rates
            self.y = np.zeros((rates.shape[0], box.dim))
        self.c_log: list[int] = []

    def play(self, t: int) -> np.ndarray:
        return self.y.copy()

    def ingest(self, t: int, stamps: list[int], grads: np.ndarray) -> None:
        if len(stamps) != len(grads):
            raise ValueError("one gradient per timestamp is required")
        if len(stamps) > 1 and any(a >= b for a, b in zip(stamps, stamps[1:])):
            raise ValueError("feedback must be sorted ascending by timestamp")
        h = self.box.half_width
        for g in grads:
            self.y = (self.y - self.eta * g).clip(-h, h)
        self.c_log.extend(stamps)


# ---------------------------------------------------------------------------
# Formula-derived parameters.
# ---------------------------------------------------------------------------

def corollary_lr(D: float, G: float, sum_m: float) -> float:
    """eta = D / (G * sqrt(sum_m)), the rate whose regret is (2D+P)G*sqrt(S)+C."""
    if min(D, G, sum_m) <= 0:
        raise ValueError("D, G and sum_m must be positive")
    return D / (G * math.sqrt(sum_m))


def expert_count(T: int) -> int:
    """N = ceil(log2(T+1)/2) + 1 expert rates cover every path length in [0, TD]."""
    return math.ceil(0.5 * math.log2(T + 1)) + 1


def mild_lr_grid(D: float, G: float, beta: float, T: int) -> np.ndarray:
    """Ascending expert rates eta_i = 2^(i-1) * D / (G*sqrt(beta)), i = 1..N."""
    if min(D, G, beta) <= 0 or T < 1:
        raise ValueError("D, G, beta must be positive and T >= 1")
    base = D / (G * math.sqrt(beta))
    return base * np.exp2(np.arange(expert_count(T)))


def hedge_alpha(D: float, G: float, beta: float) -> float:
    """Weight-update temperature alpha = 1 / (G * D * sqrt(beta))."""
    if min(D, G, beta) <= 0:
        raise ValueError("D, G and beta must be positive")
    return 1.0 / (G * D * math.sqrt(beta))


def init_weights(N: int) -> np.ndarray:
    """Prior weights w_i = (N+1) / (i*(i+1)*N) over rates sorted ascending.

    The sum telescopes to exactly 1; smaller rates get larger prior mass.
    """
    if N < 1:
        raise ValueError("need at least one expert")
    i = np.arange(1, N + 1, dtype=np.float64)
    return (N + 1) / (i * (i + 1) * N)


# ---------------------------------------------------------------------------
# Expert aggregation.
# ---------------------------------------------------------------------------

def delayed_hedge_update(log_weights: np.ndarray, alpha: float,
                         arrived_loss_sums: np.ndarray) -> np.ndarray:
    """Exponential-weights update on whatever expert losses arrived this round.

    Works in log space (subtract the max before normalizing) because the
    ratio form overflows once alpha * cumulative-loss grows large; the
    mathematics is identical.  An all-zero arrival leaves weights unchanged.
    """
    lw = log_weights - alpha * np.asarray(arrived_loss_sums, dtype=np.float64)
    lw -= lw.max()
    return lw - math.log(np.exp(lw).sum())


class MildOGD:
    """Delay-aware Hedge over a pool of delayed descents on surrogate losses.

    Round protocol (order matters):
      1. read the pool's expert decisions x_t^eta and play the weighted mix x_t;
      2. the harness queries the real gradient at x_t and schedules it;
      3. on arrival of timestamp k, reweight experts by their surrogate loss
         <g_k, x_k^eta - x_k> and step the whole pool on the same gradient,
         each expert like plain DelayedOGD at its own rate.

    The pool is one ``DelayedOGD`` over an (N, n) iterate, so experts never
    query gradients of their own: one query per round serves the meta
    decision and the whole pool.

    The state (``pool.y`` and ``weights``) changes only when feedback
    arrives, and every change rebinds the arrays instead of writing into
    them, so ``play`` mixes again only when either is a new object.  Each
    distinct mix is kept once, as the meta decision x and the spreads
    xs - x; a round points to the spreads it played until its feedback
    arrives, so memory is bounded by the maximum backlog.
    """

    def __init__(self, box: Box, expert_rates, alpha: float):
        rates = np.sort(np.asarray(expert_rates, dtype=np.float64))
        if not (math.isfinite(alpha) and alpha > 0):
            raise ValueError("alpha must be positive and finite")
        self.box = box
        self.alpha = alpha
        self.expert_rates = rates
        self.pool = DelayedOGD(box, rates[:, None])  # which checks the rates
        self.log_w = np.log(init_weights(rates.size))
        # the last mix: the pool.y and weights it read (held, so `is` stays
        # sound), the meta decision x and the expert spreads xs - x
        self._mix = (None, None, None, None)
        self._spreads: dict[int, np.ndarray] = {}  # round -> the spreads it played

    @property
    def log_w(self) -> np.ndarray:
        return self._log_w

    @log_w.setter
    def log_w(self, value: np.ndarray) -> None:
        # weights follow every assignment, so one exp per update serves every
        # play and weight-sum read; the update keeps log_w normalized, and not
        # re-normalizing here makes the weight-sum invariant a real check of it
        self._log_w = value
        self.weights = np.exp(value)

    def play(self, t: int) -> np.ndarray:
        xs, w = self.pool.y, self.weights
        if self._mix[0] is not xs or self._mix[1] is not w:
            # clip guards the one-ulp rounding a float convex combination can incur
            h = self.box.half_width
            x = (w @ xs).clip(-h, h)
            self._mix = (xs, w, x, xs - x)
        self._spreads[t] = self._mix[3]
        return self._mix[2].copy()

    def ingest(self, t: int, stamps: list[int], grads: np.ndarray) -> None:
        if not stamps:
            return
        try:
            spreads = [self._spreads.pop(k) for k in stamps]
        except KeyError as exc:
            raise AssertionError(f"feedback for round {exc.args[0]} without a recorded play") \
                from None
        if len(spreads) == 1:
            loss_sums = spreads[0] @ grads[0]
        else:
            # a running sum in timestamp order gives the per-arrival float sums;
            # np.sum would add a single expert's column pairwise
            products = np.matmul(np.stack(spreads), grads[:, :, None])[:, :, 0]
            loss_sums = np.add.accumulate(products, axis=0)[-1]
        self.log_w = delayed_hedge_update(self.log_w, self.alpha, loss_sums)
        self.pool.ingest(t, stamps, grads)

    @property
    def c_log(self) -> list[int]:
        return self.pool.c_log


# ---------------------------------------------------------------------------
# Doubling-trick variants.
# ---------------------------------------------------------------------------

class EpochController:
    """Online tracker of the restart condition shared by the doubling variants.

    Maintains B = sum_{j=s_v..t} (j+1-s_v - A_j), where A_j counts epoch-local
    arrivals strictly before round j; the summand is the epoch-local backlog
    counter, so B estimates the quantity the fixed-horizon rates need.  At the
    start of round t, if B would exceed the current budget 2^v, round t opens
    epoch v+1 instead (strict inequality: B == 2^v continues the epoch).
    Everything is integer arithmetic, hence exact.
    """

    def __init__(self):
        self.v = 1
        self.epoch_start = 1
        self.epoch_starts = [1]
        self._B = 0
        self._arrived = 0
        self._last_round = 0

    def begin_round(self, t: int) -> bool:
        """Advance to round t; True iff a new epoch starts at t."""
        if t != self._last_round + 1:
            raise ValueError("rounds must be visited consecutively, once each")
        self._last_round = t
        self._B += (t + 1 - self.epoch_start) - self._arrived
        if self._B > 2 ** self.v:
            self.v += 1
            self.epoch_start = t
            self.epoch_starts.append(t)
            self._arrived = 0
            self._B = 1
            return True
        return False

    def note_arrivals(self, count: int) -> None:
        """Record epoch-local arrivals delivered at the end of the current round."""
        self._arrived += count


class _RestartingLearner:
    """Epoch bookkeeping + stale-feedback dropping; epoch v runs a fresh ``make(2^v)``,
    where ``make(beta)`` builds the learner tuned for the backlog sum beta."""

    def __init__(self, make):
        self.make = make
        self.ctrl = EpochController()
        self.dropped = 0
        self.inner = make(2 ** self.ctrl.v)

    def play(self, t: int) -> np.ndarray:
        if self.ctrl.begin_round(t):
            self.inner = self.make(2 ** self.ctrl.v)
        return self.inner.play(t)

    def ingest(self, t: int, stamps: list[int], grads: np.ndarray) -> None:
        # stamps ascend, so the stale ones (queried before the epoch) are a prefix
        stale = bisect_left(stamps, self.ctrl.epoch_start)
        self.dropped += stale
        self.ctrl.note_arrivals(len(stamps) - stale)
        if stale < len(stamps):
            self.inner.ingest(t, stamps[stale:], grads[stale:])

    @property
    def epoch_starts(self) -> list[int]:
        return list(self.ctrl.epoch_starts)


class DogdDoublingTrick(_RestartingLearner):
    """DelayedOGD with restarts: epoch v runs a fresh instance at corollary_lr(D, G, 2^v).

    Gradients queried before the current epoch are discarded on arrival
    (counted in ``dropped``), so each instance sees exactly the feedback the
    epoch-local backlog statistic accounts for.
    """

    def __init__(self, box: Box, D: float, G: float):
        super().__init__(lambda beta: DelayedOGD(box, corollary_lr(D, G, beta)))


class MildOgdDoublingTrick(_RestartingLearner):
    """Restarting expert pool: one controller drives meta and experts.

    On each restart the pool is rebuilt from scratch: prior weights are
    reinitialized, expert iterates return to the origin, and the epoch
    estimate 2^v replaces the backlog sum inside both the expert rates and
    the Hedge temperature.  Using a single shared controller (instead of one
    copy per algorithm) triggers on identical conditions and makes drift
    between meta and experts impossible.
    """

    def __init__(self, box: Box, D: float, G: float, T: int):
        super().__init__(lambda beta: MildOGD(box, mild_lr_grid(D, G, beta, T),
                                              hedge_alpha(D, G, beta)))

    @property
    def weights(self) -> np.ndarray:
        return self.inner.weights
