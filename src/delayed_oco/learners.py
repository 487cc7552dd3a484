"""Online learners for delayed gradient feedback.

All learners share one protocol so the harness can drive them identically:

    play(t, stop=None)         -> the one decision for rounds t..stop (t alone
                                  if stop is None), none of which receives
                                  feedback before stop's end; it never
                                  mutates math state
    ingest(t, stamps, grads)   -> consume the gradients delivered at the end of
                                  round t: ``grads[i]`` was queried at round
                                  ``stamps[i]``, and ``stamps`` is ascending

``simulate`` plays each stretch of rounds without feedback with one
``play(t, stop)``.  A restarting learner also takes ``follow(schedule)``, the
run's arrival plan, before round 1: it returns the restart rounds, each of
which opens a stretch.  Its restart at round t reads only feedback delivered
before t (``epoch_starts``), so it is one an online learner could take.  Like
every learner it consumes every stamp it is handed: ``simulate`` cuts the stale
ones, queried before the epoch they arrive in, from its plan (``kept_stamps``).

On linear losses, whose gradients do not depend on the decisions, ``simulate``
drives a ``DelayedOGD``, or a restarting learner over one, through
``walk(plans, grads, decisions)`` instead: it takes each row's whole arrival plan
at once and writes every round's decision, one ``descend`` (a clamped walk with
its path) per row and epoch, bitwise ``play`` and ``ingest`` round by round and
leaving the state they would.

A learner keeps only the state its algorithm needs, no record of what it was
handed: the order it consumed timestamps in is the arrival plan's, which the
run's trace reports.  A learner whose parameters carry a leading run axis
runs R independent runs in lockstep: ``play`` returns an (R, n) stack, and
``ingest`` takes K rows of R timestamps with (K, R, n) gradients, column r
holding run r's arrivals in ascending order, padded below with timestamp 0
and a zero gradient (a zero step leaves an iterate in the box as it is).  One
run has no run axis.  A delivery of one row takes a direct path: the products
and clamps a burst would apply, without the burst's re-layout.

Four algorithms are provided, two families of a fixed-horizon and a restarting one:

* ``DelayedOGD``             - one projected step per delivered gradient, in
  ascending timestamp order; under unit delays this is textbook projected
  online gradient descent.  Rate columns (..., 1) step a stack of iterates:
  N experts on one gradient, R runs, or R runs of N experts.
* ``MildOGD``                - one such N-rate DelayedOGD pool with
  geometrically spaced learning rates, combined by a delay-aware Hedge over
  linearized surrogate losses, at one gradient query per round.
* ``DogdDoublingTrick`` / ``MildOgdDoublingTrick`` - restart-based variants
  that estimate the backlog sum by the epoch-local backlog statistic instead of
  needing it in advance: epoch v runs a fresh learner at the paper rates for the
  budget 2^v, and ``epoch_starts`` computes the epochs from the arrival plan;
  ``DogdDoublingTrick`` walks linear losses one epoch at a time.

``FAMILIES`` holds each family's learner, built from rates, and its paper rates
(by the rate helpers ``corollary_lr``, ``mild_lr_grid`` and ``hedge_alpha``, which
the learners refuse unless positive and finite); ``KINDS`` each configurable
learner's family, restarts, config fields and strict bound.  A fixed-horizon
learner is its doubling-trick variant with a first epoch that never ends, so
one lockstep batch steps the runs of a family and expert count.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .geometry import Box, clamp, clamped_walk


class DelayedOGD:
    """Delayed projected gradient descent.

    Keeps a single iterate y and performs one projected step per delivered
    gradient, in ascending timestamp order within each round's arrivals (the
    order is load-bearing: it makes the consumption order equal the query order
    whenever delays preserve arrival order), so the order it consumes timestamps
    in is the arrival plan's.

    ``eta`` is a positive finite scalar, held as a 0-d float64 (whose product
    skips a Python float's conversion, bitwise), or a (..., 1) column of such
    rates: y is then a (..., n) stack whose rows step at their own rates.  A
    column is kept spread to y's shape (a same-shape product is far cheaper
    than a broadcast one on tiny arrays).

    A step projects by a bare clamp, without ``Box.project``'s checks: the
    rates are checked here, and ``simulate`` checks once per run that every
    gradient it handed out was finite.  Each clamp is one ``geometry.clamp``
    call (NumPy's ``clip`` ufunc) against the box's 0-d bounds; a clamp selects
    a value, never rounds one, so it gives the same bits on every host.  A
    finite step that overflows to +-inf clamps to the face it points at, its
    exact projection.  A burst of K gradients is one product, whose gradient
    rows may lack y's leading axis (one gradient for N experts steps every
    row), and one ``geometry.clamped_walk``, bitwise the per-step loop: a
    coordinate that reached a face rests there while the steps push it further
    out, so an expert pool whose fast experts hit the faces early in a burst
    (block delays) takes one stretch.  A delivery of one row takes its one
    step directly, as the same product and the same clamp.
    """

    def __init__(self, box: Box, eta):
        rates = np.array(eta, dtype=np.float64)  # a copy: a 0-d rate is held as it is
        if rates.ndim == 1 or rates.ndim > 3 or rates.ndim and rates.shape[-1] != 1 \
                or rates.size < 1:
            raise ValueError("learning rate must be a scalar or a (..., 1) column")
        if not np.all(np.isfinite(rates) & (rates > 0)):
            raise ValueError("learning rate must be positive and finite")
        self.box = box
        self.y = np.zeros(rates.shape[:-1] + (box.dim,)) if rates.ndim else box.origin()
        self.eta = rates * np.ones_like(self.y) if rates.ndim else rates

    def play(self, t: int, stop: int | None = None) -> np.ndarray:
        return self.y.copy()

    def ingest(self, t: int, stamps, grads: np.ndarray) -> None:
        y, box = self.y, self.box
        if len(grads) == 1:  # the walk's one product and clamp, without the re-layout
            self.y = clamp(y - self.eta * grads[0], box.lo, box.hi)
            return
        self.y = clamped_walk(y, self.eta * (grads if grads.ndim > y.ndim else grads[:, None]),
                              box.lo, box.hi)

    def set_row(self, r: int, other: "DelayedOGD") -> None:
        """Run r becomes the one-run learner ``other``."""
        self.eta[r], self.y[r] = other.eta, other.y

    def walk(self, plans: list, grads: np.ndarray, decisions: np.ndarray) -> None:
        """A run on linear losses, whose gradients do not depend on the decisions, as one
        ``descend`` per row over its whole plan.  ``plans`` holds each row's timestamps in
        delivery order and the rounds they arrive at (``delay.checked_plan``), ``grads``
        the (T, [R,] n) gradients, and ``decisions`` receives the (T, [R,] n) decisions."""
        for r, (stamps, at) in enumerate(plans):
            self.descend(None if self.y.ndim == 1 else r, stamps, at, grads, decisions, 1,
                         len(grads))

    def descend(self, row: int | None, stamps, at, grads: np.ndarray, decisions: np.ndarray,
                start: int, stop: int) -> None:
        """Run ``row`` of the run axis (None: the one run) ingests ``stamps``, delivered at
        the rounds ``at`` (ascending), and plays rounds start..stop, as ``play`` and
        ``ingest`` would round by round: one ``clamped_walk`` over ``eta * grads[stamps -
        1]`` with its path, which is bitwise the per-step loop and so every delivery's own
        walk or step, and round t plays the position after every step delivered before t,
        written to ``decisions[t - 1]``."""
        key = ... if row is None else row
        steps = grads[:, key][stamps - 1]
        steps *= self.eta[key]
        path = np.empty((len(steps) + 1, self.box.dim))
        self.y[key] = clamped_walk(self.y[key], steps, self.box.lo, self.box.hi, path)
        del steps
        path.take(at.searchsorted(np.arange(start, stop + 1)), axis=0,
                  out=decisions[start - 1:stop, key])


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

def delayed_hedge_update(log_w: np.ndarray, alpha, arrived_loss_sums: np.ndarray) -> np.ndarray:
    """Exponential-weights update on whatever expert losses arrived this round.

    Works in log space (subtract the max before normalizing) because the
    ratio form overflows once alpha * cumulative-loss grows large; the
    mathematics is identical.  An all-zero arrival leaves weights unchanged.
    ``arrived_loss_sums`` is a float64 array of ``log_w``'s shape.  One run
    takes its max on a list and its sum by ``np.add.reduce`` (the pairwise sum
    of ``ndarray.sum``), which skip the method wrappers' per-call cost.
    Rows of a run axis normalize by one ``math.log`` each (``np.log`` rounds
    differently), gathered in a flat array that broadcasts as a column.
    """
    lw = log_w - alpha * arrived_loss_sums
    if lw.ndim == 1:
        lw -= max(lw.tolist())
        return lw - math.log(np.add.reduce(np.exp(lw)))
    lw -= np.maximum.reduce(lw, axis=-1, keepdims=True)
    return lw - np.array(list(map(math.log, np.add.reduce(np.exp(lw), axis=-1).tolist())))[:, None]


def _unplayed(k: int) -> AssertionError:
    return AssertionError(f"feedback for round {k} without a recorded play")


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
    decision and the whole pool.  (R, N) ``expert_rates`` with R alphas are R
    runs: an (R, N, n) pool and (R, N) ``log_w``; a run without feedback keeps
    its weights bitwise.  ``play`` clamps the mix into the box as the pool
    clamps its steps: one ``geometry.clamp`` against the box's 0-d bounds, which
    gives the same bits on every host.  One run's ``alpha`` is a 0-d float64.

    The state (``pool.y`` and ``weights``) changes only in ``ingest`` and
    ``set_row``, and each assigns ``log_w``, which drops the cached mix, so
    ``play`` mixes again only after feedback or a restart.  Each distinct mix is
    kept once, as the meta decision x and the spreads xs - x, and a played round
    points to the spreads it played until its feedback arrives, so memory is
    bounded by the maximum backlog; ``play(t, stop)`` points rounds t..stop to
    them at once.  A round delivered twice, or never played, fails the guard
    "feedback for round k without a recorded play".

    One run keeps its rounds' spreads in a dict.  A run axis keeps each mix's
    (R, N, n) spreads in a slot of one store, with a last slot of zeros that a
    padded timestamp reads, so a delivery gathers its spreads by one ``take``;
    a dict names each round's slot and the runs that await its feedback, and a
    slot is free again once no round awaits feedback from it (the cached mix
    holds its slot too).  The store doubles when no slot is free, up to one
    slot more than the rounds awaiting feedback, so it never holds more than
    min(T, the largest delay) + 1 slots, with or without an arrival plan.

    One run's delivery of one timestamp pops its one spread, forms its one
    surrogate product and steps the pool; a run axis's delivery of one row
    gathers the spreads of that row.  Either way the Hedge step is
    ``delayed_hedge_update``, as for a burst.  One run's two products a round,
    the mix w . xs in ``play`` and a one-timestamp delivery's surrogate spread .
    g, are ``np.dot``: the same BLAS gemv as ``@``, bitwise, without the
    ``matmul`` gufunc's dispatch, which costs more than the product at these
    sizes.  A run axis keeps its stacked ``matmul``, which ``np.dot`` has no form
    of.
    """

    def __init__(self, box: Box, expert_rates, alpha):
        rates = np.sort(np.asarray(expert_rates, dtype=np.float64))
        alphas = np.array(alpha, dtype=np.float64)  # a copy, as the pool's rates
        if alphas.ndim > 1 or rates.shape[:-1] != alphas.shape or \
                not np.all(np.isfinite(alphas) & (alphas > 0)):
            raise ValueError("alpha must be positive and finite, one per run")
        self.box = box
        self.runs = alphas.size if alphas.ndim else None
        self.alpha = alphas[:, None] * np.ones_like(rates) if alphas.ndim else alphas
        self.expert_rates = rates
        self.pool = DelayedOGD(box, rates[..., None])  # which checks the rates
        self._mix = None  # or the meta decision x and its spreads (a run axis: their slot)
        self.log_w = np.log(init_weights(rates.shape[-1])) + np.zeros(rates.shape)
        if self.runs is None:
            self._spreads = {}  # round -> the spreads it played
            return
        self._store = np.zeros((2, self.runs) + self.pool.y.shape[-2:])  # one slot and the zeros
        self._flat = self._store.reshape((-1,) + self._store.shape[-2:])  # slot * R + run
        self._users, self._free = [0], [0]  # per slot, the rounds (and the cache) holding it
        self._awaits = {}  # round -> [its slot, a bit per run that awaits its feedback]

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
        if self._mix is not None and self.runs is not None:  # its slot loses the cache's hold
            self._let_go(self._mix[1])
        self._mix = None

    def _let_go(self, slot: int) -> None:
        self._users[slot] -= 1
        if not self._users[slot]:
            self._free.append(slot)

    def _release(self, k: int, bit: int) -> int:
        """The run of ``bit`` awaits round k's feedback no more; returns the round's slot."""
        entry = self._awaits.get(k)
        if entry is None or not entry[1] & bit:
            raise _unplayed(k)
        entry[1] ^= bit
        if not entry[1]:  # a slot freed here is not written before a delivery's take
            del self._awaits[k]
            self._let_go(entry[0])
        return entry[0]

    def _take_slot(self) -> int:
        """A free slot of the store, which doubles if none is, up to one slot more than the
        rounds awaiting feedback, each of which holds one."""
        if not self._free:
            have, store = len(self._users), self._store
            more = min(2 * have, len(self._awaits) + 1)
            self._store = np.zeros((more + 1,) + store.shape[1:])
            self._store[:have] = store[:have]
            self._flat = self._store.reshape((-1,) + store.shape[-2:])
            self._users += [0] * (more - have)
            self._free += range(more - 1, have - 1, -1)
        return self._free.pop()

    def play(self, t: int, stop: int | None = None) -> np.ndarray:
        if self.runs is not None:
            return self._play_runs(t, t if stop is None else stop)
        if self._mix is None:
            xs, w, box = self.pool.y, self.weights, self.box
            # the clamp guards the one-ulp rounding a float convex combination can incur
            x = clamp(np.dot(w, xs), box.lo, box.hi)
            self._mix = (x, xs - x)
        if stop is None:
            self._spreads[t] = self._mix[1]
        else:  # rounds t..stop point to one spread
            self._spreads.update(dict.fromkeys(range(t, stop + 1), self._mix[1]))
        return self._mix[0].copy()

    def _play_runs(self, t: int, stop: int) -> np.ndarray:
        if self._mix is None:
            slot = self._take_slot()
            xs, w, box = self.pool.y, self.weights, self.box
            x = clamp(w[:, None, :] @ xs, box.lo, box.hi)
            np.subtract(xs, x, out=self._store[slot])
            self._users[slot] = 1  # the cache's hold
            self._mix = (x[:, 0], slot)
        slot, awaits, every = self._mix[1], self._awaits, (1 << self.runs) - 1
        self._users[slot] += stop + 1 - t
        for k in range(t, stop + 1):
            replayed = awaits.get(k)  # a round played again awaits its last play's feedback
            awaits[k] = [slot, every]
            if replayed:
                self._let_go(replayed[0])
        return self._mix[0].copy()

    def ingest(self, t: int, stamps, grads: np.ndarray) -> None:
        if self.runs is not None:
            self._ingest_runs(t, stamps, grads)
            return
        try:
            if len(grads) == 1:  # most deliveries: one (N, n) . (n,) gemv, without matmul's
                loss_sums = np.dot(self._spreads.pop(stamps[0]), grads[0])  # gufunc dispatch
            elif not len(stamps):
                return
            else:
                spreads = np.array([self._spreads.pop(k) for k in stamps])
                # a running sum in timestamp order gives the per-arrival float sums;
                # np.sum would add a single expert's column pairwise
                loss_sums = np.add.accumulate((spreads @ grads[..., None])[..., 0], axis=0)[-1]
                del spreads  # as large as the pool's steps: a wide delivery holds one at a time
        except KeyError as exc:
            raise _unplayed(exc.args[0]) from None
        self.log_w = delayed_hedge_update(self.log_w, self.alpha, loss_sums)
        self.pool.ingest(t, stamps, grads)

    def _ingest_runs(self, t: int, stamps, grads: np.ndarray) -> None:
        if not len(stamps):
            return
        R, release, rows = self.runs, self._release, []
        zeros = len(self._users) * R  # a padded timestamp 0 reads the last slot, of zeros
        for row in stamps:
            for r, k in enumerate(row):
                rows.append(release(k, 1 << r) * R + r if k else zeros + r)
        spreads = self._flat.take(rows, axis=0)
        if len(grads) == 1:  # a stacked (R, N, n) @ (R, n, 1) product, which np.dot has no form of
            loss_sums = (spreads @ grads[0][..., None])[..., 0]
        else:  # per run, a running sum in timestamp order, as for one run
            spreads = spreads.reshape(grads.shape[:-1] + spreads.shape[-2:])
            loss_sums = np.add.accumulate((spreads @ grads[..., None])[..., 0], axis=0)[-1]
        del spreads
        log_w = delayed_hedge_update(self.log_w, self.alpha, loss_sums)
        if 0 in stamps[0]:  # a run without feedback keeps its weights
            fed = np.array(stamps[0]) > 0 if len(grads) == 1 else \
                np.array([any(col) for col in zip(*stamps)])
            log_w = np.where(fed[:, None], log_w, self.log_w)
        self.log_w = log_w
        self.pool.ingest(t, stamps, grads[:, :, None, :])

    def set_row(self, r: int, other: "MildOGD") -> None:
        """Run r becomes the one-run learner ``other``; it awaits no feedback."""
        self.pool.set_row(r, other.pool)
        self.alpha[r], self.expert_rates[r], self.log_w[r] = \
            other.alpha, other.expert_rates, other.log_w
        self.log_w = self.log_w  # the weights follow, and the mix is dropped
        bit = 1 << r
        for k in [k for k, (_, waiting) in self._awaits.items() if waiting & bit]:
            self._release(k, bit)


# ---------------------------------------------------------------------------
# Doubling-trick variants.
# ---------------------------------------------------------------------------

_LOOP_ROUNDS = 64  # a span of at most this many rounds takes a plain loop


def epoch_starts(schedule) -> list[int]:
    """The rounds at which the doubling trick opens its epochs over one arrival plan.

    Epoch v (from v = 1, at round 1) runs from s while B_t = sum_{j=s}^{t} (j+1-s - A_j)
    stays at most the budget 2^v, where A_j counts the stamps >= s delivered in rounds
    s..j-1; the first round t with B_t > 2^v opens epoch v+1 (B == 2^v continues the
    epoch).  B_t reads only feedback delivered before round t, so each restart is one an
    online learner can take.  B grows by at least 1 a round and B_s = 1, so the restart
    comes by s + 2^v.  An epoch often ends far sooner, so its rounds are first searched
    up to twice the last epoch's length (at least ``_LOOP_ROUNDS``), then, if it has not
    ended there, up to s + 2^v (``_first_over``)."""
    T = schedule.horizon
    arrival = np.arange(T) + schedule.delays  # stamp k arrives at round arrival[k - 1]
    k = np.arange(1, T + 2)
    first = k * (k + 1) // 2  # first[t - s] = sum_{j=s}^{t} (j + 1 - s); int64 for T < 3e9
    starts, s, v, span = [1], 1, 1, _LOOP_ROUNDS
    while (end := min(s + 2 ** v, T)) > s:
        t = _first_over(arrival, first, s, min(s + span, end), 2 ** v)
        if t is None and s + span < end:
            t = _first_over(arrival, first, s, end, 2 ** v)
        if t is None:  # end is T
            break
        span = max(_LOOP_ROUNDS, 2 * (t - s))
        s, v = t, v + 1
        starts.append(s)
    return starts


def kept_stamps(schedule, starts: list[int]) -> np.ndarray:
    """Which stamps a run whose epochs open at ``starts`` keeps, a boolean per stamp (entry
    k - 1 for k): stamp k iff it was queried in the epoch open at round min(k + d_k - 1, T),
    the round it arrives at (a flush round's epoch is the last).  The rest, queried before
    that epoch, are stale; stamp T is always kept."""
    T, starts = schedule.horizon, np.asarray(starts)
    opened = starts[starts.searchsorted(np.arange(T) + schedule.delays, side="right") - 1]
    return np.arange(1, T + 1) >= opened


def _first_over(arrival: np.ndarray, first: np.ndarray, s: int, stop: int, budget: int):
    """The first round t in s+1..stop whose B_t, for the epoch opened at s, exceeds
    ``budget``, or None.  Only the stamps s..stop-1 can arrive by stop - 1.  A span of at
    most ``_LOOP_ROUNDS`` rounds steps B round by round in Python integers, cheaper there
    than array calls; a longer one is one pass of integer array operations, by the closed
    form B_t = (t-s+1)(t-s+2)/2 - sum_{r=s}^{t-1} A'_r, with A'_r the stamps >= s
    delivered in rounds s..r.  Both are exact."""
    if stop - s <= _LOOP_ROUNDS:
        count = [0] * (stop - s)  # the arrivals of stamps s..stop-1 by round, up to stop - 1
        for a in arrival[s - 1:stop - 1].tolist():
            if a < stop:
                count[a - s] += 1
        B, arrived = 1, 0
        for t in range(s + 1, stop + 1):
            arrived += count[t - 1 - s]
            B += t + 1 - s - arrived
            if B > budget:
                return t
        return None
    # a last bin takes the later arrivals
    count = np.bincount(np.minimum(arrival[s - 1:stop - 1], stop) - s, minlength=stop - s + 1)
    over = first[1:stop - s + 1] - count[:-1].cumsum().cumsum() > budget  # t > s
    i = int(over.argmax())
    return s + 1 + i if over[i] else None


class _RestartingLearner:
    """Epoch bookkeeping; epoch v runs a fresh ``make(2^v)``, where ``make(beta)`` builds the
    one-run learner tuned for the backlog sum beta.

    ``inner`` is the first epoch's learner, by default ``make(2)``.  With ``restarts`` the
    learner runs len(restarts) rows in lockstep, row r restarting iff ``restarts[r]``, and
    ``inner`` is the rows' first-epoch learners stacked on a run axis.  A restarting row
    restarts its own row of ``inner``.  A fixed-horizon row (a restarting run whose first
    epoch never ends) never restarts and reports ``epoch_starts`` None, so it runs as its
    learner alone would.

    The learner takes the run's arrival plan before round 1 (``follow``), from which
    ``epoch_starts`` gives each row's restart rounds; ``play`` restarts rows at those rounds
    and refuses to play without a plan.  It consumes every stamp it is handed: ``simulate``
    hands a restarting row only the stamps its epochs keep (``kept_stamps``)."""

    def __init__(self, make, restarts: list[bool] | None = None, inner=None):
        if restarts is not None and inner is None:
            raise ValueError("lockstep rows need their stacked first-epoch learner")
        self.make = make
        self.runs = None if restarts is None else len(restarts)
        self._epochs = [[1] if dt else None for dt in restarts or [True]]  # each row's starts
        self.inner = self.make(2) if inner is None else inner
        self._restarts = None  # the plan's restarts, from follow: round -> [(row, epoch)]

    def follow(self, schedule) -> list[int]:
        """Take the run's arrival plan (one ``DelaySchedule``, or one per row) before round 1:
        record each restarting row's ``epoch_starts`` and, by round, which rows restart, at
        which epoch.  Returns the rounds at which some row restarts, ascending."""
        schedules = [schedule] if self.runs is None else schedule
        self._restarts = {}
        for r, starts in enumerate(self._epochs):
            if starts is not None:
                self._epochs[r] = epoch_starts(schedules[r])
                for v, t in enumerate(self._epochs[r][1:], 2):
                    self._restarts.setdefault(t, []).append((r, v))
        return sorted(self._restarts)

    def play(self, t: int, stop: int | None = None) -> np.ndarray:
        """The decision for rounds t..stop, none of which but t may be a restart round."""
        if self._restarts is None:
            raise ValueError("a restarting learner plays only after follow(schedule)")
        for r, v in self._restarts.get(t, ()):
            self._restart(r, v)
        return self.inner.play(t, stop)

    def _restart(self, r: int, v: int) -> None:
        """Row r opens epoch v."""
        if self.runs is None:
            self.inner = self.make(2 ** v)
        else:
            self.inner.set_row(r, self.make(2 ** v))

    def walk(self, plans: list, grads: np.ndarray, decisions: np.ndarray) -> None:
        """``DelayedOGD.walk`` by epochs, over an inner ``DelayedOGD``: each row ``descend``s
        once an epoch, from the round at which ``play`` would open it, on the deliveries of
        the epoch's rounds (the last epoch's, the flush window's too).  The restarts are
        ``play``'s, in round order, so the state after is the round loop's."""
        if self._restarts is None:
            raise ValueError("a restarting learner plays only after follow(schedule)")
        T, opened = len(grads), [1] * len(plans)  # the round each row's epoch opened at

        def epoch(r: int, stop: int | None) -> None:  # row r's epoch, up to round stop
            stamps, at = plans[r]
            lo, hi = at.searchsorted(opened[r]), None if stop is None else at.searchsorted(stop)
            self.inner.descend(None if self.runs is None else r, stamps[lo:hi], at[lo:hi],
                               grads, decisions, opened[r], T if stop is None else stop - 1)

        for t in sorted(self._restarts):
            for r, v in self._restarts[t]:
                epoch(r, t)
                self._restart(r, v)
                opened[r] = t
        for r in range(len(plans)):
            epoch(r, None)

    def ingest(self, t: int, stamps, grads: np.ndarray) -> None:
        self.inner.ingest(t, stamps, grads)

    @property
    def epoch_starts(self) -> list:
        starts = [None if s is None else list(s) for s in self._epochs]
        return starts[0] if self.runs is None else starts

    @property
    def weights(self) -> np.ndarray:
        return self.inner.weights


class DogdDoublingTrick(_RestartingLearner):
    """DelayedOGD with restarts: epoch v runs a fresh instance at corollary_lr(D, G, 2^v),
    and ``simulate`` cuts the gradients queried before it from the plan (``kept_stamps``), so
    each instance sees exactly the feedback the epoch-local backlog statistic accounts for.
    ``restarts`` and ``inner`` make lockstep rows, as for ``_RestartingLearner``."""

    def __init__(self, box: Box, D: float, G: float, restarts: list[bool] | None = None,
                 inner: DelayedOGD | None = None):
        super().__init__(FAMILIES["dogd"].tuned(box, D, G, None), restarts, inner)


class MildOgdDoublingTrick(_RestartingLearner):
    """Restarting expert pool: one controller drives meta and experts, so they cannot drift
    apart.  Each restart rebuilds the pool, prior weights and iterates at the origin, with
    the epoch estimate 2^v in place of the backlog sum in the expert rates and in alpha; T
    sizes the grid, ``expert_count(T)`` rates.  ``restarts`` and ``inner`` make lockstep
    rows, as for ``_RestartingLearner``."""

    def __init__(self, box: Box, D: float, G: float, T: int, restarts: list[bool] | None = None,
                 inner: MildOGD | None = None):
        super().__init__(FAMILIES["mild"].tuned(box, D, G, T), restarts, inner)


class Family(namedtuple("Family", "build formulas experts")):
    """A learner family: ``build(box, **rates)``, its learner on one run's rates or on R runs'
    stacked on a run axis; each rate's paper formula f(D, G, beta, T) for the backlog sum
    beta; and ``experts(T, given)``, a run's expert count (0: one iterate) at set rates."""

    def paper(self, D: float, G: float, beta: float, T: int, **given) -> dict:
        """The paper rates at budget beta; a ``given`` rate replaces its formula, unevaluated."""
        return {rate: given[rate] if rate in given else formula(D, G, beta, T)
                for rate, formula in self.formulas.items()}

    def tuned(self, box: Box, D: float, G: float, T: int | None):  # make(beta), at the paper rates
        return lambda beta: self.build(box, **self.paper(D, G, beta, T))


FAMILIES = {
    "dogd": Family(lambda box, eta: DelayedOGD(box, eta[:, None] if np.ndim(eta) else eta),
                   {"eta": lambda D, G, beta, T: corollary_lr(D, G, beta)}, lambda T, given: 0),
    "mild": Family(MildOGD, {"expert_rates": mild_lr_grid,
                             "alpha": lambda D, G, beta, T: hedge_alpha(D, G, beta)},
                   lambda T, given: len(given.get("expert_rates", range(expert_count(T))))),
}

# A learner: its family, whether it restarts (taking no rates), its config fields, each mapped
# to the rate it replaces, and its strict bound.  "ogd" is DelayedOGD (OGD at unit delays).
Kind = namedtuple("Kind", "family restarts fields bound")
KINDS = {
    "ogd": Kind("dogd", False, {"eta": "eta"}, "bound_cor1"),
    "dogd": Kind("dogd", False, {"eta": "eta"}, "bound_cor1"),
    "mild": Kind("mild", False, {"etas": "expert_rates", "alpha": "alpha"}, "bound_thm2"),
    "dogd_dt": Kind("dogd", True, {}, "bound_thm4"),
    "mild_dt": Kind("mild", True, {}, "bound_thm5"),
}
