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
before t (``epoch_starts``), so it is one an online learner could take.

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
  budget 2^v, and ``epoch_starts`` computes the epochs from the arrival plan.

``FAMILIES`` holds each family's learner, built from rates, and its paper rates
(by the rate helpers ``corollary_lr``, ``mild_lr_grid`` and ``hedge_alpha``, which
the learners refuse unless positive and finite); ``KINDS`` each configurable
learner's family, restarts, config fields and strict bound.  A fixed-horizon
learner is its doubling-trick variant with a first epoch that never ends, so
one lockstep batch steps the runs of a family and expert count.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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
    Rows of a run axis normalize by ``math.log`` each (``np.log`` rounds differently).
    """
    lw = log_w - alpha * arrived_loss_sums
    if lw.ndim == 1:
        lw -= max(lw.tolist())
        return lw - math.log(np.add.reduce(np.exp(lw)))
    lw -= np.maximum.reduce(lw, axis=-1, keepdims=True)
    return lw - np.array([[math.log(s)] for s in np.add.reduce(np.exp(lw), axis=-1).tolist()])


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
    ``play`` mixes again only after feedback or a restart.  Each distinct
    mix is kept once, as the meta decision x and the spreads xs - x; a round
    points to the spreads it played until its feedback arrives, so memory is
    bounded by the maximum backlog.  ``play(t, stop)`` points rounds t..stop
    to them at once.

    One run's delivery of one timestamp pops its one spread, forms its one
    surrogate product and steps the pool; a run axis's delivery of one row
    takes the spreads and the runs that were fed from that row.  Either way
    the Hedge step is ``delayed_hedge_update``, as for a burst.  One run's two
    products a round, the mix w . xs in ``play`` and a one-timestamp delivery's
    surrogate spread . g, are ``np.dot``: the same BLAS gemv as ``@``, bitwise,
    without the ``matmul`` gufunc's dispatch, which costs more than the product
    at these sizes.  A run axis keeps its stacked ``matmul``, which ``np.dot``
    has no form of.
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
        self.log_w = np.log(init_weights(rates.shape[-1])) + np.zeros(rates.shape)
        # round -> the spreads it played; with a run axis one such dict per run
        self._spreads = {} if self.runs is None else [{} for _ in range(self.runs)]
        self._no_spread = np.zeros((rates.shape[-1], box.dim))  # a padded slot's

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
        self._mix = None  # or the meta decision x and the expert spreads xs - x (per run)

    def play(self, t: int, stop: int | None = None) -> np.ndarray:
        if self._mix is None:
            xs, w, box = self.pool.y, self.weights, self.box
            # the clamp guards the one-ulp rounding a float convex combination can incur
            if self.runs is None:
                x = clamp(np.dot(w, xs), box.lo, box.hi)
                self._mix = (x, xs - x)
            else:
                x = clamp(w[:, None, :] @ xs, box.lo, box.hi)
                self._mix = (x[:, 0], list(xs - x))
        if stop is not None:  # rounds t..stop point to one spread
            played = range(t, stop + 1)
            if self.runs is None:
                self._spreads.update(dict.fromkeys(played, self._mix[1]))
            else:
                for spreads, s in zip(self._spreads, self._mix[1]):
                    spreads.update(dict.fromkeys(played, s))
        elif self.runs is None:
            self._spreads[t] = self._mix[1]
        else:
            for spreads, s in zip(self._spreads, self._mix[1]):
                spreads[t] = s
        return self._mix[0].copy()

    def ingest(self, t: int, stamps, grads: np.ndarray) -> None:
        one = len(grads) == 1  # one arrival per run
        single = one and self.runs is None  # most deliveries: tested first
        try:
            if single:
                spreads = self._spreads.pop(stamps[0])
            elif not len(stamps):
                return
            elif self.runs is None:
                spreads = [self._spreads.pop(k) for k in stamps]
            else:
                spreads = [run.pop(k) if k else self._no_spread
                           for row in stamps for run, k in zip(self._spreads, row)]
        except KeyError as exc:
            raise AssertionError(f"feedback for round {exc.args[0]} without a recorded play") \
                from None
        if single:  # one (N, n) . (n,) gemv, without matmul's gufunc dispatch
            loss_sums = np.dot(spreads, grads[0])
        elif one:  # a stacked (R, N, n) @ (R, n, 1) product, which np.dot has no form of
            loss_sums = (np.array(spreads) @ grads[0][..., None])[..., 0]
        else:
            # a running sum in timestamp order gives the per-arrival float sums;
            # np.sum would add a single expert's column pairwise
            spreads = np.array(spreads).reshape(grads.shape[:-1] + self._no_spread.shape)
            loss_sums = np.add.accumulate((spreads @ grads[..., None])[..., 0], axis=0)[-1]
        del spreads  # as large as the pool's steps: a wide delivery holds one at a time
        log_w = delayed_hedge_update(self.log_w, self.alpha, loss_sums)
        if self.runs is None:
            self.log_w = log_w
            self.pool.ingest(t, stamps, grads)
            return
        if 0 in stamps[0]:  # a run without feedback keeps its weights
            fed = np.array(stamps[0]) > 0 if one else np.array([any(col) for col in zip(*stamps)])
            log_w = np.where(fed[:, None], log_w, self.log_w)
        self.log_w = log_w
        self.pool.ingest(t, stamps, grads[:, :, None, :])

    def set_row(self, r: int, other: "MildOGD") -> None:
        """Run r becomes the one-run learner ``other``."""
        self.pool.set_row(r, other.pool)
        self.alpha[r], self.expert_rates[r], self.log_w[r] = \
            other.alpha, other.expert_rates, other.log_w
        self.log_w = self.log_w  # the weights follow, and the mix is dropped
        self._spreads[r] = {}


# ---------------------------------------------------------------------------
# Doubling-trick variants.
# ---------------------------------------------------------------------------

def epoch_starts(schedule) -> list[int]:
    """The rounds at which the doubling trick opens its epochs over one arrival plan.

    Epoch v (from v = 1, at round 1) runs from s while B_t = sum_{j=s}^{t} (j+1-s - A_j)
    stays at most the budget 2^v, where A_j counts the stamps >= s delivered in rounds
    s..j-1; the first round t with B_t > 2^v opens epoch v+1 (B == 2^v continues the
    epoch).  B_t reads only feedback delivered before round t, so each restart is one an
    online learner can take.  In closed form B_t = (t-s+1)(t-s+2)/2 - sum_{r=s}^{t-1} A'_r,
    with A'_r the stamps >= s delivered in rounds s..r.  B grows by at least 1 a round and
    B_s = 1, so the restart comes by s + 2^v, and each epoch is one pass of integer array
    operations over its rounds, hence exact."""
    T = schedule.horizon
    arrival = np.arange(T) + schedule.delays  # stamp k arrives at round arrival[k - 1]
    k = np.arange(1, T + 2)
    first = k * (k + 1) // 2  # first[t - s] = sum_{j=s}^{t} (j + 1 - s); int64 for T < 3e9
    starts, s, v = [1], 1, 1
    while (end := min(s + 2 ** v, T)) > s:
        # the arrivals in rounds s..end-1 of stamps s..end-1 (the only ones that arrive by
        # end-1), by round; a last bin takes the later ones
        count = np.bincount(np.minimum(arrival[s - 1:end - 1], end) - s, minlength=end - s + 1)
        over = first[1:end - s + 1] - count[:-1].cumsum().cumsum() > 2 ** v  # t > s
        t = int(over.argmax())
        if not over[t]:  # end is T
            break
        s, v = s + 1 + t, v + 1
        starts.append(s)
    return starts


class _RestartingLearner:
    """Epoch bookkeeping + stale-feedback dropping; epoch v runs a fresh ``make(2^v)``,
    where ``make(beta)`` builds the one-run learner tuned for the backlog sum beta.

    ``inner`` is the first epoch's learner, by default ``make(2)``.  With ``restarts`` the
    learner runs len(restarts) rows in lockstep, row r restarting iff ``restarts[r]``, and
    ``inner`` is the rows' first-epoch learners stacked on a run axis.  A restarting row
    restarts its own row of ``inner`` and counts its own ``dropped``.  A fixed-horizon row
    (a restarting run whose first epoch never ends) never restarts, drops nothing and
    reports ``epoch_starts`` None, so it runs as its learner alone would.  Only the
    restarting rows are checked for stale stamps.

    The learner takes the run's arrival plan before round 1 (``follow``), from which
    ``epoch_starts`` gives each row's restart rounds; ``play`` restarts rows at those rounds
    and refuses to play without a plan.  A stamp below its row's epoch start is stale."""

    def __init__(self, make, restarts: list[bool] | None = None, inner=None):
        if restarts is not None and inner is None:
            raise ValueError("lockstep rows need their stacked first-epoch learner")
        self.make = make
        self.runs = None if restarts is None else len(restarts)
        self._restarting = [r for r, dt in enumerate(restarts or [True]) if dt]
        self._epochs = [[1] if dt else None for dt in restarts or [True]]  # each row's starts
        self._starts = [1] * len(self._epochs)  # each row's epoch start; a fixed row's stays 1
        self.dropped = 0 if restarts is None else np.zeros(self.runs, dtype=np.int64)
        self.inner = self.make(2) if inner is None else inner
        self._restarts = None  # the plan's restarts, from follow: round -> [(row, epoch, last)]
        self._stale_until = 0  # no stale stamp arrives after this round

    def follow(self, schedule) -> list[int]:
        """Take the run's arrival plan (one ``DelaySchedule``, or one per row) before round 1:
        record each restarting row's ``epoch_starts`` and, by round, which rows restart, at
        which epoch, and the last round at which a stamp from before that epoch arrives.
        Returns the rounds at which some row restarts, ascending."""
        schedules = [schedule] if self.runs is None else schedule
        self._restarts = {}
        for r in self._restarting:
            self._epochs[r] = epoch_starts(schedules[r])
            last = np.maximum.accumulate(np.arange(len(schedules[r].delays)) +
                                         schedules[r].delays)  # of stamps 1..k, at k - 1
            for v, t in enumerate(self._epochs[r][1:], 2):
                self._restarts.setdefault(t, []).append((r, v, int(last[t - 2])))
        return sorted(self._restarts)

    def play(self, t: int, stop: int | None = None) -> np.ndarray:
        """The decision for rounds t..stop, none of which but t may be a restart round."""
        if self._restarts is None:
            raise ValueError("a restarting learner plays only after follow(schedule)")
        for r, v, last in self._restarts.get(t, ()):
            self._starts[r], self._stale_until = t, max(self._stale_until, last)
            if self.runs is None:
                self.inner = self.make(2 ** v)
            else:
                self.inner.set_row(r, self.make(2 ** v))
        return self.inner.play(t, stop)

    def ingest(self, t: int, stamps, grads: np.ndarray) -> None:
        if self.runs is None:
            # stamps ascend, so the stale ones (queried before the epoch) are a prefix
            stale = bisect_left(stamps, self._starts[0])
            self.dropped += stale
            if stale < len(stamps):
                self.inner.ingest(t, stamps[stale:], grads[stale:])
            return
        # a run's column ascends above its padding, so its first stamp is its oldest
        if t <= self._stale_until and \
                any(0 < stamps[0][r] < self._starts[r] for r in self._restarting):
            block = np.array(stamps)  # a dropped item becomes padding: stamp 0, a zero step
            stale = (block > 0) & (block < self._starts)
            self.dropped = self.dropped + stale.sum(axis=0)
            block = np.where(stale, 0, block)
            if not block.any():  # every stamp was stale
                return
            stamps, grads = block.tolist(), np.where(stale[..., None], 0, grads)
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
    and the gradients queried before it are dropped on arrival (counted in ``dropped``), so
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
