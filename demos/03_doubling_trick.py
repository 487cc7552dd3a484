"""Running without the backlog sum: restarts driven by the backlog statistic.

The tuned learning rates need sum_t m_t, which is only known once the whole
delay schedule has played out.  The restart-based variants instead estimate
that sum as 2^v, watch the epoch-local backlog accumulator B online, and open
a fresh epoch (new instance, halved-scale rate) the moment B would exceed the
estimate.  Every quantity involved is observable at the time it is needed,
except the horizon T that ``MildOgdDoublingTrick`` reads to size its expert
grid.

Like every learner, a restarting one is played a stretch of rounds without
feedback at a time, by ``play(t, stop)``.  ``simulate`` hands it the arrival
plan first, by ``follow(schedule)``, from which ``learners.epoch_starts``
computes its restart rounds before round 1; its restart at round t still reads
only feedback delivered before t, so it is the restart an online learner takes.
A gradient queried before the epoch it arrives in is stale: ``simulate`` cuts
it from the plan (``learners.kept_stamps``), so the learner never sees it, and
the trace counts it in ``dropped``.
"""

from delayed_oco import (
    Box,
    DelayedOGD,
    DogdDoublingTrick,
    MildOgdDoublingTrick,
    corollary_lr,
    dynamic_regret,
    make_drift_environment,
    simulate,
    uniform_schedule,
)
from delayed_oco.environments import path_length
from delayed_oco.metrics import bound_thm4, bound_thm5

T = 800
box = Box.from_diameter(1, 2.0)
losses, targets = make_drift_environment(box, T, step=0.04, loss_kind="quadratic",
                                         seed=5, grad_bound=1.0)
schedule = uniform_schedule(T, 1, 10, seed=9)
P = path_length(targets)

restarter = DogdDoublingTrick(box, D=2.0, G=1.0)
trace = simulate(restarter, losses, schedule, box)
print(f"epoch start rounds: {restarter.epoch_starts}")
print(f"stale gradients dropped across restarts: {trace.dropped}")

r_restart = dynamic_regret(trace, losses, targets)
print(f"\nrestart-based regret: {r_restart:8.2f}   "
      f"bound {bound_thm4(2.0, 1.0, schedule.total_delay, P, schedule.is_in_order(), schedule.max_delay, T):8.2f}")

# the oracle-tuned rate (which needs the whole schedule up front) for scale
eta = corollary_lr(2.0, 1.0, schedule.sum_backlog)
tuned = simulate(DelayedOGD(box, eta), losses, schedule, box)
print(f"oracle-tuned regret:  {dynamic_regret(tuned, losses, targets):8.2f}")

pool = MildOgdDoublingTrick(box, D=2.0, G=1.0, T=T)
pool_trace = simulate(pool, losses, schedule, box)
print(f"\nrestarting pool regret: {dynamic_regret(pool_trace, losses, targets):8.2f}   "
      f"bound {bound_thm5(2.0, 1.0, schedule.total_delay, P, schedule.is_in_order(), schedule.max_delay, T):8.2f}")
print(f"pool epochs: {pool.epoch_starts} (meta and experts restart together)")
