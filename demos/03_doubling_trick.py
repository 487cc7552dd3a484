"""Running without the backlog sum: restarts driven by the backlog statistic.

The tuned learning rates need sum_t m_t, which is only known once the whole
delay schedule has played out.  The restart-based variants instead estimate
that sum as 2^v, watch the epoch-local backlog accumulator B online, and open
a fresh epoch (new instance, halved-scale rate) the moment B would exceed the
estimate.  Every quantity involved is observable at the time it is needed,
except the horizon T that the restarting pool reads to size its expert grid.

A restarting run is a learner family's ``make(beta)``, the learner at the paper
rates for the budget beta (``FAMILIES[...].tuned``), handed to ``simulate``
beside its first epoch, ``make(2)``.  ``simulate`` computes the restart rounds
from the arrival plan before round 1 (``learners.epoch_starts``) and opens
epoch v by replacing the learner's state with ``make(2**v)``'s; a restart at
round t still reads only feedback delivered before t, so it is the restart an
online learner takes.  A gradient queried before the epoch it arrives in is
stale: ``simulate`` cuts it from the plan (``learners.kept_stamps``), so the
learner never sees it, and the trace counts it in ``dropped``.
"""

from delayed_oco import (
    Box,
    DelayedOGD,
    corollary_lr,
    dynamic_regret,
    make_drift_environment,
    simulate,
    uniform_schedule,
)
from delayed_oco.environments import path_length
from delayed_oco.learners import FAMILIES
from delayed_oco.metrics import bound_thm4, bound_thm5

T = 800
box = Box.from_diameter(1, 2.0)
losses, targets = make_drift_environment(box, T, step=0.04, loss_kind="quadratic",
                                         seed=5, grad_bound=1.0)
schedule = uniform_schedule(T, 1, 10, seed=9)
P = path_length(targets)

restarter = FAMILIES["dogd"].tuned(box, D=2.0, G=1.0, T=T)
trace = simulate(restarter(2), losses, schedule, box, make=restarter)
print(f"epoch start rounds: {list(trace.epoch_starts)}")
print(f"stale gradients dropped across restarts: {trace.dropped}")

r_restart = dynamic_regret(trace, losses, targets)
print(f"\nrestart-based regret: {r_restart:8.2f}   "
      f"bound {bound_thm4(2.0, 1.0, schedule.total_delay, P, schedule.is_in_order(), schedule.max_delay, T):8.2f}")

# the oracle-tuned rate (which needs the whole schedule up front) for scale
eta = corollary_lr(2.0, 1.0, schedule.sum_backlog)
tuned = simulate(DelayedOGD(box, eta), losses, schedule, box)
print(f"oracle-tuned regret:  {dynamic_regret(tuned, losses, targets):8.2f}")

pool = FAMILIES["mild"].tuned(box, D=2.0, G=1.0, T=T)
pool_trace = simulate(pool(2), losses, schedule, box, make=pool)
print(f"\nrestarting pool regret: {dynamic_regret(pool_trace, losses, targets):8.2f}   "
      f"bound {bound_thm5(2.0, 1.0, schedule.total_delay, P, schedule.is_in_order(), schedule.max_delay, T):8.2f}")
print(f"pool epochs: {list(pool_trace.epoch_starts)} (meta and experts restart together)")
