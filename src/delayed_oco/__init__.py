"""Online convex optimization under arbitrarily delayed gradient feedback.

The package provides the full pipeline: box-constrained geometry, bounded
convex loss families (one array-backed family per kind, covering all
rounds), delay schedules with their arrival/backlog structure, four online
learners (delayed projected gradient descent, an
expert-aggregation pool over surrogate losses, and restart-based versions of
both), comparator/drift/adversarial environments, and regret
metrics with worst-case bound evaluators.

The names below are the ones the demos and the README use; everything else
is imported from its submodule (``delayed_oco.harness``, ``delayed_oco.metrics``,
...).
"""

from .geometry import Box
from .delay import DelaySchedule, block_schedule, constant_schedule, uniform_schedule
from .learners import (
    DelayedOGD,
    DogdDoublingTrick,
    MildOGD,
    MildOgdDoublingTrick,
    corollary_lr,
    hedge_alpha,
    mild_lr_grid,
)
from .environments import make_drift_environment, make_lowerbound_instance, path_length
from .metrics import bound_lemma3, bound_thm2, dynamic_regret
from .harness import simulate

__version__ = "0.1.0"
