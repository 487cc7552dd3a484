"""Online convex optimization under arbitrarily delayed gradient feedback.

The package provides the full pipeline: box-constrained geometry, bounded
convex loss families (one array-backed family per kind, covering all
rounds), delay schedules with their arrival/backlog structure, four online
learners (delayed projected gradient descent, an
expert-aggregation pool over surrogate losses, and restart-based versions of
both), comparator/drift/adversarial environments, and regret
metrics with worst-case bound evaluators.
"""

from .geometry import Box, as_decision
from .losses import Linear, QuadraticTracking, quadratic_drift_scale
from .delay import (
    DelaySchedule,
    block_schedule,
    constant_schedule,
    in_order_random_schedule,
    make_schedule,
    permuted_schedule,
    uniform_schedule,
)
from .learners import (
    DelayedOGD,
    DogdDoublingTrick,
    EpochController,
    MildOGD,
    MildOgdDoublingTrick,
    OnlineLearner,
    corollary_lr,
    delayed_hedge_update,
    dogd_dt_lr,
    expert_count,
    hedge_alpha,
    init_weights,
    mild_dt_params,
    mild_lr_grid,
)
from .environments import (
    LowerBoundInstance,
    best_fixed_decision,
    block_bounds,
    comparator_block_length,
    make_drift_environment,
    make_lowerbound_instance,
    make_path_budget_comparators,
    make_piecewise_comparators,
    path_length,
)
from .metrics import (
    RunTrace,
    bound_cor1,
    bound_lemma3,
    bound_lower,
    bound_thm1,
    bound_thm2,
    bound_thm4,
    bound_thm5,
    dynamic_regret,
    joint_effect,
    minimize_total_loss,
    reorder_penalty,
    static_regret,
)
from .harness import (
    ConfigError,
    SweepError,
    lowerbound_report,
    run_experiment,
    run_many,
    simulate,
    sweep,
    to_json,
    trace_to_csv,
    verify_all,
)

__version__ = "0.1.0"
