"""Per-layer metrics of one traced unit call, computed from its spans.

Times named ``*.ms`` are inclusive (a layer's own spans, outermost only);
``*.self_ms`` subtract every child span.  Counts are exact and must repeat
between two traced calls on the same input.
"""

from __future__ import annotations

import numpy as np

from tracer import SpanTable

# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer.
PER_LAYER = {
    "learners.play.self_ms": ("ms", "lower"),
    "learners.play.calls": ("count", "lower"),
    "learners.ingest.self_ms": ("ms", "lower"),
    "learners.ingest.items": ("count", "lower"),
    "learners.ingest.kept_ratio": ("ratio", "higher"),
    "learners.experts": ("count", "lower"),
    "geometry.project.ms": ("ms", "lower"),
    "geometry.project.calls": ("count", "lower"),
    "geometry.as_decision.calls": ("count", "lower"),
    "losses.value.ms": ("ms", "lower"),
    "losses.value.calls": ("count", "lower"),
    "losses.gradient.ms": ("ms", "lower"),
    "losses.gradient.calls": ("count", "lower"),
    "environments.build.ms": ("ms", "lower"),
    "metrics.dynamic_regret.ms": ("ms", "lower"),
    "metrics.static_regret.ms": ("ms", "lower"),
    "metrics.bounds.ms": ("ms", "lower"),
    "delay.make_schedule.ms": ("ms", "lower"),
    "delay.backlog.ms": ("ms", "lower"),
    "delay.queue.ms": ("ms", "lower"),
    "delay.queue.max_pending": ("count", "lower"),
    "delay.arrivals.max_batch": ("count", "lower"),
    "harness.simulate.self_ms": ("ms", "lower"),
    "harness.simulate.ns_per_round": ("ns", "lower"),
    "harness.simulate.floor_ratio": ("ratio", "lower"),
    "harness.normalize_config.ms": ("ms", "lower"),
    "floor.ns_per_round": ("ns", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Layers that only some workloads call.  Where a workload never calls them
# they read exactly 0 on every run, so they are printed and recorded but are
# not part of BENCHMARK.json's per_layer.
SPECIFIC = {
    "environments.comparators.ms": "ms",  # not drift_sweep: its comparators are the targets
    "metrics.joint_effect.ms": "ms",  # not cli_run: restarts leave no full consumption log
    "harness.trace_to_csv.ms": "ms",  # cli_run only
    "harness.to_json.ms": "ms",  # cli_run only
    "cli.main.self_ms": "ms",  # cli_run only
}

# Exact counts that must repeat between two traced calls of one input.
COUNTERS = ("learners.play.calls", "learners.ingest.items", "learners.ingest.kept_ratio",
            "learners.experts", "geometry.project.calls", "geometry.as_decision.calls",
            "losses.value.calls", "losses.gradient.calls", "delay.queue.max_pending",
            "delay.arrivals.max_batch", "rounds")


def span_metrics(tab: SpanTable) -> dict[str, float]:
    """Layer metrics of one unit call (all except the untraced-run ones)."""
    def ms(mask):
        return float(tab.dur[mask].sum() / 1e6)

    def outer_ms(pattern):
        return ms(tab.top(tab.mask(pattern)))

    def count(mask):
        return int(mask.sum())

    play = tab.mask(r"learners\.\w+\.play$")
    ingest = tab.mask(r"learners\.\w+\.ingest$")
    top_ingest = tab.top(ingest)
    restarting = top_ingest & tab.mask(r"learners\._RestartingLearner\.ingest$")
    delivered = int(tab.value[top_ingest].sum())
    # a restarting learner passes on only in-epoch items: its inner ingest's count
    kept = int(tab.value[top_ingest & ~restarting].sum()
               + tab.value[tab.with_parent(ingest, restarting)].sum())
    top_play = count(tab.top(play))
    expert_play = count(tab.mask(r"learners\.(DelayedOGD|OnlineGradientDescent)\.play$"))
    project = tab.mask(r"geometry\.Box\.project$")
    value = tab.mask(r"losses\.\w+\.value$")
    gradient = tab.mask(r"losses\.\w+\.gradient$")
    push = tab.mask(r"delay\.FeedbackQueue\.push$")
    pop = tab.mask(r"delay\.FeedbackQueue\.pop$")
    simulate = tab.mask(r"harness\.simulate$")
    comparator_search = tab.with_parent(tab.mask(r"metrics\.minimize_total_loss$"),
                                        tab.mask(r"harness\.run_experiment$"))
    return {
        "learners.play.self_ms": float(tab.self_ns[play].sum() / 1e6),
        "learners.play.calls": count(play),
        "learners.ingest.self_ms": float(tab.self_ns[ingest].sum() / 1e6),
        "learners.ingest.items": delivered,
        "learners.ingest.kept_ratio": kept / delivered if delivered else 0.0,
        "learners.experts": expert_play / top_play if top_play else 0.0,
        "geometry.project.ms": ms(tab.top(project)),
        "geometry.project.calls": count(project),
        "geometry.as_decision.calls": count(tab.mask(r"geometry\.as_decision$")),
        "losses.value.ms": ms(tab.top(value)),
        "losses.value.calls": count(value),
        "losses.gradient.ms": ms(tab.top(gradient)),
        "losses.gradient.calls": count(gradient),
        "environments.build.ms": outer_ms(
            r"environments\.(make_drift_environment|make_lowerbound_instance"
            r"|LowerBoundInstance\.losses)$"),
        "environments.comparators.ms": outer_ms(
            r"environments\.make_(path_budget|piecewise)_comparators$") + ms(comparator_search),
        "metrics.dynamic_regret.ms": outer_ms(r"metrics\.dynamic_regret$"),
        "metrics.static_regret.ms": outer_ms(r"metrics\.static_regret$"),
        "metrics.joint_effect.ms": outer_ms(r"metrics\.joint_effect$"),
        "metrics.bounds.ms": outer_ms(r"metrics\.(bound_\w+|reorder_penalty"
                                      r"|comparator_blocks_lower)$"),
        "delay.make_schedule.ms": outer_ms(r"delay\.\w+_schedule$"),
        "delay.backlog.ms": outer_ms(r"delay\.DelaySchedule\.(backlog|sum_backlog)$"),
        "delay.queue.ms": ms(push | pop),
        "delay.queue.max_pending": int(tab.value[push].max(initial=0)),
        "delay.arrivals.max_batch": int(tab.value[pop].max(initial=0)),
        "harness.simulate.self_ms": float(tab.self_ns[simulate].sum() / 1e6),
        "harness.normalize_config.ms": outer_ms(r"harness\.normalize_config$"),
        "harness.trace_to_csv.ms": outer_ms(r"harness\.trace_to_csv$"),
        "harness.to_json.ms": outer_ms(r"harness\.to_json$"),
        "cli.main.self_ms": float(tab.self_ns[tab.mask(r"cli\.main$")].sum() / 1e6),
        "rounds": int(tab.value[simulate].sum()),
    }


def self_time_problems(tab: SpanTable) -> list[str]:
    """Self times must be non-negative and sum exactly to the unit call's wall time."""
    problems = []
    if tab.self_ns.min() < 0:
        problems.append("a child span outlasts its parent")
    total, wall = float(tab.self_ns.sum()), float(tab.dur[tab.root])
    if abs(total - wall) > 1e-9 * wall:
        problems.append(f"self times sum to {total:.0f} ns, unit call took {wall:.0f} ns")
    return problems


def mean_metrics(per_call: list[dict]) -> dict[str, float]:
    return {k: float(np.mean([m[k] for m in per_call])) for k in per_call[0]}
