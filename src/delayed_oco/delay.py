"""Delay schedules, arrival sets and backlog accounting.

A schedule assigns every round t in [1, T] a delay d_t >= 1; the gradient
queried at round t becomes available at the end of round t + d_t - 1.  The
arrival set F_t collects the timestamps landing exactly at round t:

    F_t = {k in [T] | k + d_k - 1 = t},   t = 1, ..., T + d_max - 1.

Rounds past the horizon (t > T) form the flush window: nothing new is
queried there, but still-pending gradients keep arriving, which is what
lets consumption diagnostics cover all T timestamps.

Every F_t is fixed by the delays alone, so a schedule builds its arrival
plan once, when first read, in O(T) memory: the timestamps in delivery
order (a stable argsort of the arrival rounds, so each F_t is ascending)
plus offsets over only the rounds that receive feedback.  Nothing about
the plan is rediscovered during a run, nor built for a schedule never run.

The backlog counter

    m_t = t - sum_{i<t} |F_i|

equals one plus the number of gradients queried before round t that are
still undelivered at the end of round t-1, and satisfies
sum_t m_t <= S <= d_max * T where S is the sum of all delays.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# the arrival plan is built in int64: every arrival round t + d_t - 1 must fit
MAX_ROUND = 2**63 - 1


def _integer(v) -> int:
    """``v`` as an int; non-integral values (1.5, NaN, "2") are rejected, not truncated."""
    if isinstance(v, (bool, np.bool_)):
        raise ValueError(f"{v!r} is a bool, not an integer")
    try:
        d = int(v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{v!r} is not an integer") from exc
    if d != v:
        raise ValueError(f"{v!r} is not an integer")
    return d


@dataclass(frozen=True, eq=False)
class DelaySchedule:
    """Materialized per-round delays with their arrival plan.

    Delays are materialized (not a generator) so that S, d_max, m_t and the arrival
    sets are all computable before a run, which formula-derived learning rates require.
    The plan holds ``stamps`` (all timestamps in delivery order), ``rounds`` (the rounds
    that receive feedback, ascending) and ``offsets``: round ``rounds[j]`` receives
    ``stamps[offsets[j]:offsets[j + 1]]``, built when first read.  All four are read-only
    int64 arrays.  An int64 array of delays is taken as it is (the generators build one);
    any other sequence is checked entry by entry.  Schedules with equal delays are equal.
    """

    delays: np.ndarray

    def __post_init__(self):
        d = self.delays
        int64 = isinstance(d, np.ndarray) and d.dtype == np.int64 and d.ndim == 1
        if not int64:  # type(True) is bool, not int: bools still reach _integer, which refuses them
            d = [v if type(v) is int else _integer(v) for v in d]
        if len(d) == 0:
            raise ValueError("schedule must cover at least one round")
        low, high = (int(d.min()), int(d.max())) if int64 else (min(d), max(d))
        if low < 1:
            raise ValueError("all delays must be >= 1")
        if len(d) + high - 1 > MAX_ROUND:
            raise ValueError(f"delay {high} too large: arrival rounds must stay "
                             f"below 2^63 over {len(d)} rounds")
        object.__setattr__(self, "delays", np.asarray(d, dtype=np.int64))
        self.delays.setflags(write=False)

    @cached_property
    def _plan(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        arrival = np.arange(self.delays.size) + self.delays  # t + d_t - 1 for t = 1, ..., T
        order = np.argsort(arrival, kind="stable")
        by_round = arrival[order]
        starts = np.flatnonzero(np.r_[True, by_round[1:] != by_round[:-1]])
        plan = order + 1, by_round[starts], np.append(starts, self.delays.size)
        for values in plan:
            values.setflags(write=False)
        return plan

    stamps, rounds, offsets = (cached_property(lambda self, i=i: self._plan[i]) for i in range(3))

    def __eq__(self, other):
        return isinstance(other, DelaySchedule) and np.array_equal(self.delays, other.delays)

    @property
    def horizon(self) -> int:
        return self.delays.size

    @property
    def total_delay(self) -> int:
        """S = sum of all delays, exact past 2^63: their high and low 32 bits sum apart."""
        return (int((self.delays >> 32).sum()) << 32) + int((self.delays & 0xFFFFFFFF).sum())

    @property
    def max_delay(self) -> int:
        return int(self.delays.max())

    def arrival_round(self, t: int) -> int:
        """Round at whose end the gradient queried at round t is delivered."""
        return t + int(self.delays[t - 1]) - 1

    def is_in_order(self) -> bool:
        """True iff arrival rounds are nondecreasing in the query round.

        Ties are allowed: same-round arrivals are consumed in ascending
        timestamp order, which preserves the original order anyway.  The
        stable plan therefore lists the timestamps in query order exactly
        when the schedule is in order.
        """
        return bool(np.array_equal(self.stamps, np.arange(1, self.horizon + 1)))

    def backlog(self) -> np.ndarray:
        """m_t = t - sum_{i<t} |F_i| for t in [1, T]."""
        t = np.arange(1, self.horizon + 1, dtype=np.int64)
        return t - self.offsets[np.searchsorted(self.rounds, t)]  # rounds < t

    @property
    def sum_backlog(self) -> int:
        return int(self.backlog().sum())

    def to_list(self) -> list[int]:
        return self.delays.tolist()


def checked_plan(s: DelaySchedule, T: int, keep: np.ndarray | None = None) -> tuple:
    """A schedule's plan, checked: (stamps, rounds, counts, at, pos), with ``counts`` the
    arrivals of each of ``rounds`` and, per timestamp in delivery order, the round ``at``
    which it arrives and its place ``pos`` there.  Raises ValueError unless the plan
    delivers every timestamp of 1..T exactly once, never before its round, in ascending
    order within a round.  ``keep``, a boolean per timestamp (entry k - 1 for k), cuts the
    checked plan to the timestamps it keeps: a round left without arrivals drops out."""
    stamps, rounds, counts = s.stamps, s.rounds, np.diff(s.offsets)
    at = np.repeat(rounds, counts)
    if s.horizon != T or s.offsets[0] != 0 or counts.min() < 1 or np.any(np.diff(rounds) < 1) \
            or not np.array_equal(np.sort(stamps), np.arange(1, T + 1)) or np.any(at < stamps) \
            or np.any((at[1:] == at[:-1]) & (stamps[1:] <= stamps[:-1])):
        raise ValueError("an arrival plan must deliver each timestamp exactly once, no "
                         "earlier than its round, in ascending order within a round")
    if keep is not None:
        kept = keep[stamps - 1]
        stamps, at = stamps[kept], at[kept]
    first = np.flatnonzero(np.r_[True, at[1:] != at[:-1]])  # each round's first arrival
    counts = np.diff(np.append(first, at.size))
    return stamps, at[first], counts, at, np.arange(at.size) - np.repeat(first, counts)


def merge_plans(schedules: list, kept: list | None = None) -> tuple[np.ndarray, np.ndarray,
                                                                    np.ndarray, np.ndarray]:
    """One arrival plan for R runs of one horizon T, each on its own schedule.

    Returns (rounds, offsets, stamps, slots): round ``rounds[j]`` delivers the
    block ``stamps[offsets[j]:offsets[j + 1]]``, K rows by R, whose column r
    holds run r's arrivals in ascending order, padded below with 0.  Run r's
    timestamp k sits at row ``slots[k - 1, r] // R`` of ``stamps``, so the
    gradient it queries can be written there.  One run gets its own plan.
    Each plan is checked here, once, by ``checked_plan``.  ``kept``, per run
    None or a boolean per timestamp, cuts run r's plan to the timestamps
    ``kept[r]`` keeps (``checked_plan``); its cut timestamps, ascending, fill
    rows of their own past the blocks, which no round delivers, so every
    queried gradient is still written.
    """
    T, R = schedules[0].horizon, len(schedules)
    kept = kept or [None] * R
    plans = [checked_plan(s, T, keep) for s, keep in zip(schedules, kept)]
    merged = np.sort(np.concatenate([rounds for _, rounds, _, _, _ in plans]))
    merged = merged[np.concatenate(([True], merged[1:] != merged[:-1]))]  # np.unique loads numpy.ma
    width = np.zeros(merged.size, dtype=np.int64)  # the largest arrival count of each round
    for _, rounds, counts, _, _ in plans:
        np.maximum.at(width, np.searchsorted(merged, rounds), counts)
    offsets = np.concatenate(([0], np.cumsum(width)))
    stamps = np.zeros((offsets[-1] + T - min(len(plan[0]) for plan in plans), R), dtype=np.int64)
    slots = np.empty((T, R), dtype=np.int64)
    for r, ((run_stamps, _, _, at, pos), keep) in enumerate(zip(plans, kept)):
        row = offsets[np.searchsorted(merged, at)] + pos
        if keep is not None:  # the cut timestamps, in rows past the blocks
            cut = np.flatnonzero(~keep) + 1
            row, run_stamps = np.r_[row, offsets[-1] + np.arange(cut.size)], np.r_[run_stamps, cut]
        stamps[row, r], slots[run_stamps - 1, r] = run_stamps, row * R + r
    return merged, offsets, stamps, slots


# ---------------------------------------------------------------------------
# Schedule generators.  All are deterministic given their seed.
# ---------------------------------------------------------------------------

def constant_schedule(T: int, d: int) -> DelaySchedule:
    if not 1 <= d <= MAX_ROUND:
        raise ValueError(f"constant delays need 1 <= d < 2^63, got {d}")
    return DelaySchedule(np.full(T, d, dtype=np.int64))


def uniform_schedule(T: int, lo: int, hi: int, seed: int) -> DelaySchedule:
    if not 1 <= lo <= hi <= MAX_ROUND:  # the int64 draw's exclusive end, hi + 1, is at most 2^63
        raise ValueError(f"uniform delays need 1 <= lo <= hi < 2^63, got lo = {lo}, hi = {hi}")
    rng = np.random.default_rng(seed)
    return DelaySchedule(rng.integers(lo, hi + 1, size=T))


def block_schedule(T: int, d: int) -> DelaySchedule:
    """Delays that defer every gradient of a length-d block to the block's end.

    Round t in block z (blocks {(z-1)d+1, ..., min(zd, T)}) gets
    d_t = min(zd, T) - t + 1, so 1 <= d_t <= d and arrivals stay in order.
    This is the schedule the adversarial lower-bound instances use.
    """
    if d < 1:
        raise ValueError("block length must be >= 1")
    d, t = min(d, T), np.arange(1, T + 1)  # a block of d >= T rounds ends at T; d fits int64
    return DelaySchedule(np.minimum(((t - 1) // d + 1) * d, T) - t + 1)


def permuted_schedule(T: int, seed: int) -> DelaySchedule:
    """Out-of-order schedule from a random permutation of target arrival slots.

    Slot p_t earlier than the query round clamps to immediate arrival:
    d_t = max(p_t, t) - t + 1.
    """
    rng = np.random.default_rng(seed)
    slots = rng.permutation(T) + 1
    t = np.arange(1, T + 1)
    return DelaySchedule(np.maximum(slots, t) - t + 1)


def in_order_random_schedule(T: int, d_max: int, seed: int) -> DelaySchedule:
    """Random schedule with nondecreasing arrivals and delays <= d_max: round t arrives at
    max_{k<=t} k + r_k - 1, r_k uniform on 1..d_max, in uint64 so that no arrival wraps."""
    if not 1 <= d_max <= MAX_ROUND:  # the int64 draw's exclusive end is at most 2^63
        raise ValueError(f"in_order_random d_max must lie in [1, 2^63), got {d_max}")
    draws = np.random.default_rng(seed).integers(1, d_max + 1, size=T).astype(np.uint64)
    t = np.arange(1, T + 1, dtype=np.uint64)
    return DelaySchedule((np.maximum.accumulate(t + draws - 1) - t + 1).astype(np.int64))


def _delay_list(values) -> list:
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"explicit delay values must be a list, got {values!r}")
    return values


def _listed(T: int, values: list) -> DelaySchedule:
    if len(values) != T:
        raise ValueError(f"explicit delay list has length {len(values)}, expected {T}")
    return DelaySchedule(values)


# A delay kind: its spec's fields (all required), each with the reader that takes its value,
# the field a sweep's "d" sets (None: a "d" cell is refused), and its schedule built from
# (T, seed, **fields read).
Kind = namedtuple("Kind", "fields sweep build")

KINDS = {
    "constant": Kind({"value": _integer}, "value",
                     lambda T, seed, value: constant_schedule(T, value)),
    "uniform": Kind({"lo": _integer, "hi": _integer}, "hi",
                    lambda T, seed, lo, hi: uniform_schedule(T, lo, hi, seed)),
    "blocks": Kind({"d": _integer}, "d", lambda T, seed, d: block_schedule(T, d)),
    "permuted": Kind({}, None, lambda T, seed: permuted_schedule(T, seed)),
    "in_order_random": Kind({"d_max": _integer}, "d_max",
                            lambda T, seed, d_max: in_order_random_schedule(T, d_max, seed)),
    "list": Kind({"values": _delay_list}, None, lambda T, seed, values: _listed(T, values)),
}


def make_schedule(spec: dict, T: int, seed: int) -> DelaySchedule:
    """Build a schedule from a config-style spec ``{"kind": ..., field: value, ...}``, whose
    kind and fields ``KINDS`` lists; raises ValueError on anything the schedule refuses,
    naming the field (``delay.value: ...``), or the kind's fields where their range or their
    values together are refused."""
    if spec.get("kind") not in KINDS:
        raise ValueError(f"unknown delay spec kind: {spec.get('kind')!r}")
    kind, fields = KINDS[spec["kind"]], {}
    for field, read in kind.fields.items():
        if field not in spec:
            raise ValueError(f"delay.{field}: the {spec['kind']!r} delay requires it")
        try:
            fields[field] = read(spec[field])
        except ValueError as exc:
            raise ValueError(f"delay.{field}: {exc}") from exc
    try:
        return kind.build(T, seed, **fields)
    except ValueError as exc:
        if not fields:
            raise
        raise ValueError(f"{' and '.join(f'delay.{field}' for field in fields)}: {exc}") \
            from exc
