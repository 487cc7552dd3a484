"""The doubling trick's restart rule, round by round: the reference the tests check the plan
pass (``learners.epoch_starts``) and every restarting run against."""


def per_round_epochs(schedule):
    """The restart rule round by round over a plan, the reference ``epoch_starts`` is checked
    against: at the start of round t of epoch v from s, B grows by t + 1 - s less the stamps
    >= s delivered in rounds s..t-1, and B > 2^v opens epoch v+1 at t with B = 1.  Returns
    (epoch starts, each delivery's stale count), flush rounds past T included."""
    T = schedule.horizon
    rounds, offsets, stamps = (schedule.rounds.tolist(), schedule.offsets.tolist(),
                               schedule.stamps.tolist())
    starts, B, arrived, stale, j = [1], 0, 0, [], 0
    for t in range(1, T + 1):
        B += t + 1 - starts[-1] - arrived
        if B > 2 ** len(starts):
            starts.append(t)
            B, arrived = 1, 0
        while j < len(rounds) and (rounds[j] == t or t == T):  # after T, the flush rounds
            block = stamps[offsets[j]:offsets[j + 1]]
            stale.append(sum(k < starts[-1] for k in block))
            arrived += len(block) - stale[-1]
            j += 1
    return starts, stale
