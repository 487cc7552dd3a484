"""The adversarial floor: no algorithm beats sqrt(d*T) under block delays.

The construction is simple and brutal.  Split the horizon into blocks of d
rounds, pick one random-sign linear loss per block, and delay every gradient
in a block to the block's last round.  Nothing played inside a block can
depend on that block's signs, so in expectation the played loss is zero while
hindsight collects h * |sum of block signs| per coordinate - a random-walk
quantity of order sqrt(number of blocks).

Averaged over sign draws, any learner's static regret must sit above
  D*G*T / (2*sqrt(2*ceil(T/d))).
This script measures that for the tuned delayed-descent learner.
"""

from delayed_oco import Box, block_schedule, bound_lemma3, make_lowerbound_instance
from delayed_oco.environments import block_bounds
from delayed_oco.harness import lowerbound_report
from delayed_oco.metrics import minimize_total_loss

T, d, D = 24, 6, 2.0
signs, losses = make_lowerbound_instance(T=T, d=d, D=D, G=1.0, n=1, seed=0)
print("a small instance, spelled out:")
print(f"  blocks: {block_bounds(T, d)}")
print(f"  delays: {block_schedule(T, d).to_list()}")
print(f"  per-block signs: {signs.ravel().astype(int)}")
x_star, total = minimize_total_loss(losses, Box.from_diameter(1, D))
print(f"  best fixed decision {x_star} with total loss {total:.1f}")

print("\nnow at measurement scale (T=1000, 200 sign draws):")
for d in (1, 10):
    rep = lowerbound_report(T=1000, d=d, D=2.0, G=1.0, n=1, trials=200, base_seed=0)
    floor = bound_lemma3(1000, d, 2.0, 1.0)
    print(f"  d={d:2d}: mean regret {rep['mean_static_regret']:6.2f} "
          f"(stderr {rep['stderr']:.2f})  vs floor {floor:6.2f}  "
          f"-> {'above' if rep['pass'] else 'BELOW'}")
