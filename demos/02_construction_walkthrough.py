"""Watch the randomized greedy route construction choose, one visit at a time.

Phase one grows a route one visit at a time: one scan finds the feasible
successors and scores each with a moved-bikes-per-minute ratio, then the
next stop is drawn among those close to the best ratio. This script wraps
the draw, ``construction.select_next``, which ``build_route`` looks up by
module name at every step, and prints what each step of the real builder
sees: the candidates and ratios, the top ratio, the epsilon cut, the
eligible moves and the draw. The wrapper draws epsilon as ``select_next``
would and hands it on, so the random stream, and the route, are the ones
an unwrapped construction gets.
"""

import math

import numpy as np

from ssbrp import (
    ConstructionParams,
    Depot,
    Instance,
    Station,
    TravelMatrix,
    Vehicle,
    construct_solution,
    validate_solution,
)
from ssbrp import construction

# three stations: 1 has three bikes too many, 2 is three short, 3 holds
# two damaged bikes; a single vehicle with four lockers, two spares at depot
stations = (
    Station(id=1, capacity=10, operative=8, damaged=0, target=5),
    Station(id=2, capacity=10, operative=2, damaged=0, target=5),
    Station(id=3, capacity=10, operative=5, damaged=2, target=5),
)
minutes = np.array([
    [0, 10, 10, 5],
    [10, 0, 10, 10],
    [10, 10, 0, 10],
    [5, 10, 10, 0],
], dtype=float)
travel = TravelMatrix(minutes)
instance = Instance(
    stations=stations,
    depot=Depot(operative=2),
    travel=travel,
    fleet=(Vehicle(1, 4),),
    time_budget=100.0,
    metric=True,
)
params = ConstructionParams(theta=0.5, mu=1.5)

select_next = construction.select_next
steps = []  # the moves drawn so far; one vehicle, so each step starts at the last


def traced_select_next(candidates, rng, epsilon=None):
    # the scored moves (node, beta, alpha, ratio) come in station order, the
    # depot last; the top is the largest ratio
    at = steps[-1][0] if steps else 0
    print(f"step {len(steps) + 1}: at node {at}")
    for v, beta, alpha, ratio in candidates:
        print(f"  node {v}: move ({beta} operative, {alpha} damaged)  ratio {ratio:.4f}")
    # the same draw select_next makes for epsilon; infinite ratios keep only themselves
    epsilon = rng.random()
    top = max(ratio for *_, ratio in candidates)
    cut = top if top == math.inf else epsilon * top
    eligible = [v for v, _, _, ratio in candidates if ratio >= cut]
    print(f"  top {top:.4f}, epsilon {epsilon:.4f}, cut {cut:.4f} keeps {eligible}")
    move = select_next(candidates, rng, epsilon)
    print(f"  drew {move}\n")
    steps.append(move)
    return move


construction.select_next = traced_select_next
try:
    solution = construct_solution(instance, params, np.random.default_rng(3))
finally:
    construction.select_next = select_next

# the builder ends the route at the depot once no candidate is left, and a
# delivery beyond the bikes on board claims the rest at the last depot visit
for route, plan in zip(solution.routes, solution.plans):
    print(f"vehicle {route.vehicle_id}: {route.visits}")
    print(f"  moves {plan.moves}")
o = solution.objective
print(f"objective  total={o.total:.6f}  imbalance={o.imbalance:.6f}  "
      f"damaged={o.damaged:.6f}  time={o.time:.6f}")

violations = validate_solution(instance, solution.routes, solution.plans)
assert not violations
# the unwrapped builder draws the same route from the same seed
assert construct_solution(instance, params, np.random.default_rng(3)) == solution
print(f"final operative inventories: {solution.final_operative}")
print(f"final damaged inventories:   {solution.final_damaged}")
