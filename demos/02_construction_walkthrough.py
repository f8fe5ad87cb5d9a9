"""Step through the randomized greedy route construction by hand.

Phase one grows a route one visit at a time: one scan finds the feasible
successors and scores each with a moved-bikes-per-minute ratio, then the
next stop is drawn among those close to the best ratio. This script replays the first choices of a
tiny instance manually, then lets the full builder finish the job.
"""

import numpy as np

from ssbrp import (
    BuildState,
    ConstructionParams,
    Depot,
    Instance,
    Station,
    TravelMatrix,
    Vehicle,
    construct_solution,
    validate_solution,
)
from ssbrp.construction import apply_visit, feasible_successors, select_next

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
vehicle = instance.fleet[0]
rng = np.random.default_rng(3)

state = BuildState.fresh(instance)
state.start_vehicle(vehicle)
visits, moves = [0], [(0, 0)]

for step in range(1, 4):
    # each candidate move (node, beta, alpha) with its ratio, in station
    # order, the depot last
    ratios = feasible_successors(instance, state, visits[-1], vehicle, params)
    if not ratios:
        break
    print(f"step {step}: at node {visits[-1]}, elapsed {state.elapsed:g} min")
    for (v, beta, alpha), ratio in ratios.items():
        print(f"  node {v}: move ({beta} operative, {alpha} damaged)"
              f"  ratio {ratio:.4f}")
    # a fresh epsilon is drawn per choice; pin it here to make the cut visible
    epsilon = 0.8
    cutoff = epsilon * max(ratios.values())
    eligible = sorted(v for (v, _, _), r in ratios.items() if r >= cutoff)
    v_star, beta, alpha = select_next(ratios, rng, epsilon=epsilon)
    print(f"  epsilon {epsilon} keeps {eligible}, drew {v_star}")
    apply_visit(instance, state, vehicle, visits, moves, v_star, beta, alpha)
    print(f"  onboard now {state.onboard_operative} operative,"
          f" {state.onboard_damaged} damaged\n")

print(f"partial route after manual steps: {visits}  moves {moves}")

# deficit visits may retroactively charge the last depot visit: delivering
# more than was onboard claims depot stock at index state.last_depot_index
print(f"depot stock left unclaimed: {state.depot_remaining}")

# the full builder runs the same loop for every vehicle in fleet order
solution = construct_solution(instance, params, np.random.default_rng(3))
for route, plan in zip(solution.routes, solution.plans):
    print(f"\nfull construction, vehicle {route.vehicle_id}: {route.visits}")
    print(f"  moves {plan.moves}")
o = solution.objective
print(f"objective  total={o.total:.6f}  imbalance={o.imbalance:.6f}  "
      f"damaged={o.damaged:.6f}  time={o.time:.6f}")

violations = validate_solution(instance, solution.routes, solution.plans)
assert not violations
print(f"final operative inventories: {solution.final_operative}")
print(f"final damaged inventories:   {solution.final_damaged}")
