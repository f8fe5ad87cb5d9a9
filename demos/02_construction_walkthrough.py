"""Watch the randomized greedy route construction choose, one visit at a time.

Phase one grows a route one visit at a time: one scan scores the feasible
successors with a moved-bikes-per-minute ratio and keeps those close to the
best ratio, then the next stop is drawn among them. This script wraps the
scan, ``construction.feasible_successors``, which ``build_route`` looks up
by module name at every step and hands that step's epsilon, and prints what
each step of the real builder sees: every candidate and ratio (the same
scan without epsilon), the top ratio, the epsilon cut, the moves the scan
keeps and, once the route stands at the next node, the draw. The wrapper
draws nothing, so the random stream, and the route, are the ones an
unwrapped construction gets.
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

scan = construction.feasible_successors
steps = []  # the node each step starts at
kept = []  # the last step's kept moves, one of which was drawn


def traced_scan(context, u, elapsed, operative, damaged, lockers, stock, room, epsilon=None):
    running = (elapsed, operative, damaged, lockers, stock, room)
    if kept:
        # the route now stands at the drawn move's node; a node has one move
        print(f"  drew {next(move[:3] for move in kept if move[0] == u)}\n")
        kept.clear()
    moves = scan(context, u, *running, epsilon)
    if moves:
        steps.append(u)
        print(f"step {len(steps)}: at node {u}")
        # the scored moves (node, beta, alpha, ratio) come in station order,
        # the depot last; the top is the largest ratio
        for v, beta, alpha, ratio in scan(context, u, *running):
            print(f"  node {v}: move ({beta} operative, {alpha} damaged)  ratio {ratio:.4f}")
        top = max(ratio for *_, ratio in moves)
        # infinite ratios keep only themselves
        cut = top if top == math.inf else epsilon * top
        print(f"  top {top:.4f}, epsilon {epsilon:.4f}, cut {cut:.4f} keeps {[v for v, *_ in moves]}")
        kept.extend(moves)
    return moves


construction.feasible_successors = traced_scan
try:
    solution = construct_solution(instance, params, np.random.default_rng(3))
finally:
    construction.feasible_successors = scan

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
