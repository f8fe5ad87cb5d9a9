"""Exactly optimal loading instructions for a frozen route.

Phase two takes routes as given and treats only the per-visit moves as
decisions: an integer program with one operative and one damaged variable
per visit, solved by LP-based branch-and-bound. This script builds the
program for a single route, prints it, solves it, and certifies the
result with a lower bound that no plan over the route can beat.
"""

import numpy as np

from ssbrp import (
    Depot,
    Instance,
    LoadingPlan,
    ObjectiveWeights,
    Route,
    Station,
    TravelMatrix,
    Vehicle,
    build_model,
    reoptimize_solution,
    solution_from_plans,
    solve_exact,
)
from ssbrp.loading import loading_bound

# station 1 needs two bikes, station 2 has two too many, station 3 holds one
# damaged bike; the route visits the deficit FIRST, so only a depot pickup
# can serve it
stations = (
    Station(id=1, capacity=10, operative=3, damaged=0, target=5),
    Station(id=2, capacity=10, operative=7, damaged=0, target=5),
    Station(id=3, capacity=10, operative=5, damaged=1, target=5),
)
minutes = np.array([
    [0, 8, 8, 6],
    [8, 0, 6, 8],
    [8, 6, 0, 8],
    [6, 8, 8, 0],
], dtype=float)
travel = TravelMatrix(minutes)
instance = Instance(
    stations=stations,
    depot=Depot(operative=2),
    travel=travel,
    fleet=(Vehicle(1, 3),),
    time_budget=200.0,
    metric=True,
)

route = Route(1, (0, 1, 3, 2, 0))
model = build_model(instance, (route,))
print("the loading program (zero-fixed variables are left out):\n")
print(model.dump())

result = solve_exact(model)
print(f"\noptimal residual count: {result.objective_value:g}")
(plan,) = result.plans  # one plan per route, in route order
for node, move in zip(route.visits, plan.moves):
    print(f"  node {node}: move {move}")

# loading_bound: no plan over the route scores below it, so a plan that
# reaches it is optimal; run() certifies constructed plans the same way
weights = ObjectiveWeights()
solved = solution_from_plans(instance, [route], result.plans, weights)
bound = loading_bound(instance, solved, weights)
assert bound.total == solved.objective.total
print(f"\nsolved total {solved.objective.total:.4f} equals its lower bound {bound.total:.4f}")

# reoptimize_solution applies the same program to a whole solution: here the
# same route with a deliberately myopic plan that ignored the depot stock
myopic = LoadingPlan(1, ((0, 0), (0, 0), (0, 1), (2, 0), (-2, -1)))
before = solution_from_plans(instance, [route], [myopic], weights)
after = reoptimize_solution(instance, before, weights)
print(f"\nmyopic plan:     imbalance {before.objective.imbalance:.4f}"
      f"  damaged {before.objective.damaged:.4f}")
print(f"reoptimized:     imbalance {after.objective.imbalance:.4f}"
      f"  damaged {after.objective.damaged:.4f}")
print(f"route time untouched: {after.route_times == before.route_times}")
print(f"new moves: {after.plans[0].moves}")
