"""Compare construction parameters across instances and seeds.

theta dampens the moved-bikes count in the greedy ratio (low theta favors
short detours, high theta favors big moves); mu scales the pull of the
depot when damaged bikes are onboard. This script runs a small grid on a
few generated instances and reports mean and best objective per cell, and
the mean iteration at which the best was found, as the CLI's iter_mean.

The CLI does the same at scale:  python3 -m ssbrp sweep --family palma
"""

import statistics

from ssbrp import ConstructionParams, Family, GeneratorConfig, RunConfig, generate_instance, run

instances = [
    generate_instance(GeneratorConfig(family=Family.PALMA, stations=10,
                                      time_budget_min=90.0, seed=s))
    for s in (1, 2)
]
seeds = (0, 1, 2)

print(f"{'theta':>6} {'mu':>5} {'of_mean':>9} {'of_best':>9} {'iter_mean':>9}")
for theta in (0.3, 0.5, 0.8):
    for mu in (1.0, 2.0):
        totals, iters = [], []
        for inst in instances:
            for seed in seeds:
                config = RunConfig(
                    max_iter=20,
                    master_seed=seed,
                    construction=ConstructionParams(theta=theta, mu=mu),
                )
                report = run(inst, config)
                totals.append(report.best_objective.total)
                iters.append(report.iteration_of_best)
        print(f"{theta:>6} {mu:>5} {statistics.mean(totals):>9.5f} "
              f"{min(totals):>9.5f} {statistics.mean(iters):>9.1f}")

print(f"\n{len(instances)} instances x {len(seeds)} seeds per cell; "
      "same seeds, same numbers, every run")
