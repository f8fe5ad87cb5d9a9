"""The benchmark's workloads and the set-up each run repeats.

A workload is one fixed instance, solved by ``run()`` once per master seed
that the benchmark derives from its ``--seed``. The instance does not depend
on ``--seed``: it is the named instance of the workload, generated from
``INSTANCE_SEED`` like the scale-smoke pair of the acceptance tests.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parents[1] / "src"
INSTANCE_SEED = 1
# the smallest max_iter run() accepts, so that a run averages many run()
# calls: the number of iterations a call takes to stop varies between master
# seeds, and it sets most of the spread of solve_ref between --seed values
MAX_ITER = 2


def import_ssbrp():
    """Import ssbrp from the sources beside the benchmark, never an installed copy."""
    package = SRC / "ssbrp"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no ssbrp sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ssbrp

    if Path(ssbrp.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported ssbrp from {ssbrp.__file__}, not from {package}")
    return ssbrp


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    stations: int | None
    parallelism: int
    # run() calls per second of --seconds; sized so that one pass over the
    # calls, with the reference kernel timed between them, lasts about
    # --seconds on a 2-core machine at the defining commit
    calls_per_s: float
    damaged_fraction: float = 0.1
    depot_stock: int | None = None
    fleet: tuple[int, ...] = ()  # vehicle capacities replacing the generated fleet


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="palma-28",
            family="palma",
            stations=None,
            parallelism=1,
            calls_per_s=17,
        ),
        Workload(
            name="wien-90",
            family="wien",
            stations=90,
            parallelism=1,
            calls_per_s=5,
        ),
        Workload(
            name="fleet-mixed",
            family="wien",
            stations=15,
            parallelism=1,
            calls_per_s=13,
            damaged_fraction=0.3,
            depot_stock=10,
            fleet=(5, 7, 9, 11, 13, 17),
        ),
        Workload(
            name="palma-28-par2",
            family="palma",
            stations=None,
            parallelism=2,
            calls_per_s=7.5,
        ),
    )
}


def set_up(workload: Workload):
    """Generate, write and parse the workload's instance document.

    Returns the parsed instance and the seconds each step took. The fleet
    of ``fleet-mixed`` is swapped into the document before parsing, since
    the generator only makes fleets of one capacity.
    """
    from ssbrp import Family, GeneratorConfig, generate_instance, parse_instance, write_instance

    config = GeneratorConfig(
        family=Family(workload.family),
        stations=workload.stations,
        damaged_fraction=workload.damaged_fraction,
        depot_stock=workload.depot_stock,
        seed=INSTANCE_SEED,
    )
    t0 = perf_counter()
    generated = generate_instance(config)
    t1 = perf_counter()
    document = write_instance(generated)
    if workload.fleet:
        document["vehicles"] = [
            {"id": i, "capacity": capacity} for i, capacity in enumerate(workload.fleet, start=1)
        ]
    text = json.dumps(document)
    t2 = perf_counter()
    instance = parse_instance(json.loads(text))
    t3 = perf_counter()
    return instance, {"generate_s": t1 - t0, "write_s": t2 - t1, "parse_s": t3 - t2}
