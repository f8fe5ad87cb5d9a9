"""Time one set-up in a fresh process and print it as one JSON line.

    python3 bench/setup_probe.py <workload>

Set-up is what a user pays before the first solve: importing ssbrp (and with
it NumPy and SciPy), then generating, writing and parsing the workload's
instance document. Interpreter start-up is not included. After the set-up,
the probe times the reference kernel in the same process, so that the set-up
time can be scaled by the host's speed at that moment (see reference.py).
"""

import json
import statistics
import sys
from time import perf_counter

import workloads

KERNEL_PASSES = 5  # timed passes of the reference kernel, after one untimed


def main() -> None:
    workload = workloads.WORKLOADS[sys.argv[1]]
    t0 = perf_counter()
    workloads.import_ssbrp()
    t1 = perf_counter()
    _, steps = workloads.set_up(workload)
    t2 = perf_counter()
    from reference import reference_s

    reference_s()
    kernel_s = statistics.median(reference_s() for _ in range(KERNEL_PASSES))
    print(json.dumps({"setup_s": t2 - t0, "import_s": t1 - t0, **steps, "reference_s": kernel_s}))


if __name__ == "__main__":
    main()
