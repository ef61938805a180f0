#!/usr/bin/env python
"""Corner explorer: V/T delay scaling and ITD.

Sweeps the Table-I operating-condition grid for an FU, printing how the
static (STA) and average dynamic delays move with voltage and
temperature — including the inverse-temperature-dependence flip the
paper highlights in Fig. 3.

Run:  python examples/corner_explorer.py
"""

from repro.circuits import build_functional_unit
from repro.flow import CampaignJob, CampaignRunner
from repro.timing import (
    DEFAULT_SCALING,
    OperatingCondition,
    run_sta_corners,
    temperature_points,
)
from repro.workloads import random_stream


def main() -> None:
    voltages = (0.81, 0.85, 0.90, 0.95, 1.00)
    temps = temperature_points()
    conditions = [OperatingCondition(v, t) for v in voltages for t in temps]

    print("== elaborate INT_ADD and run STA at all corners ==")
    fu = build_functional_unit("int_add")
    static = {r.condition: r.critical_delay
              for r in run_sta_corners(fu.netlist, conditions)}
    stream = random_stream(600, seed=1)
    trace = CampaignRunner().run([CampaignJob(fu, stream, conditions)])[0]

    print(f"\nITD crossover voltage at 50C: "
          f"{DEFAULT_SCALING.itd_crossover_voltage(50.0):.3f} V\n")

    header = "V \\ T   " + "".join(f"{t:>10.0f}C" for t in temps)
    print("static critical-path delay (ps):")
    print(header)
    for v in voltages:
        row = f"{v:.2f}   "
        for t in temps:
            row += f"{static[OperatingCondition(v, t)]:>11.0f}"
        print(row)

    print("\naverage dynamic delay (ps) for a random workload:")
    print(header)
    index = {c: i for i, c in enumerate(conditions)}
    means = trace.average_delay()
    for v in voltages:
        row = f"{v:.2f}   "
        for t in temps:
            row += f"{means[index[OperatingCondition(v, t)]]:>11.0f}"
        print(row)

    print("\nNote the flip: at 0.81 V the 100C column is FASTER than the "
          "0C column\n(inverse temperature dependence); at 1.00 V it is "
          "slower.")


if __name__ == "__main__":
    main()
