#!/usr/bin/env python
"""Fig. 1 walk-through: why dynamic delay depends on the input pair.

Builds the paper's motivating circuit (two input buffers of different
delay feeding an AND gate and an output buffer), drives the two input
transitions from the figure, and shows the event-driven simulator
reporting 2 ns for the first transition and 1.5 ns for the second.

Run:  python examples/fig1_dynamic_delay.py
"""

import numpy as np

from repro.circuits.builder import CircuitBuilder
from repro.sim.eventsim import EventDrivenSimulator


def build_fig1_circuit():
    b = CircuitBuilder(name="fig1")
    x = b.input_bit("x")
    y = b.input_bit("y")
    slow_x = b.buf(x)          # 1 ns buffer on x
    fast_y = b.buf(y)          # 0.5 ns buffer on y
    anded = b.and_(slow_x, fast_y)
    out = b.buf(anded)         # 1 ns output stage
    b.netlist.mark_output(out, "out")
    netlist = b.build()
    gate_delays = [1000.0, 500.0, 0.0, 1000.0]  # ps, insertion order
    return netlist, gate_delays


def main() -> None:
    netlist, gate_delays = build_fig1_circuit()
    sim = EventDrivenSimulator(netlist, gate_delays)

    stimulus = np.array([
        [0, 1],   # initial state: x=0, y=1
        [1, 1],   # (b) x rises: path through the 1 ns buffer -> 2 ns
        [1, 0],   # (c) y falls: path through the 0.5 ns buffer -> 1.5 ns
    ], dtype=np.uint8)

    result = sim.run_trace(stimulus)
    print("event-driven dynamic delays:")
    print(f"  cycle 1 (x: 0->1): {result.delays[0]:.0f} ps (paper: 2 ns)")
    print(f"  cycle 2 (y: 1->0): {result.delays[1]:.0f} ps (paper: 1.5 ns)")

    print("\nSame circuit, same operating condition — the sensitized "
          "path (and hence the delay)\nis decided entirely by which "
          "input changed. This is the workload dependence TEVoT models.")


if __name__ == "__main__":
    main()
