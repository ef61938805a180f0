"""Reproduce Fig. 1: dynamic delay depends on which input changes.

The paper's motivating example: the same circuit shows a 2 ns delay for
one input transition and 1.5 ns for the next, because different paths
are sensitized.  We build a circuit with the same delay structure (an
AND gate fed by a slow 1 ns buffer on ``x`` and a fast 0.5 ns buffer on
``y``, followed by a 1 ns output stage) and check both simulators
report the paper's numbers.
"""

import numpy as np
import pytest

from repro.circuits.builder import CircuitBuilder
from repro.sim.eventsim import EventDrivenSimulator
from repro.sim.levelized import LevelizedSimulator


@pytest.fixture(scope="module")
def fig1():
    b = CircuitBuilder(name="fig1")
    x = b.input_bit("x")
    y = b.input_bit("y")
    slow_x = b.buf(x)        # 1 ns input buffer on x
    fast_y = b.buf(y)        # 0.5 ns input buffer on y
    anded = b.and_(slow_x, fast_y)
    out = b.buf(anded)       # 1 ns output stage
    b.netlist.mark_output(out, "out")
    nl = b.build()
    # delays in ps, per gate in insertion order: bufx, bufy, and, bufout
    delays = [1000.0, 500.0, 0.0, 1000.0]
    return nl, delays


#: x,y vectors: start (0,1); x rises (paper (b): delay 2ns);
#: then y falls while x holds (paper (c): delay 1.5ns).
STIMULUS = np.array([
    [0, 1],
    [1, 1],   # x: 0->1 propagates through 1ns buf + and + 1ns buf = 2ns
    [1, 0],   # y: 1->0 propagates through 0.5ns buf + and + 1ns buf = 1.5ns
], dtype=np.uint8)


def test_event_sim_matches_paper_delays(fig1):
    nl, delays = fig1
    sim = EventDrivenSimulator(nl, delays)
    result = sim.run_trace(STIMULUS)
    assert result.delays[0] == pytest.approx(2000.0)
    assert result.delays[1] == pytest.approx(1500.0)


def test_levelized_matches_paper_delays(fig1):
    nl, delays = fig1
    sim = LevelizedSimulator(nl)
    result = sim.run(STIMULUS, np.asarray(delays))
    assert result[0, 0] == pytest.approx(2000.0)
    assert result[0, 1] == pytest.approx(1500.0)


def test_engines_agree_on_glitch_free_example(fig1):
    nl, delays = fig1
    ev = EventDrivenSimulator(nl, delays).run_trace(STIMULUS)
    lv = LevelizedSimulator(nl).run(STIMULUS, np.asarray(delays))
    np.testing.assert_allclose(lv[0], ev.delays, rtol=1e-6)
