"""Every backward-Euler step checks its energy balance: the power put in,
summed from the source, against the boundary outflux and the heat stored,
C/dt (T' - T). The gap may not exceed max(1e-6 P_in, sqrt(n) tol ||b||),
the second term the most a converged solve's residual can sum to; the
step's SolveStats keeps the gap and the limit."""

import os

import numpy as np
import pytest

import stackemu.solver
from stackemu.cli import main
from stackemu.config import load_scenario, scenario_from_document
from stackemu.power import power_density_field
from stackemu.solver import (ENERGY_BALANCE_LIMIT, NumericalError,
                             TemperatureField, assemble, step_transient)
from stackemu.stack import discretize

from test_config import _workloads

ROOT = os.path.join(os.path.dirname(__file__), "..")
DEMO = os.path.join(ROOT, "scenarios", "demo_2layer.yaml")
STACKS = {"demo": lambda: load_scenario(DEMO),
          "steady_tsv": lambda: scenario_from_document(
              _workloads()["steady_tsv"](7)[0])}


def _model(name, nx, ny):
    """Scenario, grid, system and t = 0 source of a stack at nx x ny."""
    scenario = STACKS[name]()
    grid = discretize(scenario.stack, nx, ny)
    return (scenario, grid, assemble(grid, scenario.stack),
            power_density_field(scenario.power, grid, 0.0))


def _ambient(scenario, grid):
    return TemperatureField(np.full(grid.shape, scenario.stack.ambient_c),
                            grid)


@pytest.mark.parametrize("name", STACKS)
def test_steps_from_ambient_balance_at_every_dt(name):
    """40 steps from ambient at 128x64, farm-free and with TSV farms, at
    dt from 5 ms to 0.5 us. From 0.5 ms down ||b|| is mostly C/dt T, and
    the limit is the solve's bound, not 1e-6 P_in."""
    scenario, grid, system, source = _model(name, 128, 64)
    assert (system.operator(5e-3).E is None) == (name == "demo")
    p_in = float(np.sum(source * grid.voxel_volume))
    for dt in (5e-3, 5e-4, 5e-5, 5e-6, 5e-7):
        field_t = _ambient(scenario, grid)
        for _ in range(40):
            field_t = step_transient(system, field_t, source, dt,
                                     scenario.solve)
            stats = field_t.solve
            solve_bound = (np.sqrt(grid.n) * scenario.solve.tolerance
                           * stats.rhs_norm)
            assert stats.energy_limit_w == pytest.approx(
                max(ENERGY_BALANCE_LIMIT * p_in, solve_bound), rel=1e-12)
            assert abs(stats.energy_gap_w) <= stats.energy_limit_w
        assert (solve_bound > ENERGY_BALANCE_LIMIT * p_in) == (dt < 1e-3)


def _planted(monkeypatch, layer_index, factor):
    """DiscreteSystem.rhs of every step with the source on one layer
    scaled by factor; the steady solve's rhs, which has no out buffer,
    keeps it."""
    real = stackemu.solver.DiscreteSystem.rhs

    def faulty(self, source, out=None):
        if out is not None:
            source = np.array(np.reshape(source, self.grid.shape))
            slabs = self.grid.layer_slabs(layer_index)
            source[slabs[0]:slabs[-1] + 1] *= factor
        return real(self, source, out)
    monkeypatch.setattr(stackemu.solver.DiscreteSystem, "rhs", faulty)


@pytest.mark.parametrize("name", STACKS)
@pytest.mark.parametrize("factor", [0.0, 2.0], ids=["dropped", "doubled"])
@pytest.mark.parametrize("dt", [5e-3, 5e-7])
def test_a_lost_or_doubled_layer_source_fails_the_step(monkeypatch, name,
                                                       factor, dt):
    """The step passes, then fails with one device layer's source lost
    or doubled in b while P_in, summed from the source, keeps it."""
    scenario, grid, system, source = _model(name, 32, 16)
    layer = scenario.stack.device_layer_indices[-1]
    step_transient(system, _ambient(scenario, grid), source, dt,
                   scenario.solve)
    _planted(monkeypatch, layer, factor)
    with pytest.raises(NumericalError, match="step energy balance off by"):
        step_transient(system, _ambient(scenario, grid), source.copy(), dt,
                       scenario.solve)


@pytest.mark.parametrize("factor", [0.0, 2.0], ids=["dropped", "doubled"])
def test_a_planted_step_fault_exits_2_and_writes_nothing(
        monkeypatch, tmp_path, capsys, factor):
    _planted(monkeypatch, load_scenario(DEMO).stack.device_layer_indices[1],
             factor)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["--config", DEMO, "--out", str(out / "demo"),
                 "report"]) == 2
    err = capsys.readouterr().err
    assert "stage 'transient'" in err and "step energy balance" in err
    assert os.listdir(out) == []
