"""The one backward-Euler loop, `scenario.solve_transient`: the runner's
policies and layer traces go through its per-step hooks, and the
benchmark's span tracer sees every step through the `stackemu.scenario`
names it wraps."""

import importlib
import importlib.util
import os
import weakref
from collections import Counter

import numpy as np
import pytest
import yaml

import stackemu.scenario
from stackemu.config import load_scenario, scenario_from_document
from stackemu.power import Constant, PowerMap, power_density_field
from stackemu.scenario import (MAX_STEPS, TransientSpec, run_scenario,
                               solve_transient)
from stackemu.solver import (SolveOptions, TemperatureField, assemble,
                             step_transient)
from stackemu.stack import discretize, preset_stack

ROOT = os.path.join(os.path.dirname(__file__), "..")
DEMO = os.path.join(ROOT, "scenarios", "demo_2layer.yaml")


@pytest.fixture
def small():
    cfg = preset_stack(2)
    grid = discretize(cfg, 6, 4, 1)
    base = PowerMap.zeros(cfg).set_uniform(0, Constant(20.0)) \
        .set_tile_power(1, 0, 0, Constant(40.0))
    t0 = TemperatureField(values=np.full(grid.shape, cfg.ambient_c),
                          grid=grid, time=0.0)
    return grid, assemble(grid, cfg), base, t0


def test_function_pmap_and_on_step_match_a_hand_loop(small):
    grid, system, base, t0 = small
    options = SolveOptions(tolerance=1e-10)
    halved = base.set_uniform(0, Constant(10.0))
    seen_at = []

    def pmap(step, field_t):
        seen_at.append((step, field_t.time))
        return halved if step % 2 else base

    stepped = []
    final = solve_transient(system, t0, pmap,
                            TransientSpec(t_end=0.875, dt=0.125),
                            options=options,
                            on_step=lambda step, f: stepped.append((step, f)))

    field_t, expected = t0, []
    for step in range(7):
        step_map = halved if step % 2 else base
        source = power_density_field(step_map, grid, field_t.time)
        field_t = step_transient(system, field_t, source, 0.125, options)
        expected.append(field_t)
    # on_step sees each step once, with its index and the field it made.
    assert [step for step, _ in stepped] == list(range(7))
    for (_, got), want in zip(stepped, expected):
        np.testing.assert_array_equal(got.values, want.values)
        assert got.time == want.time
    # Each call sees the field the step starts from.
    assert seen_at == [(s, f.time) for s, f in
                       enumerate([t0] + expected[:-1])]
    assert final is stepped[-1][1]


@pytest.mark.parametrize("kwargs, message", [
    (dict(t_end=0.0, dt=0.01), "t_end and dt must be positive and finite"),
    (dict(t_end=np.inf, dt=0.01), "t_end and dt must be positive and finite"),
    (dict(t_end=0.1, dt=-0.01), "t_end and dt must be positive and finite"),
    (dict(t_end=0.1, dt=np.nan), "t_end and dt must be positive and finite"),
    (dict(t_end=0.1, dt=0.01, sample_stride=0),
     "sample_stride must be >= 1"),
    (dict(t_end=1.0, dt=1.0e-9), "over MAX_STEPS = 10000000 steps"),
])
def test_invalid_march_raises_the_transient_spec_message(kwargs, message):
    with pytest.raises(ValueError, match=message):
        stackemu.scenario.TransientSpec(**kwargs)


@pytest.mark.parametrize("stride", [2.5, 3.0, True])
def test_sample_stride_must_be_an_integer(stride):
    """As the YAML schema's "integer": an int, not 3.0 or True."""
    with pytest.raises(ValueError, match="sample_stride must be >= 1"):
        stackemu.scenario.TransientSpec(t_end=0.05, dt=0.005,
                                        sample_stride=stride)


@pytest.mark.parametrize("t_end, dt, steps", [
    (0.07, 0.01, 7), (0.14, 0.005, 28), (0.875, 0.125, 7), (0.5, 0.005, 100),
    (0.05, 0.02, 3)])
def test_march_ends_at_t_end(small, t_end, dt, steps):
    """t_end / dt within rounding of a whole number counts as that number
    (0.07 / 0.01 is 7.000000000000001, 0.14 / 0.005 is 28.000000000000004);
    a fractional ratio (0.05 / 0.02 = 2.5) still rounds up."""
    _, system, base, t0 = small
    stepped = []
    final = solve_transient(system, t0, base, TransientSpec(t_end, dt),
                            on_step=lambda step, f: stepped.append(f))
    assert len(stepped) == steps
    assert final is stepped[-1]
    assert final.time == pytest.approx(steps * dt)


@pytest.mark.parametrize("stride, kept_steps", [
    (10, range(10, 101, 10)), (7, [*range(7, 100, 7), 100])])
def test_sampled_fields_are_every_stride_th_field_plus_the_final_one(
        monkeypatch, stride, kept_steps):
    """The demo's 100 steps with its sample_stride of 10, and with 7: the
    report keeps the fields the march made at those steps, the last of
    them the final field. The benchmark's output check reads them."""
    made = []
    real = stackemu.scenario.step_transient

    def recorded(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]
    monkeypatch.setattr(stackemu.scenario, "step_transient", recorded)
    with open(DEMO) as fh:
        doc = yaml.safe_load(fh)
    doc["transient"]["sample_stride"] = stride
    report = run_scenario(scenario_from_document(doc))
    assert len(made) == 100
    assert len(report.sampled_fields) == len(kept_steps)
    assert all(f is made[k - 1]
               for f, k in zip(report.sampled_fields, kept_steps))
    np.testing.assert_allclose([f.time for f in report.sampled_fields],
                               [0.005 * k for k in kept_steps], rtol=1e-12)
    assert report.sampled_fields[-1] is report.final_field


def test_march_of_max_steps_is_accepted():
    assert TransientSpec(t_end=1.0, dt=1.0e-7).n_steps == MAX_STEPS


# Edits of the demo document and the events they give: (action, layer,
# sensor, t, reading). Coreswap watches the hottest of all six sensors;
# the four explicit sensors put two on each layer, and two of the releases
# come from sensor 0, so each layer's own hottest sensor decides.
DTM_VARIANTS = {
    "coreswap": (
        {"policy": {"kind": "coreswap", "trigger_t": 50.0,
                    "release_t": 46.0, "period_steps": 5,
                    "pairing": [[[0, 1, 3], [1, 1, 3]],
                                [[0, 2, 4], [1, 2, 4]]]}},
        [("swap", -1, 0, 0.15, 51.5), ("swap_back", -1, 0, 0.175, 44.0),
         ("swap", -1, 0, 0.225, 53.0)]),
    "four-sensors": (
        {"sensors": {"noise_sigma": 0.5, "quantization_step": 0.25,
                     "placements": [
                         {"layer": 0, "x_mm": 4.5, "y_mm": 2.0},
                         {"layer": 0, "x_mm": 5.5, "y_mm": 2.5},
                         {"layer": 1, "x_mm": 4.5, "y_mm": 2.0},
                         {"layer": 1, "x_mm": 6.5, "y_mm": 3.5}]},
         "policy": {"kind": "throttle", "trigger_t": 45.0,
                    "release_t": 42.0, "throttle_factor": 0.6,
                    "period_steps": 2}},
        [("throttle", 0, 1, 0.11, 47.0), ("release", 0, 1, 0.16, 41.25),
         ("throttle", 0, 1, 0.21, 49.5), ("release", 0, 0, 0.27, 41.75),
         ("throttle", 0, 1, 0.31, 49.75), ("release", 0, 1, 0.40, 41.25),
         ("throttle", 0, 1, 0.41, 49.25), ("release", 0, 0, 0.48, 41.75)]),
}


@pytest.mark.parametrize("variant", DTM_VARIANTS)
def test_dtm_variant_events_are_pinned(variant):
    """Readings are pinned to one quantization step (perfbench's
    TOL_READING_K), the rest exactly or to rounding."""
    edit, expected = DTM_VARIANTS[variant]
    with open(DEMO) as fh:
        doc = yaml.safe_load(fh)
    doc.update(edit)
    events = run_scenario(scenario_from_document(doc)).events
    assert [(e.action, e.layer, e.sensor_index) for e in events] == \
        [want[:3] for want in expected]
    np.testing.assert_allclose([e.t for e in events],
                               [want[3] for want in expected], rtol=1e-12)
    np.testing.assert_allclose([e.reading for e in events],
                               [want[4] for want in expected], rtol=0,
                               atol=0.25)


def test_benchmark_wrapped_names_see_every_step(monkeypatch):
    """The span tracer counts calls through these module attributes; the
    demo's 100 steps under a 5-step policy period must all pass them."""
    calls = Counter()
    read_at = []
    for name in ("step_transient", "power_density_field", "layer_summary",
                 "read_sensors"):
        real = getattr(stackemu.scenario, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            if _name == "read_sensors":
                read_at.append(args[1].time)
            return _real(*args, **kwargs)
        monkeypatch.setattr(stackemu.scenario, name, counted)
    report = run_scenario(load_scenario(DEMO))
    assert report.events
    assert calls == Counter(step_transient=100, power_density_field=101,
                            layer_summary=2, read_sensors=21)
    # The policy reads at the start of every 5th step, then the report
    # reads the final field.
    np.testing.assert_allclose(read_at, 0.025 * np.arange(21), rtol=1e-12)


def test_the_thermal_model_is_freed_when_the_march_ends(monkeypatch):
    """The system, and with it the kept step operator, is gone before the
    reliability stage runs."""
    systems, alive = [], []
    real_report = stackemu.scenario.reliability_report

    def kept(*args, **kwargs):
        system = assemble(*args, **kwargs)
        systems.append(weakref.ref(system))
        return system

    def checked(*args, **kwargs):
        alive.append(systems[0]() is not None)
        return real_report(*args, **kwargs)
    monkeypatch.setattr(stackemu.scenario, "assemble", kept)
    monkeypatch.setattr(stackemu.scenario, "reliability_report", checked)
    report = run_scenario(load_scenario(DEMO))
    assert report.final_field is not None and report.reliability is not None
    assert len(systems) == 1 and alive == [False]


def test_benchmark_wrapped_targets_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [t for names in spans.WRAPPED.values() for t in names]
    assert "stackemu.scenario.step_transient" in targets
    for target in targets:
        module, attr = target.rsplit(".", 1)
        assert hasattr(importlib.import_module(module), attr), target
