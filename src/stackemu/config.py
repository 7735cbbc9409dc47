"""YAML scenario configuration: schema-validated (unknown keys rejected)
and mapped one-to-one onto the domain types. Units are fixed: um, mm,
W/(m K), W/cm^2, deg C, seconds, ohms, farads.

The schema validator is built once per process. Its type checker is
stricter than JSON Schema's: a "number" must be finite (nan and +-inf
pass every `minimum` comparison, so they would otherwise reach the
model), and an "integer" must be written as one (1.0 is rejected, not
converted)."""

from __future__ import annotations

import functools
import importlib.resources
import json
import math
import os
from dataclasses import fields as dc_fields

import jsonschema
import yaml

from .materials import DEFAULT_MATERIALS, Material
from .pdn import PdnParams
from .power import (Constant, Periodic, PowerMap, Step, BUILTIN_PRESETS,
                    load_trace_csv)
from .reliability import ReliabilityParams
from .scenario import (AutoPlace, CoreSwapPolicy, GridSpec, Scenario,
                       SolveOptions, ThrottlePolicy, TransientSpec)
from .sensors import SensorNetwork, SensorSpec
from .stack import (LayerRole, LayerSpec, StackConfig, TsvFarmSpec,
                    preset_stack)


class ConfigError(ValueError):
    pass


def _schema() -> dict:
    ref = importlib.resources.files("stackemu") / "schema" / \
        "scenario.schema.json"
    return json.loads(ref.read_text())


@functools.cache
def _validator():
    """The bundled schema's validator with the strict number types. The
    schema itself is checked against its meta-schema by the tests, not on
    every load."""
    schema = _schema()
    base = jsonschema.validators.validator_for(schema)
    is_type = base.TYPE_CHECKER.is_type
    types = base.TYPE_CHECKER.redefine_many({
        "number": lambda _, x: is_type(x, "number") and (
            isinstance(x, int) or math.isfinite(x)),
        "integer": lambda _, x: isinstance(x, int) and not isinstance(
            x, bool)})
    return jsonschema.validators.extend(base, type_checker=types)(schema)


def validate_document(doc: dict) -> None:
    """Raise ConfigError with the error jsonschema.validate would raise
    (its best match), located by its path in the document."""
    error = jsonschema.exceptions.best_match(_validator().iter_errors(doc))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {path}: {error.message}")


def _material(spec) -> Material:
    if isinstance(spec, str):
        if spec not in DEFAULT_MATERIALS:
            raise ConfigError(
                f"unknown material {spec!r}; known: "
                f"{sorted(DEFAULT_MATERIALS)}")
        return DEFAULT_MATERIALS[spec]
    return Material(**spec)


def _farm(spec: dict) -> TsvFarmSpec:
    spec = dict(spec)
    spec["fill_material"] = _material(spec["fill_material"])
    if "liner_material" in spec:
        spec["liner_material"] = _material(spec["liner_material"])
    return TsvFarmSpec(**spec)


def _layer(spec: dict) -> LayerSpec:
    spec = dict(spec)
    spec["role"] = LayerRole(spec["role"]) if spec["role"] in \
        [r.value for r in LayerRole] else LayerRole[spec["role"]]
    spec["material"] = _material(spec["material"])
    spec["tsv_farms"] = tuple(_farm(f) for f in spec.get("tsv_farms", ()))
    return LayerSpec(**spec)


def _stack(spec: dict) -> StackConfig:
    spec = dict(spec)
    preset = spec.pop("preset", None)
    layers = spec.pop("layers", None)
    if (preset is None) == (layers is None):
        raise ConfigError("stack needs exactly one of 'preset' or 'layers'")
    if preset is not None:
        config = preset_stack(preset)
        overrides = {k: v for k, v in spec.items()
                     if k in ("ambient_c", "heat_sink_h",
                              "package_resistance", "die_width_mm",
                              "die_length_mm")}
        if overrides:
            from dataclasses import replace
            config = replace(config, **overrides)
        return config
    spec["layers"] = tuple(_layer(l) for l in layers)
    return StackConfig(**spec)


def _profile(spec: dict, base_dir: str):
    kind = spec["kind"]
    if kind == "constant":
        return Constant(spec.get("p", 0.0))
    if kind == "step":
        return Step(spec["p0"], spec["p1"], spec["t_switch"])
    if kind == "periodic":
        return Periodic(spec["p_low"], spec["p_high"], spec["period"],
                        spec.get("duty", 0.5))
    if kind == "trace_csv":
        return load_trace_csv(os.path.join(base_dir, spec["path"]))
    raise ConfigError(f"unknown profile kind {kind!r}")


def _power(spec: dict | None, stack: StackConfig, base_dir: str) -> PowerMap:
    pmap = PowerMap.zeros(stack)
    if not spec:
        return pmap
    for a in spec.get("assignments", ()):
        layer = a["layer"]
        if layer >= pmap.n_device_layers:
            raise ConfigError(f"assignment references device layer {layer}, "
                              f"stack has {pmap.n_device_layers}")
        keys = {"preset", "uniform", "profile"} & a.keys()
        if len(keys) != 1:
            raise ConfigError("assignment needs exactly one of "
                              "'preset', 'uniform' or 'profile'")
        if "preset" in a:
            pmap = pmap.apply_preset(layer, BUILTIN_PRESETS[a["preset"]])
        elif "uniform" in a:
            pmap = pmap.set_uniform(layer, _profile(a["uniform"], base_dir))
        else:
            if "row" not in a or "col" not in a:
                raise ConfigError("per-tile assignment needs 'row' and 'col'")
            pmap = pmap.set_tile_power(layer, a["row"], a["col"],
                                       _profile(a["profile"], base_dir))
    return pmap


def _sensors(spec: dict | None,
             seed: int) -> SensorNetwork | AutoPlace | None:
    if not spec:
        return None
    kwargs = {k: spec[k] for k in ("noise_sigma", "quantization_step",
                                   "sample_period") if k in spec}
    if "auto_place" in spec:
        if "placements" in spec:
            raise ConfigError("sensors takes 'placements' or 'auto_place', "
                              "not both")
        return AutoPlace(k=spec["auto_place"]["k"], **kwargs)
    sensors = tuple(
        SensorSpec(layer=p["layer"], x_mm=p["x_mm"], y_mm=p["y_mm"], **kwargs)
        for p in spec.get("placements", ()))
    return SensorNetwork(sensors=sensors, rng_seed=seed)


def _from_dataclass(cls, spec: dict | None):
    if spec is None or spec == "disabled":
        return None
    names = {f.name for f in dc_fields(cls)}
    bad = set(spec) - names
    if bad:
        raise ConfigError(f"unknown keys for {cls.__name__}: {sorted(bad)}")
    return cls(**spec)


def _policy(spec):
    if spec is None or spec == "none":
        return None, 10
    period = spec.get("period_steps", 10)
    if spec["kind"] == "throttle":
        return ThrottlePolicy(trigger_t=spec["trigger_t"],
                              release_t=spec["release_t"],
                              throttle_factor=spec.get("throttle_factor",
                                                       0.5)), period
    pairing = tuple((tuple(pair[0]), tuple(pair[1]))
                    for pair in spec.get("pairing", ()))
    return CoreSwapPolicy(trigger_t=spec["trigger_t"],
                          release_t=spec["release_t"],
                          pairing=pairing), period


def scenario_from_document(doc: dict, base_dir: str = ".") -> Scenario:
    validate_document(doc)
    seed = doc.get("seed", 0)
    stack = _stack(doc["stack"])
    grid = GridSpec(nx=doc["grid"]["nx"], ny=doc["grid"]["ny"],
                    sub_slabs_per_layer=doc["grid"].get(
                        "sub_slabs_per_layer", 1))
    power = _power(doc.get("power"), stack, base_dir)
    sensors = _sensors(doc.get("sensors"), seed)

    transient = doc.get("transient")
    if transient == "steady-only":
        transient = None
    if transient is not None:
        transient = TransientSpec(**transient)

    policy, period = _policy(doc.get("policy"))

    return Scenario(
        name=doc["name"],
        stack=stack,
        power=power,
        grid=grid,
        sensors=sensors,
        pdn=_from_dataclass(PdnParams, doc.get("pdn")),
        reliability=_from_dataclass(ReliabilityParams,
                                    doc.get("reliability")),
        solve=_from_dataclass(SolveOptions, doc.get("solve"))
        or SolveOptions(),
        transient=transient,
        policy=policy,
        policy_period=period,
        seed=seed)


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        try:
            doc = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader",  # libyaml
                                               yaml.SafeLoader))
        except yaml.YAMLError as e:
            raise ConfigError(f"{path}: malformed YAML: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return scenario_from_document(doc, base_dir=os.path.dirname(
        os.path.abspath(path)))
