"""YAML scenario configuration: schema-validated (unknown keys rejected)
and mapped one-to-one onto the domain types. Units are fixed: um, mm,
W/(m K), W/cm^2, deg C, seconds, ohms, farads.

The schema validator is built once per process. Its type checker is
stricter than JSON Schema's: a "number" must be finite (nan and +-inf
pass every `minimum` comparison, so they would otherwise reach the
model), and an "integer" must be written as one (1.0 is rejected, not
converted).

Each section becomes its domain type as `cls(**section)`, so a section's
keys and defaults are its dataclass's; profiles and policies pick the
class by `kind`. A key that belongs to another kind, a missing required
key or an out-of-range tile raises ConfigError naming the section."""

from __future__ import annotations

import functools
import importlib.resources
import json
import math
import os
from dataclasses import replace

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
from .stack import LayerRole, LayerSpec, StackConfig, TsvFarmSpec, \
    is_int, preset_stack


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
        "integer": lambda _, x: is_int(x)})
    return jsonschema.validators.extend(base, type_checker=types)(schema)


def validate_document(doc: dict) -> None:
    """Raise ConfigError with the error jsonschema.validate would raise
    (its best match), located by its path in the document."""
    error = jsonschema.exceptions.best_match(_validator().iter_errors(doc))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {path}: {error.message}")


def _build(where: str, cls, /, *args, **spec):
    """cls(*args, **spec); a missing or unexpected key (TypeError) or an
    out-of-range tile (IndexError) becomes a ConfigError naming where."""
    try:
        return cls(*args, **spec)
    except (TypeError, IndexError) as e:
        raise ConfigError(f"config invalid at {where}: {e}") from None


def _material(spec) -> Material:
    if isinstance(spec, str):
        if spec not in DEFAULT_MATERIALS:
            raise ConfigError(
                f"unknown material {spec!r}; known: "
                f"{sorted(DEFAULT_MATERIALS)}")
        return DEFAULT_MATERIALS[spec]
    return Material(**spec)


def _farm(spec: dict) -> TsvFarmSpec:
    spec = dict(spec, fill_material=_material(spec["fill_material"]))
    if "liner_material" in spec:
        spec["liner_material"] = _material(spec["liner_material"])
    return TsvFarmSpec(**spec)


def _layer(spec: dict) -> LayerSpec:
    return LayerSpec(**dict(
        spec, role=LayerRole(spec["role"]),
        material=_material(spec["material"]),
        tsv_farms=[_farm(f) for f in spec.get("tsv_farms", ())]))


def _stack(spec: dict) -> StackConfig:
    spec = dict(spec)
    preset = spec.pop("preset", None)
    layers = spec.pop("layers", None)
    if (preset is None) == (layers is None):
        raise ConfigError("stack needs exactly one of 'preset' or 'layers'")
    if preset is not None:
        return replace(preset_stack(preset), **spec)
    return _build("stack", StackConfig, layers=[_layer(l) for l in layers],
                  **spec)


# load_trace_csv takes the `path` key, resolved against the document's
# directory.
_PROFILES = {"constant": Constant, "step": Step, "periodic": Periodic,
             "trace_csv": load_trace_csv}
_POLICIES = {"throttle": ThrottlePolicy, "coreswap": CoreSwapPolicy}


def _profile(where: str, spec: dict, base_dir: str):
    spec = dict(spec)
    if "path" in spec:
        spec["path"] = os.path.join(base_dir, spec["path"])
    return _build(where, _PROFILES[spec.pop("kind")], **spec)


def _power(spec: dict | None, stack: StackConfig, base_dir: str) -> PowerMap:
    """Each assignment calls the PowerMap setter of its source key:
    `preset` apply_preset, `profile` set_tile_power (the only one that
    takes `row` and `col`), `uniform` set_uniform. A second source key is
    an unexpected keyword of that setter."""
    pmap = PowerMap.zeros(stack)
    for i, a in enumerate((spec or {}).get("assignments", ())):
        where = f"power/assignments/{i}"
        a = dict(a)
        if "preset" in a:
            setter = pmap.apply_preset
            a["preset"] = BUILTIN_PRESETS[a["preset"]]
        elif "profile" in a:
            setter = pmap.set_tile_power
            a["profile"] = _profile(f"{where}/profile", a["profile"],
                                    base_dir)
        elif "uniform" in a:
            setter = pmap.set_uniform
            a["profile"] = _profile(f"{where}/uniform", a.pop("uniform"),
                                    base_dir)
        else:
            raise ConfigError(f"config invalid at {where}: needs one of "
                              "'preset', 'uniform' or 'profile'")
        pmap = _build(where, setter, **a)
    return pmap


def _sensors(spec: dict | None) -> SensorNetwork | AutoPlace | None:
    if not spec:
        return None
    spec = dict(spec)
    placements = spec.pop("placements", None)
    if "auto_place" in spec:
        if placements is not None:
            raise ConfigError("sensors takes 'placements' or 'auto_place', "
                              "not both")
        return AutoPlace(**spec.pop("auto_place"), **spec)
    return SensorNetwork(sensors=[SensorSpec(**p, **spec)
                                  for p in placements or ()])


def scenario_from_document(doc: dict, base_dir: str = ".") -> Scenario:
    validate_document(doc)
    stack = _stack(doc["stack"])
    power = _power(doc.get("power"), stack, base_dir)
    scenario = {k: doc[k] for k in ("name", "seed") if k in doc}
    scenario.update(
        stack=stack, power=power, grid=GridSpec(**doc["grid"]),
        sensors=_sensors(doc.get("sensors")))
    # "disabled", "steady-only" and "none" leave the Scenario default.
    for key, cls in (("pdn", PdnParams), ("reliability", ReliabilityParams),
                     ("solve", SolveOptions), ("transient", TransientSpec)):
        if isinstance(doc.get(key), dict):
            scenario[key] = cls(**doc[key])
    policy = doc.get("policy")
    if isinstance(policy, dict):
        policy = dict(policy)
        if "period_steps" in policy:
            scenario["policy_period"] = policy.pop("period_steps")
        scenario["policy"] = _build("policy", _POLICIES[policy.pop("kind")],
                                    **policy)
    return Scenario(**scenario)


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
