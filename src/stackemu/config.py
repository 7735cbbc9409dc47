"""YAML scenario configuration, mapped one-to-one onto the domain types.
Units are fixed: um, mm, W/(m K), W/cm^2, deg C, seconds, ohms, farads.

`validate_document` checks only the document's shape; every value rule
is the type's. Each section becomes its type as `cls(**section)`, so its
keys and defaults are its dataclass's, and profiles and policies pick
the class by `kind`. Any error names the section, or the key at fault."""

from __future__ import annotations

import os
from dataclasses import fields, replace

import yaml

from .materials import DEFAULT_MATERIALS, Material
from .pdn import PdnParams
from .power import (Constant, Periodic, PowerMap, Step, BUILTIN_PRESETS,
                    load_trace_csv)
from .reliability import ReliabilityParams
from .scenario import (AutoPlace, CoreSwapPolicy, GridSpec, Scenario,
                       SolveOptions, ThrottlePolicy, TransientSpec)
from .sensors import SensorNetwork, SensorSpec
from .stack import LayerSpec, StackConfig, TsvFarmSpec, preset_stack


class ConfigError(ValueError):
    pass


# Where the document holds a mapping ({...}, with the shapes of the keys
# it names) or a list ([the shape of every item]). A pair is a sentinel
# string (str: any name) or that shape; None is a value.
_MATERIAL = (str, {})
_SHAPE = {
    "name": None, "seed": None, "grid": {}, "solve": {},
    "stack": {"layers": [{"material": _MATERIAL, "tsv_farms": [
        {"fill_material": _MATERIAL, "liner_material": _MATERIAL}]}]},
    "power": {"assignments": [{"uniform": {}, "profile": {}}]},
    "sensors": {"placements": [{}], "auto_place": {}},
    "pdn": ("disabled", {}), "reliability": ("disabled", {}),
    "transient": ("steady-only", {}), "policy": ("none", {}),
}
_REQUIRED = {"": ("name", "stack", "grid"), "grid": ("nx", "ny")}


def _check_shape(node, shape, path: str) -> None:
    if isinstance(shape, tuple):
        if node == shape[0] or shape[0] is str and isinstance(node, str):
            return
        shape = shape[1]
    if shape is None:
        return
    if not isinstance(node, type(shape)):
        raise ConfigError(f"config invalid at {path}: expected a "
                          f"{type(shape).__name__}, got {node!r}")
    missing = [key for key in _REQUIRED.get(path, ()) if key not in node]
    if missing:
        raise ConfigError(f"config invalid at {path or '<root>'}: missing "
                          f"keys {missing}")
    is_list = isinstance(shape, list)
    for key, value in enumerate(node) if is_list else node.items():
        _check_shape(value, shape[0] if is_list else shape.get(key),
                     f"{path}/{key}".lstrip("/"))


def validate_document(doc: dict) -> None:
    """Raise ConfigError unless doc has a scenario document's shape: only
    the known top-level keys, name, stack and grid (with nx and ny) among
    them, and a mapping, a list or a sentinel wherever one belongs."""
    unknown = [key for key in doc if key not in _SHAPE]
    if unknown:
        raise ConfigError(f"config invalid at <root>: unknown keys {unknown}")
    _check_shape(doc, _SHAPE, "")


_PATHS = {"policy_period": "policy/period_steps"}   # the one renamed key


def _build(where: str, cls, spec: dict, /, *args, **extra):
    """cls(*args, **spec, **extra). A TypeError, ValueError, KeyError or
    IndexError becomes a ConfigError at where, or at where/key when its
    message starts with "<key> must" for a key of spec, as each type's
    field rules (`stack.check`) word it."""
    try:
        return cls(*args, **spec, **extra)
    except (TypeError, ValueError, KeyError, IndexError) as e:
        key = str(e).split(" must ", 1)[0]
        if key in spec:
            where = "/".join(filter(None, (where, _PATHS.get(key, key))))
        raise ConfigError(f"config invalid at {where or '<root>'}: {e}") \
            from None


def _pick(where: str, table: dict, name):
    """table[name], or a ConfigError at where naming the choices."""
    if isinstance(name, str) and name in table:
        return table[name]
    raise ConfigError(f"config invalid at {where}: {name!r} is not one of "
                      f"{sorted(table)}")


def _material(where: str, spec) -> Material:
    """A default material's name, or a Material's fields."""
    if isinstance(spec, str):
        return _pick(where, DEFAULT_MATERIALS, spec)
    return _build(where, Material, spec)


def _materials(where: str, spec: dict) -> dict:
    """spec with the material of each `*material` key built."""
    return {key: _material(f"{where}/{key}", value)
            if key.endswith("material") else value
            for key, value in spec.items()}


def _layer(where: str, spec: dict) -> LayerSpec:
    spec = _materials(where, spec)
    spec["tsv_farms"] = [
        _build(f"{where}/tsv_farms/{j}", TsvFarmSpec,
               _materials(f"{where}/tsv_farms/{j}", farm))
        for j, farm in enumerate(spec.get("tsv_farms", ()))]
    return _build(where, LayerSpec, spec)


def _stack(spec: dict) -> StackConfig:
    spec = dict(spec)
    if ("preset" in spec) == ("layers" in spec):
        raise ConfigError("config invalid at stack: needs exactly one of "
                          "'preset' or 'layers'")
    if "preset" in spec:
        preset = _build("stack/preset", preset_stack, {}, spec.pop("preset"))
        return _build("stack", replace, spec, preset)
    layers = [_layer(f"stack/layers/{i}", layer)
              for i, layer in enumerate(spec.pop("layers"))]
    return _build("stack", StackConfig, spec, layers=layers)


# load_trace_csv takes the `path` key, resolved against the document's
# directory.
_PROFILES = {"constant": Constant, "step": Step, "periodic": Periodic,
             "trace_csv": load_trace_csv}
_POLICIES = {"throttle": ThrottlePolicy, "coreswap": CoreSwapPolicy}


def _profile(where: str, spec: dict, base_dir: str):
    """The profile of spec; any error of its own rules, or of a row of
    its trace file, names where."""
    spec = dict(spec)
    cls = _pick(f"{where}/kind", _PROFILES, spec.pop("kind", None))
    if "path" in spec:
        spec["path"] = _build(f"{where}/path", os.path.join, {}, base_dir,
                              spec["path"])
    return _build(where, cls, spec)


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
            a["preset"] = _pick(f"{where}/preset", BUILTIN_PRESETS,
                                a["preset"])
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
        pmap = _build(where, setter, a)
    return pmap


def _sensors(spec: dict | None) -> SensorNetwork | AutoPlace | None:
    """Every sensor takes the section's other keys, AutoPlace's fields
    after k; a placement or auto_place that repeats one is refused."""
    if not spec:
        return None
    spec = dict(spec)
    placements, auto = spec.pop("placements", None), spec.pop("auto_place",
                                                              None)
    template = _build("sensors", SensorSpec, spec, 0, 0.0, 0.0)
    shared = {f.name: getattr(template, f.name) for f in fields(AutoPlace)[1:]}
    if auto is None:
        return _build("sensors/placements", SensorNetwork, {}, [
            _build(f"sensors/placements/{i}", SensorSpec, p, **shared)
            for i, p in enumerate(placements or ())])
    if placements is not None:
        raise ConfigError("config invalid at sensors: takes 'placements' "
                          "or 'auto_place', not both")
    return _build("sensors/auto_place", AutoPlace, auto, **shared)


def scenario_from_document(doc: dict, base_dir: str = ".") -> Scenario:
    validate_document(doc)
    stack = _stack(doc["stack"])
    scenario = {k: doc[k] for k in ("name", "seed") if k in doc}
    scenario.update(stack=stack, grid=_build("grid", GridSpec, doc["grid"]),
                    sensors=_sensors(doc.get("sensors")))
    # "disabled", "steady-only" and "none" leave the Scenario default.
    for key, cls in (("pdn", PdnParams), ("reliability", ReliabilityParams),
                     ("solve", SolveOptions), ("transient", TransientSpec)):
        if isinstance(doc.get(key), dict):
            scenario[key] = _build(key, cls, doc[key])
    policy = doc.get("policy")
    if isinstance(policy, dict):
        policy = dict(policy)
        if "period_steps" in policy:
            scenario["policy_period"] = policy.pop("period_steps")
        scenario["policy"] = _build("policy", _pick(
            "policy/kind", _POLICIES, policy.pop("kind", None)), policy)
    # Last, so a trace file is read only once every other section passed.
    scenario["power"] = _power(doc.get("power"), stack, base_dir)
    return _build("", Scenario, scenario)


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
