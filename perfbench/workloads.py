"""Scenario documents for the benchmark workloads, generated from a seed.

The program under test sees only these documents (written as YAML and read
back through ``config.load_scenario``), never the seed. Randomness comes
from ``random.Random(seed)`` so that the parent process needs no numpy.
"""

from __future__ import annotations

import copy
import random

# Content of scenarios/demo_2layer.yaml, kept here so that the benchmark
# inputs do not move when the demo scenario is edited.
DEMO = {
    "name": "demo-2layer",
    "seed": 42,
    "stack": {"preset": 2},
    "grid": {"nx": 32, "ny": 16},
    "power": {"assignments": [
        {"layer": 0, "preset": "cpu_core"},
        {"layer": 1, "preset": "cache"},
        {"layer": 0, "row": 1, "col": 3,
         "profile": {"kind": "periodic", "p_low": 5.0, "p_high": 60.0,
                     "period": 0.1, "duty": 0.5}},
    ]},
    "sensors": {"noise_sigma": 0.5, "quantization_step": 0.25,
                "auto_place": {"k": 6}},
    "pdn": {},
    "reliability": {},
    "transient": {"t_end": 0.5, "dt": 0.005, "sample_stride": 10},
    "policy": {"kind": "throttle", "trigger_t": 55.0, "release_t": 50.0,
               "throttle_factor": 0.6, "period_steps": 5},
}

SWEEP_DOCS = 48


def demo() -> dict:
    return copy.deepcopy(DEMO)


def transient_dtm(seed: int) -> list[dict]:
    """The demo at 128x64 (n = 40,960): 100 backward-Euler steps under a
    throttle policy. The seed sets the scenario seed (sensor noise)."""
    doc = demo()
    doc["name"] = f"transient-dtm-{seed}"
    doc["seed"] = seed
    doc["grid"] = {"nx": 128, "ny": 64}
    return [doc]


def _layer(role, thickness_um, material, **extra):
    return {"role": role, "thickness_um": thickness_um,
            "material": material, **extra}


def _farms(rng: random.Random) -> list[dict]:
    """One Cu farm in the left half of the 12 x 6 mm die and one
    W + SiO2-liner farm in the right half; 2 x 2 mm each, seeded offsets."""
    def box(x_lo):
        x0 = round(x_lo + rng.uniform(0.0, 3.0), 3)
        y0 = round(rng.uniform(0.5, 3.5), 3)
        return {"x0_mm": x0, "y0_mm": y0, "x1_mm": x0 + 2.0,
                "y1_mm": y0 + 2.0}
    cu = {**box(0.5), "via_diameter_um": 5.0, "via_pitch_um": 10.0,
          "fill_material": "copper"}
    w = {**box(6.5), "via_diameter_um": 5.0, "via_pitch_um": 10.0,
         "fill_material": "tungsten", "liner_thickness_um": 0.5,
         "liner_material": "sio2"}
    return [cu, w]


def steady_tsv(seed: int) -> list[dict]:
    """An explicit 4-layer stack with the preset geometry and TSV farms on
    SP, SN2 and SN1, steady only, at 256x128x9 (n = 294,912)."""
    rng = random.Random(seed)
    thinned = dict(has_tsvs=True)
    layers = [
        _layer("package_interface", 80.0, "package_bumps"),
        _layer("SP", 50.0, "silicon", tsv_farms=_farms(rng), **thinned),
        _layer("bond_interface", 20.0, "bond_underfill"),
        _layer("SN2", 50.0, "silicon", tsv_farms=_farms(rng), **thinned),
        _layer("bond_interface", 20.0, "bond_underfill"),
        _layer("SN1", 50.0, "silicon", tsv_farms=_farms(rng), **thinned),
        _layer("bond_interface", 20.0, "bond_underfill"),
        _layer("S0", 500.0, "silicon"),
        _layer("heat_sink_interface", 30.0, "tim"),
    ]
    return [{
        "name": f"steady-tsv-{seed}",
        "seed": seed,
        "stack": {"die_width_mm": 12.0, "die_length_mm": 6.0,
                  "layers": layers},
        "grid": {"nx": 256, "ny": 128},
        "power": {"assignments": [
            {"layer": 0, "preset": "cpu_core"},
            {"layer": 1, "preset": "gpu_sm"},
            {"layer": 2, "preset": "cache"},
            {"layer": 3, "preset": "accelerator"},
        ]},
        "sensors": {"noise_sigma": 0.5, "quantization_step": 0.25,
                    "auto_place": {"k": 8}},
        "pdn": {"nx": 256, "ny": 128},
        "reliability": {},
        "transient": "steady-only",
    }]


def sweep_small(seed: int) -> list[dict]:
    """48 demo variants at the native 32x16 (n = 2,560), each with its own
    scenario seed, hotspot power and throttle trigger; 20 steps each."""
    rng = random.Random(seed)
    docs = []
    for i in range(SWEEP_DOCS):
        doc = demo()
        doc["name"] = f"sweep-{seed}-{i:02d}"
        doc["seed"] = rng.randrange(2 ** 31)
        doc["power"]["assignments"][2]["profile"]["p_high"] = round(
            rng.uniform(30.0, 90.0), 3)
        trigger = round(rng.uniform(42.0, 50.0), 3)
        doc["policy"].update(trigger_t=trigger, release_t=trigger - 4.0,
                             period_steps=2)
        doc["transient"] = {"t_end": 0.5, "dt": 0.025, "sample_stride": 2}
        docs.append(doc)
    return docs


WORKLOADS = {
    "transient_dtm": transient_dtm,
    "steady_tsv": steady_tsv,
    "sweep_small": sweep_small,
}
