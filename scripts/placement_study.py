#!/usr/bin/env python3
"""Sensor-count sweep: greedy hotspot-tracking placement on the 2-layer
preset, trained on steady fields from random power maps, reporting mean
hotspot-tracking error as the budget K grows."""

import argparse

import numpy as np

from stackemu.power import Constant, PowerMap, power_density_field
from stackemu.sensors import (place_sensors_greedy, placement_objective,
                              tile_center_candidates)
from stackemu.solver import SolveOptions, assemble, solve_steady
from stackemu.stack import discretize, preset_stack


def random_fields(cfg, grid, system, n, rng):
    fields = []
    for _ in range(n):
        pmap = PowerMap.zeros(cfg)
        for ordinal in range(len(cfg.device_layer_indices)):
            rows, cols = pmap.tile_shape(ordinal)
            for _ in range(rng.integers(1, 4)):
                pmap = pmap.set_tile_power(
                    ordinal, int(rng.integers(0, rows)),
                    int(rng.integers(0, cols)),
                    Constant(float(rng.uniform(10, 60))))
        fields.append(solve_steady(
            system, power_density_field(pmap, grid, 0.0),
            SolveOptions(tolerance=1e-9)))
    return fields


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fields", type=int, default=8,
                    help="number of training power maps")
    ap.add_argument("--max-k", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = preset_stack(2)
    grid = discretize(cfg, 32, 16, 1)
    system = assemble(grid, cfg)
    rng = np.random.default_rng(args.seed)
    fields = random_fields(cfg, grid, system, args.fields, rng)
    candidates = tile_center_candidates(cfg)

    print(f"{len(candidates)} candidate sites, "
          f"{args.fields} training fields")
    print(f"{'K':>3} {'mean err K':>11}  placement (layer, x_mm, y_mm)")
    for k in range(1, args.max_k + 1):
        chosen = place_sensors_greedy(candidates, k, fields)
        err = placement_objective(chosen, fields)
        newest = chosen[-1]
        print(f"{k:>3} {err:>11.4f}  += layer {newest[0]} "
              f"({newest[1]:.2f}, {newest[2]:.2f})")


if __name__ == "__main__":
    main()
