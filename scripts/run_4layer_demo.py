#!/usr/bin/env python3
"""Steady-state demo on the 4-layer preset: uniform power on every
device layer, then a per-layer temperature table showing the
distance-from-heat-sink ordering."""

import argparse

from stackemu.power import Constant, PowerMap
from stackemu.scenario import GridSpec, Scenario, run_scenario
from stackemu.solver import SolveOptions
from stackemu.stack import preset_stack


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--power", type=float, default=10.0,
                    help="areal power density per device layer, W/cm^2")
    ap.add_argument("--nx", type=int, default=32)
    ap.add_argument("--ny", type=int, default=16)
    args = ap.parse_args()

    cfg = preset_stack(4)
    pmap = PowerMap.zeros(cfg)
    for ordinal in range(len(cfg.device_layer_indices)):
        pmap = pmap.set_uniform(ordinal, Constant(args.power))

    report = run_scenario(Scenario(
        name="4layer-demo", stack=cfg, power=pmap,
        grid=GridSpec(nx=args.nx, ny=args.ny),
        solve=SolveOptions(tolerance=1e-10)))

    print(f"total power: {report.total_power_w:.2f} W, "
          f"ambient {cfg.ambient_c} C")
    print(f"{'layer':>5} {'role':<22} {'mean C':>8} {'max C':>8}")
    for s in report.steady_stats:
        print(f"{s.layer_index:>5} {s.role:<22} {s.mean:>8.2f} {s.max:>8.2f}")


if __name__ == "__main__":
    main()
