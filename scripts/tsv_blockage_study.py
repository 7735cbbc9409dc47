#!/usr/bin/env python3
"""Via-farm material study on a thinned strip die: peak device-layer
temperature with no farm, a copper farm, and a tungsten+oxide-liner farm
next to a 1 W/cm^2 hotspot tile. The tungsten composite blocks lateral
spreading and raises the peak; copper lowers it."""

import argparse

from stackemu.materials import COPPER, Material, SILICON, SIO2, TUNGSTEN
from stackemu.power import Constant, PowerMap
from stackemu.scenario import GridSpec, Scenario, run_scenario
from stackemu.solver import SolveOptions
from stackemu.stack import LayerRole, LayerSpec, StackConfig, TsvFarmSpec
from stackemu.tsv import effective_conductivity


def peak_with_farm(farm, bond_k, nx, ny):
    weak = Material("weak_bond", k=bond_k, volumetric_heat_capacity=1.8e6)
    layers = (
        LayerSpec(LayerRole.PACKAGE_INTERFACE, 80.0, weak),
        LayerSpec(LayerRole.SP, 10.0, SILICON, has_tsvs=farm is not None,
                  tsv_farms=(farm,) if farm else (),
                  tile_rows=1, tile_cols=6),
        LayerSpec(LayerRole.BOND_INTERFACE, 20.0, weak),
        LayerSpec(LayerRole.S0, 500.0, SILICON, tile_rows=1, tile_cols=6),
    )
    cfg = StackConfig(6.0, 1.0, layers, ambient_c=25.0, heat_sink_h=8700.0,
                      package_resistance=1.0)
    pmap = PowerMap.zeros(cfg).set_tile_power(0, 0, 0, Constant(1.0))
    report = run_scenario(Scenario(
        name="tsv-blockage", stack=cfg, power=pmap,
        grid=GridSpec(nx=nx, ny=ny), solve=SolveOptions(tolerance=1e-10)))
    return next(s.max for s in report.steady_stats if s.layer_index == 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bond-k", type=float, default=0.001,
                    help="bond/underfill conductivity, W/(m K)")
    ap.add_argument("--nx", type=int, default=48)
    ap.add_argument("--ny", type=int, default=8)
    args = ap.parse_args()

    farms = {
        "no farm": None,
        "copper": TsvFarmSpec(1.0, 0.0, 2.0, 1.0, 5.0, 10.0, COPPER),
        "tungsten+liner": TsvFarmSpec(1.0, 0.0, 2.0, 1.0, 5.0, 10.0,
                                      TUNGSTEN, 0.5, SIO2),
    }
    print(f"{'farm':<16} {'kz':>8} {'kxy':>8} {'peak C':>8}")
    results = {}
    for name, farm in farms.items():
        if farm is None:
            kz = kxy = SILICON.k
        else:
            eff = effective_conductivity(farm, SILICON)
            kz, kxy = eff.kz, eff.kxy
        peak = peak_with_farm(farm, args.bond_k, args.nx, args.ny)
        results[name] = peak
        print(f"{name:<16} {kz:>8.1f} {kxy:>8.1f} {peak:>8.2f}")
    print(f"\ntungsten-vs-copper peak gap: "
          f"{results['tungsten+liner'] - results['copper']:.2f} K")


if __name__ == "__main__":
    main()
