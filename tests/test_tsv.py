import math

import pytest
from hypothesis import given, settings, strategies as st

from stackemu.materials import COPPER, Material, SILICON, SIO2, TUNGSTEN
from stackemu.stack import TsvFarmSpec
from stackemu.tsv import (EffectiveConductivity, coated_cylinder_k,
                         effective_conductivity, maxwell_eucken_cylinders)


def farm(d=5.0, pitch=10.0, fill=COPPER, liner=0.0, liner_mat=None):
    return TsvFarmSpec(0.0, 0.0, 1.0, 1.0, d, pitch, fill, liner, liner_mat)


def test_vanishing_via_recovers_base():
    eff = effective_conductivity(farm(d=1e-6, pitch=10.0), SILICON)
    assert eff.kz == pytest.approx(SILICON.k, rel=1e-9)
    assert eff.kxy == pytest.approx(SILICON.k, rel=1e-6)


def test_underflowing_via_keeps_the_host_exactly():
    """(d/2)^2 underflows to 0 below about 4e-162 um: the farm has no
    inclusion left, and Maxwell-Eucken returns the host's kxy exactly."""
    eff = effective_conductivity(farm(d=1e-170), SILICON)
    assert eff.fill_fraction == eff.liner_fraction == 0.0
    assert (eff.kz, eff.kxy) == (SILICON.kz, SILICON.kxy)


def test_copper_no_liner_arithmetic_kz():
    # choose pitch so the fill fraction is exactly 0.2
    d = 5.0
    pitch = math.sqrt(math.pi * (d / 2) ** 2 / 0.2)
    eff = effective_conductivity(farm(d=d, pitch=pitch), SILICON)
    assert eff.fill_fraction == pytest.approx(0.2, rel=1e-12)
    assert eff.kz == pytest.approx(0.2 * 400.0 + 0.8 * 150.0, rel=1e-12)


def test_tungsten_composite_blocks_lateral():
    """Independently evaluated formulas for via 5 um / pitch 10 um /
    liner 0.5 um SiO2 in silicon:
      phi_fill = pi*2.5^2/100       = 0.19634954084936207
      phi_tot  = pi*3.0^2/100       = 0.2827433388230814
      kz = phi_fill*174 + phi_liner*1.4 + (1-phi_tot)*150
         = 141.87427060149
      coated cylinder (nu = (2.5/3)^2): k_eq = 7.4428248048625...
      Maxwell-Eucken at phi_tot: kxy = 88.851407575828...
    The liner throttles lateral flow; at this liner thickness it also
    slightly outweighs tungsten's vertical advantage over silicon.
    """
    eff = effective_conductivity(
        farm(fill=TUNGSTEN, liner=0.5, liner_mat=SIO2), SILICON)
    assert eff.kxy < SILICON.k
    assert eff.kz == pytest.approx(141.87427060149, rel=1e-9)
    assert eff.kxy == pytest.approx(88.85140757582835, rel=1e-9)


def test_copper_beats_tungsten_composite():
    cu = effective_conductivity(farm(fill=COPPER), SILICON)
    w = effective_conductivity(
        farm(fill=TUNGSTEN, liner=0.5, liner_mat=SIO2), SILICON)
    assert cu.kxy > w.kxy
    assert cu.kz > w.kz


def test_lateral_monotone_in_liner_thickness():
    prev = None
    for liner in (0.0, 0.25, 0.5, 1.0, 1.5):
        eff = effective_conductivity(
            farm(fill=TUNGSTEN, liner=liner,
                 liner_mat=SIO2 if liner else None), SILICON)
        if prev is not None:
            assert eff.kxy <= prev + 1e-12
        prev = eff.kxy


def test_vertical_monotone_in_fill_conductivity():
    prev = None
    for k_fill in (50.0, 150.0, 250.0, 400.0):
        mat = Material(f"fill{k_fill}", k=k_fill,
                       volumetric_heat_capacity=3e6)
        eff = effective_conductivity(farm(fill=mat), SILICON)
        if prev is not None:
            assert eff.kz >= prev
        prev = eff.kz


@settings(max_examples=50, deadline=None)
@given(d=st.floats(0.5, 6.0), pitch_margin=st.floats(1.2, 4.0),
       liner=st.floats(0.0, 1.0), k_fill=st.floats(1.0, 500.0),
       k_liner=st.floats(0.5, 50.0))
def test_mixture_bounds(d, pitch_margin, liner, k_fill, k_liner):
    """Both axes stay within the Wiener (series/parallel) bounds of the
    constituents at the same fractions."""
    pitch = (d + 2 * liner) * pitch_margin
    fill = Material("f", k=k_fill, volumetric_heat_capacity=1e6)
    lin = Material("l", k=k_liner, volumetric_heat_capacity=1e6) \
        if liner > 0 else None
    eff = effective_conductivity(
        farm(d=d, pitch=pitch, fill=fill, liner=liner, liner_mat=lin),
        SILICON)
    phi_f, phi_l = eff.fill_fraction, eff.liner_fraction
    phi_b = 1.0 - phi_f - phi_l
    ks = [k_fill, k_liner if liner > 0 else k_fill, SILICON.k]
    fr = [phi_f, phi_l, phi_b]
    arith = sum(f * k for f, k in zip(fr, ks))
    harm = 1.0 / sum(f / k for f, k in zip(fr, ks))
    for k_eff in (eff.kz, eff.kxy):
        assert harm * (1 - 1e-9) <= k_eff <= arith * (1 + 1e-9)
        assert min(ks) * (1 - 1e-9) <= k_eff <= max(ks) * (1 + 1e-9)


@pytest.mark.parametrize("call, fragment", [
    (lambda: coated_cylinder_k(400.0, 1.4, 0.0, 1.0),
     "need 0 < r_core <= r_outer"),
    (lambda: coated_cylinder_k(400.0, 1.4, 2.0, 1.0),
     "need 0 < r_core <= r_outer"),
    (lambda: maxwell_eucken_cylinders(150.0, 400.0, 1.0),
     "inclusion fraction must be in [0, 1)"),
    (lambda: maxwell_eucken_cylinders(150.0, 400.0, -0.1),
     "inclusion fraction must be in [0, 1)"),
    (lambda: EffectiveConductivity(0.0, 150.0, 0.1, 0.0),
     "effective conductivities must be positive"),
    (lambda: EffectiveConductivity(150.0, -1.0, 0.1, 0.0),
     "effective conductivities must be positive"),
], ids=["r-core-zero", "r-core-outside", "phi-one", "phi-negative",
        "kz", "kxy"])
def test_tsv_rules(call, fragment):
    with pytest.raises(ValueError) as exc:
        call()
    assert fragment in str(exc.value)
