from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from stackemu.materials import Material, SILICON
from stackemu.solver import Correction
from stackemu.stack import LayerRole, LayerSpec, StackConfig, discretize


@pytest.fixture
def single_layer_stack():
    """One 500 um silicon S0 die, no interface slabs."""
    layers = (LayerSpec(LayerRole.S0, 500.0, SILICON),)
    return StackConfig(die_width_mm=2.0, die_length_mm=2.0, layers=layers)


def column_stack(k=100.0, vhc=1.6e6, thickness_um=400.0, ambient=25.0,
                 h=500.0, package_resistance=1.0e-2):
    """Laterally uniform single-material stack for 1D-style checks."""
    mat = Material("col", k=k, volumetric_heat_capacity=vhc)
    layers = (LayerSpec(LayerRole.S0, thickness_um, mat),)
    return StackConfig(die_width_mm=1.0, die_length_mm=1.0, layers=layers,
                       ambient_c=ambient, heat_sink_h=h,
                       package_resistance=package_resistance)


def random_stack(rng: np.random.Generator, max_unknowns=1000):
    """Random small multi-layer stack plus grid for oracle comparisons."""
    from stackemu.stack import preset_stack

    n_layers = int(rng.integers(2, 5))
    cfg = preset_stack(n_layers)
    n_slabs = len(cfg.layers)
    while True:
        nx = int(rng.integers(2, 8))
        ny = int(rng.integers(2, 6))
        sub = int(rng.integers(1, 3))
        if nx * ny * n_slabs * sub <= max_unknowns:
            break
    grid = discretize(cfg, nx, ny, sub)
    return cfg, grid


def random_power_map(rng: np.random.Generator, cfg):
    from stackemu.power import Constant, PowerMap

    pmap = PowerMap.zeros(cfg)
    for layer in range(pmap.n_device_layers):
        rows, cols = pmap.tile_shape(layer)
        for _ in range(int(rng.integers(1, 5))):
            r = int(rng.integers(0, rows))
            c = int(rng.integers(0, cols))
            pmap = pmap.set_tile_power(layer, r, c,
                                       Constant(float(rng.uniform(0, 20))))
    return pmap


def random_farm_stack(rng: np.random.Generator, max_unknowns=1000):
    """random_stack with TSV farms: every die that carries TSVs gets a Cu
    farm in the left half of the die and a W farm with an SiO2 liner in
    the right half, each aligned to whole cells so that every farm covers
    at least one voxel column."""
    from stackemu.materials import COPPER, SIO2, TUNGSTEN
    from stackemu.stack import TsvFarmSpec, preset_stack, with_layer

    n_layers = int(rng.integers(2, 5))
    cfg = preset_stack(n_layers)
    n_slabs = len(cfg.layers)
    while True:
        nx = int(rng.integers(2, 9))
        ny = int(rng.integers(2, 6))
        sub = int(rng.integers(1, 3))
        if nx * ny * n_slabs * sub <= max_unknowns:
            break

    w, l = cfg.die_width_mm, cfg.die_length_mm

    def farm(ix_lo, ix_hi, *spec):
        """Farm over cells [x0, x1) x [y0, y1) with ix_lo <= x0 < ix_hi."""
        x0 = int(rng.integers(ix_lo, ix_hi))
        x1 = int(rng.integers(x0 + 1, ix_hi + 1))
        y0 = int(rng.integers(0, ny))
        y1 = int(rng.integers(y0 + 1, ny + 1))
        return TsvFarmSpec(w * x0 / nx, l * y0 / ny, w * x1 / nx, l * y1 / ny,
                           *spec)

    for index in cfg.device_layer_indices:
        if not cfg.layers[index].has_tsvs:
            continue
        d_cu = float(rng.uniform(2.0, 8.0))
        d_w = float(rng.uniform(2.0, 8.0))
        liner = float(rng.uniform(0.1, 1.0))
        farms = (farm(0, nx // 2, d_cu, d_cu + float(rng.uniform(0.5, 10.0)),
                      COPPER),
                 farm(nx // 2, nx, d_w,
                      d_w + 2 * liner + float(rng.uniform(0.5, 10.0)),
                      TUNGSTEN, liner, SIO2))
        cfg = with_layer(cfg, index, tsv_farms=farms)
    grid = discretize(cfg, nx, ny, sub)
    return cfg, grid


def correction_matrix(correction):
    """A solver Correction's E as a scipy CSR matrix over its voxels."""
    k, m = correction.data.shape[0], len(correction.diag)
    return sp.csr_matrix((correction.data.reshape(-1),
                          (np.tile(np.arange(m), k),
                           correction.cols.reshape(-1))), shape=(m, m))


def correction_from_matrix(index, E):
    """A solver Correction of the scipy matrix E over the voxels index:
    each row's entries in column order, padded with zeros in its own
    column."""
    E = sp.csr_matrix(E)
    E.sum_duplicates()
    m, counts = E.shape[0], np.diff(E.indptr)
    rows = np.repeat(np.arange(m), counts)
    slot = np.arange(E.nnz) - E.indptr[rows]
    cols = np.tile(np.arange(m), (counts.max(initial=0), 1))
    data = np.zeros(cols.shape)
    cols[slot, rows], data[slot, rows] = E.indices, E.data
    return Correction(index, cols, data, E.diagonal())


class Counted:
    """A layered operator that counts, by name, its true residuals b - A x
    ("matvec"), full-size transforms ("forward", "inverse"), Thomas sweeps
    ("solve_modes") and transforms at E's voxels ("gather", "scatter")."""

    def __init__(self, inner):
        self.inner, self.counts = inner, Counter()

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name not in ("forward", "inverse", "solve_modes", "gather",
                        "scatter"):
            return attr

        def counted(*args):
            self.counts[name] += 1
            return attr(*args)
        return counted

    def residual(self, *args):
        self.counts["matvec"] += 1
        return self.inner.residual(*args)
