"""The shared lattice builder against the coordinate-list (COO) assembly
it replaced, kept here as the reference: the thermal and PDN matrices
must be equal bit for bit (indptr, indices and data)."""

import numpy as np
import pytest
import scipy.sparse as sp

from stackemu.pdn import PdnParams, build_pdn
from stackemu.solver import _boundary_conductance, _face_conductance, assemble
from stackemu.stack import discretize, preset_stack
from stackemu.tsv import effective_conductivity

from conftest import column_stack, random_farm_stack, random_stack


def coo_lattice(idx, faces, ground):
    """Reference assembly: both directions of every (i, j, g) face set as
    COO entries, converted to CSR, row sums on the diagonal plus ground."""
    rows, cols, vals = [], [], []
    for i_idx, j_idx, g in faces:
        i = i_idx.reshape(-1)
        j = j_idx.reshape(-1)
        gg = np.broadcast_to(g, i_idx.shape).reshape(-1)
        rows.extend([i, j])
        cols.extend([j, i])
        vals.extend([-gg, -gg])
    n = idx.size
    if rows:
        off = sp.coo_matrix((np.concatenate(vals),
                             (np.concatenate(rows), np.concatenate(cols))),
                            shape=(n, n)).tocsr()
    else:
        off = sp.csr_matrix((n, n))
    diag = -np.asarray(off.sum(axis=1)).reshape(-1) + ground.reshape(-1)
    return (off + sp.diags(diag)).tocsr()


def coo_thermal_matrix(grid):
    nz, ny, nx = grid.shape
    idx = np.arange(grid.n).reshape(grid.shape)
    dx, dy, dz = grid.dx_m, grid.dy_m, grid.dz_m
    kx, kz = grid.conductivities(range(nz))
    faces = []
    if nx > 1:
        faces.append((idx[:, :, :-1], idx[:, :, 1:], _face_conductance(
            kx[:, :, :-1], kx[:, :, 1:], dx, dx,
            dy * dz[:, None, None])))
    if ny > 1:
        faces.append((idx[:, :-1, :], idx[:, 1:, :], _face_conductance(
            kx[:, :-1, :], kx[:, 1:, :], dy, dy,
            dx * dz[:, None, None])))
    if nz > 1:
        faces.append((idx[:-1], idx[1:], _face_conductance(
            kz[:-1], kz[1:], dz[:-1, None, None],
            dz[1:, None, None], dx * dy)))
    return coo_lattice(idx, faces, _boundary_conductance(grid, kz))


def coo_pdn_matrix(config, params):
    device = config.device_layers
    n_planes, nx, ny = len(device), params.nx, params.ny
    idx = np.arange(n_planes * ny * nx).reshape(n_planes, ny, nx)
    pitch_x = config.die_width_mm / nx
    pitch_y = config.die_length_mm / ny
    faces = []
    if nx > 1:
        faces.append((idx[:, :, :-1], idx[:, :, 1:],
                      1.0 / (params.sheet_ohm_sq * pitch_x / pitch_y)))
    if ny > 1:
        faces.append((idx[:, :-1, :], idx[:, 1:, :],
                      1.0 / (params.sheet_ohm_sq * pitch_y / pitch_x)))
    for p, layer in enumerate(device[:-1]):
        if layer.has_tsvs:
            faces.append((idx[p], idx[p + 1],
                          1.0 / (params.r_uc4 + params.r_tsv)))
    supply = np.zeros(idx.shape)
    supply[0] = 1.0 / (params.r_c4 + params.r_pkg)
    return coo_lattice(idx, faces, supply)


def reference_conductivities(grid):
    """kx, kz with every farm footprint masked by its own in_x/in_y code."""
    kx = np.empty(grid.shape)
    kz = np.empty(grid.shape)
    xc = grid.x_centers_m() * 1e3
    yc = grid.y_centers_m() * 1e3
    for i, layer in enumerate(grid.config.layers):
        slabs = grid.layer_slabs(i)
        kx[slabs] = layer.material.kxy
        kz[slabs] = layer.material.kz
        for farm in layer.tsv_farms:
            eff = effective_conductivity(farm, layer.material)
            in_x = (xc >= farm.x0_mm) & (xc < farm.x1_mm)
            in_y = (yc >= farm.y0_mm) & (yc < farm.y1_mm)
            fmask = np.outer(in_y, in_x)
            for iz in slabs:
                kx[iz][fmask] = eff.kxy
                kz[iz][fmask] = eff.kz
    return kx, kz


def assert_same_csr(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("seed", range(20))
def test_thermal_matrix_matches_coo_reference(seed):
    rng = np.random.default_rng(seed)
    for cfg, grid in (random_stack(rng), random_farm_stack(rng)):
        kx, kz = reference_conductivities(grid)
        got_kx, got_kz = grid.conductivities(range(grid.nz))
        assert kx.tobytes() == got_kx.tobytes()
        assert kz.tobytes() == got_kz.tobytes()
        assert_same_csr(assemble(grid, cfg).G, coo_thermal_matrix(grid))


def test_one_slab_column_matrix_matches_coo_reference():
    cfg = column_stack()
    grid = discretize(cfg, 3, 2, 1)
    assert grid.nz == 1
    assert_same_csr(assemble(grid, cfg).G, coo_thermal_matrix(grid))


@pytest.mark.parametrize("config", [column_stack(), preset_stack(2),
                                    preset_stack(3), preset_stack(4)],
                         ids=["1plane", "2L", "3L", "4L"])
def test_pdn_matrix_matches_coo_reference(config):
    for nx in range(1, 13):
        for ny in range(1, 9):
            params = PdnParams(nx=nx, ny=ny)
            assert_same_csr(build_pdn(config, params).G,
                            coo_pdn_matrix(config, params))
