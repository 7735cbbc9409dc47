"""Physical 3D stack description and its finite-volume discretization.

Layers are ordered bottom (package side) to top (heat sink side). Device
layers (SP, SN2, SN1, S0) carry activity-tile grids; interface slabs
(package bumps, micro-C4 bond, BEOL, TIM) are passive. The voxel grid keeps
per-slab values; its per-voxel conductivities are anisotropic: via-farm
footprints get homogenized (kxy, kz), the rest carry the layer material.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .materials import (BOND_UNDERFILL, PACKAGE_BUMPS, SILICON, TIM,
                        Material, check, is_int, is_real)
from .tsv import effective_conductivity


class LayerRole(enum.Enum):
    SP = "SP"                      # package-adjacent thinned die
    SN1 = "SN1"                    # mid-stack thinned die
    SN2 = "SN2"                    # mid-stack thinned die
    S0 = "S0"                      # heat-sink-adjacent die
    BOND_INTERFACE = "bond_interface"      # uC4 + underfill slab
    BEOL = "beol"                          # metalization slab
    PACKAGE_INTERFACE = "package_interface"  # C4 + package slab
    HEAT_SINK_INTERFACE = "heat_sink_interface"


DEVICE_ROLES = (LayerRole.SP, LayerRole.SN2, LayerRole.SN1, LayerRole.S0)


@dataclass(frozen=True)
class TsvFarmSpec:
    """Axis-aligned rectangular farm footprint in die coordinates (mm)."""

    x0_mm: float
    y0_mm: float
    x1_mm: float
    y1_mm: float
    via_diameter_um: float
    via_pitch_um: float
    fill_material: Material
    liner_thickness_um: float = 0.0
    liner_material: Material | None = None

    def __post_init__(self):
        check(self, "x0_mm y0_mm x1_mm y1_mm via_diameter_um via_pitch_um "
              "liner_thickness_um")
        if self.x1_mm <= self.x0_mm or self.y1_mm <= self.y0_mm:
            raise ValueError("farm footprint must have positive area")
        check(self, "via_diameter_um via_pitch_um", lambda v: v > 0,
              "positive")
        check(self, "liner_thickness_um", lambda v: v >= 0, ">= 0")
        if self.liner_thickness_um > 0 and self.liner_material is None:
            raise ValueError("liner material required when liner thickness > 0")
        if self.via_pitch_um <= self.via_diameter_um + 2 * self.liner_thickness_um:
            raise ValueError("via pitch must exceed diameter + 2*liner thickness")

    def overlaps(self, other: "TsvFarmSpec") -> bool:
        return not (self.x1_mm <= other.x0_mm or other.x1_mm <= self.x0_mm
                    or self.y1_mm <= other.y0_mm or other.y1_mm <= self.y0_mm)


@dataclass(frozen=True)
class LayerSpec:
    role: LayerRole
    thickness_um: float
    material: Material
    has_tsvs: bool = False
    tsv_farms: tuple[TsvFarmSpec, ...] = ()
    tile_rows: int = 4
    tile_cols: int = 8

    def __post_init__(self):
        object.__setattr__(self, "role", LayerRole(self.role))
        check(self, "thickness_um", lambda v: is_real(v) and v > 0,
              "positive and finite")
        check(self, "has_tsvs", lambda v: type(v) is bool, "a bool")
        check(self, "tile_rows tile_cols", lambda v: is_int(v) and v >= 1,
              "an integer >= 1")
        object.__setattr__(self, "tsv_farms", tuple(self.tsv_farms))

    @property
    def is_device(self) -> bool:
        return self.role in DEVICE_ROLES


@dataclass(frozen=True)
class StackConfig:
    die_width_mm: float            # x extent
    die_length_mm: float           # y extent
    layers: tuple[LayerSpec, ...]  # bottom (package) -> top (heat sink)
    ambient_c: float = 25.0
    heat_sink_h: float = 8700.0    # W/(m^2 K), water-cooled sink proxy
    package_resistance: float = 5e-4  # K m^2 / W, areal, bottom face

    def __post_init__(self):   # their ranges are validate_stack's
        check(self, "die_width_mm die_length_mm ambient_c heat_sink_h "
              "package_resistance")
        object.__setattr__(self, "layers", tuple(self.layers))

    @property
    def device_layer_indices(self) -> tuple[int, ...]:
        return tuple(i for i, l in enumerate(self.layers) if l.is_device)

    @property
    def device_layers(self) -> tuple[LayerSpec, ...]:
        return tuple(l for l in self.layers if l.is_device)


@dataclass(frozen=True)
class Violation:
    layer_index: int   # -1 for stack-level problems
    code: str
    message: str


def _device_order_ok(roles: list[LayerRole]) -> bool:
    # Bottom -> top: SN layers in any order under the one S0, on top, and
    # an SP at the bottom if there is one (a second SP is sp-count's).
    inner = roles[:-1]
    return (roles[-1:] == [LayerRole.S0] and LayerRole.S0 not in inner
            and (LayerRole.SP not in inner or inner[0] == LayerRole.SP))


def validate_stack(config: StackConfig) -> list[Violation]:
    """Check stack-level invariants; one Violation per broken rule,
    ordered by layer index (stack-level entries first)."""
    out: list[Violation] = []
    if config.die_width_mm <= 0 or config.die_length_mm <= 0:
        out.append(Violation(-1, "die-size", "die dimensions must be positive"))
    if config.heat_sink_h <= 0:
        out.append(Violation(-1, "heat-sink-h", "heat_sink_h must be positive"))
    if config.package_resistance < 0:
        out.append(Violation(-1, "package-resistance",
                             "package_resistance must be >= 0"))

    device_roles = [l.role for l in config.layers if l.is_device]
    if device_roles.count(LayerRole.S0) != 1:
        out.append(Violation(-1, "s0-count", "exactly one S0 layer required"))
    if device_roles.count(LayerRole.SP) > 1:
        out.append(Violation(-1, "sp-count", "at most one SP layer allowed"))
    if device_roles and device_roles.count(LayerRole.S0) == 1 \
            and not _device_order_ok(device_roles):
        out.append(Violation(
            -1, "device-order",
            "device layers must run SP (bottom) .. SN .. S0 (top)"))

    for i, layer in enumerate(config.layers):
        if layer.role == LayerRole.S0 and layer.has_tsvs:
            out.append(Violation(i, "s0-tsv",
                                 "S0 (heat-sink-adjacent die) carries no TSVs"))
        if layer.tsv_farms and not layer.has_tsvs:
            out.append(Violation(i, "farms-without-tsvs",
                                 "tsv_farms given but has_tsvs is false"))
        for farm in layer.tsv_farms:
            if (farm.x0_mm < 0 or farm.y0_mm < 0
                    or farm.x1_mm > config.die_width_mm
                    or farm.y1_mm > config.die_length_mm):
                out.append(Violation(i, "farm-outside-die",
                                     "TSV farm footprint exceeds die outline"))
        for a in range(len(layer.tsv_farms)):
            for b in range(a + 1, len(layer.tsv_farms)):
                if layer.tsv_farms[a].overlaps(layer.tsv_farms[b]):
                    out.append(Violation(
                        i, "farm-overlap",
                        f"TSV farms {a} and {b} overlap in layer {i}"))
    out.sort(key=lambda v: v.layer_index)
    return out


THINNED_DIE_UM = 50.0
S0_DIE_UM = 500.0        # midpoint of the 300-750 um top-die range
BOND_SLAB_UM = 20.0      # uC4 + underfill
PACKAGE_SLAB_UM = 80.0   # C4 bump height
TIM_SLAB_UM = 30.0


def preset_stack(n_layers: int) -> StackConfig:
    """Reference 2/3/4-layer stacks: 12 mm x 6 mm dies, thinned 50 um
    SP/SN layers with TSVs, thick S0 under the heat sink, bond slabs
    between dies, C4/package slab below, TIM slab on top."""
    if not (is_int(n_layers) and n_layers in (2, 3, 4)):
        raise ValueError(f"n_layers must be the integer 2, 3 or 4, got "
                         f"{n_layers!r}")

    device_order = {
        2: [LayerRole.SP, LayerRole.S0],
        3: [LayerRole.SP, LayerRole.SN1, LayerRole.S0],
        4: [LayerRole.SP, LayerRole.SN2, LayerRole.SN1, LayerRole.S0],
    }[n_layers]

    layers: list[LayerSpec] = [
        LayerSpec(LayerRole.PACKAGE_INTERFACE, PACKAGE_SLAB_UM, PACKAGE_BUMPS)
    ]
    for j, role in enumerate(device_order):
        if j > 0:
            layers.append(LayerSpec(LayerRole.BOND_INTERFACE, BOND_SLAB_UM,
                                    BOND_UNDERFILL))
        top = role == LayerRole.S0
        layers.append(LayerSpec(role, S0_DIE_UM if top else THINNED_DIE_UM,
                                SILICON, has_tsvs=not top))
    layers.append(LayerSpec(LayerRole.HEAT_SINK_INTERFACE, TIM_SLAB_UM, TIM))

    return StackConfig(die_width_mm=12.0, die_length_mm=6.0,
                       layers=tuple(layers))


@dataclass(frozen=True)
class VoxelGrid:
    """Finite-volume grid: nz slabs of ny x nx cells, z index 0 at the
    package (bottom), arrays indexed [iz, iy, ix]."""

    nx: int
    ny: int
    dx_m: float
    dy_m: float
    dz_m: np.ndarray            # (nz,) slab thicknesses, m
    slab_kxy: np.ndarray        # (nz,) host lateral conductivity per slab
    slab_kz: np.ndarray         # (nz,) host vertical conductivity per slab
    vhc: np.ndarray             # (nz,) volumetric heat capacity per slab:
                                # farms change k, not heat capacity
    slab_layer: np.ndarray      # (nz,) physical layer index per slab
    config: StackConfig = field(repr=False)
    # Lookups derived from the fields above (slabs per layer,
    # rasterization weights, sensor voxels, CSV cell text), built
    # on first use; nothing writes to a grid after discretize, so none goes
    # stale. "power" holds the last source field with the densities it was
    # built from, and power_density_field replaces it when they change.
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @property
    def nz(self) -> int:
        return len(self.dz_m)

    @property
    def n(self) -> int:
        return self.nz * self.ny * self.nx

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nz, self.ny, self.nx)

    def cached(self, key, build):
        """build() on the first call per key, the same value on every
        later one. Arrays come back read-only: every caller shares them."""
        if key not in self._cache:
            value = build()
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            self._cache[key] = value
        return self._cache[key]

    def layer_slabs(self, layer_index: int) -> np.ndarray:
        return self.cached(("slabs", layer_index), lambda: np.nonzero(
            self.slab_layer == layer_index)[0])

    @property
    def voxel_volume(self) -> np.ndarray:
        """(nz, ny, nx) voxel volumes, m^3: a read-only view that
        broadcasts the (nz,) slab volumes, so it takes no memory per
        voxel."""
        vol = (self.dx_m * self.dy_m) * self.dz_m
        return np.broadcast_to(vol[:, None, None], self.shape)

    def x_centers_m(self) -> np.ndarray:
        return (np.arange(self.nx) + 0.5) * self.dx_m

    def y_centers_m(self) -> np.ndarray:
        return (np.arange(self.ny) + 0.5) * self.dy_m

    def z_centers_m(self) -> np.ndarray:
        edges = np.concatenate([[0.0], np.cumsum(self.dz_m)])
        return 0.5 * (edges[:-1] + edges[1:])

    def farm_mask(self, farm: TsvFarmSpec) -> np.ndarray:
        """Boolean (ny, nx) mask of voxel centers inside one farm
        footprint."""
        xc = self.x_centers_m() * 1e3
        yc = self.y_centers_m() * 1e3
        in_x = (xc >= farm.x0_mm) & (xc < farm.x1_mm)
        in_y = (yc >= farm.y0_mm) & (yc < farm.y1_mm)
        return np.outer(in_y, in_x)

    def farm_lateral_mask(self, layer_index: int) -> np.ndarray:
        """Boolean (ny, nx) mask of voxel centers inside any farm footprint
        of the given layer."""
        mask = np.zeros((self.ny, self.nx), dtype=bool)
        for farm in self.config.layers[layer_index].tsv_farms:
            mask |= self.farm_mask(farm)
        return mask

    def conductivities(self, slabs) -> tuple[np.ndarray, np.ndarray]:
        """Lateral and vertical conductivities (kx, kz) of the given slabs,
        each (len(slabs), ny, nx): the slab's host value, and each farm's
        homogenized value inside its footprint (nothing else applies it)."""
        slabs = np.asarray(slabs, dtype=np.intp)
        kx, kz = (np.repeat(k[slabs], self.ny * self.nx).reshape(
            -1, self.ny, self.nx) for k in (self.slab_kxy, self.slab_kz))
        for i, layer in enumerate(self.config.layers):
            at = np.flatnonzero(self.slab_layer[slabs] == i)[:, None]
            if not at.size:   # no slab of this layer asked for
                continue
            for farm in layer.tsv_farms:
                eff = effective_conductivity(farm, layer.material)
                fmask = self.farm_mask(farm)
                kx[at, fmask], kz[at, fmask] = eff.kxy, eff.kz
        return kx, kz


@dataclass(frozen=True)
class GridSpec:
    nx: int = 32
    ny: int = 16
    sub_slabs_per_layer: int = 1

    def __post_init__(self):   # checked at load and by every discretize
        check(self, "nx ny sub_slabs_per_layer", is_int, "an integer")
        check(self, "nx ny", lambda v: v >= 2, ">= 2")
        check(self, "sub_slabs_per_layer", lambda v: v >= 1, ">= 1")


def discretize(config: StackConfig, nx: int, ny: int,
               sub_slabs_per_layer: int = 1) -> VoxelGrid:
    """Build the voxel grid: nx x ny lateral cells, each physical layer
    split into sub_slabs_per_layer equal slabs. Rejects sizes that
    `GridSpec` rejects, and invalid configs with the violation list."""
    GridSpec(nx, ny, sub_slabs_per_layer)
    violations = validate_stack(config)
    if violations:
        raise ValueError(f"invalid stack config: {violations}")

    dx = config.die_width_mm * 1e-3 / nx
    dy = config.die_length_mm * 1e-3 / ny

    sub = sub_slabs_per_layer
    layers, materials = config.layers, [l.material for l in config.layers]
    return VoxelGrid(
        nx=nx, ny=ny, dx_m=dx, dy_m=dy,
        dz_m=np.repeat([l.thickness_um * 1e-6 / sub for l in layers], sub),
        slab_kxy=np.repeat([m.kxy for m in materials], sub),
        slab_kz=np.repeat([m.kz for m in materials], sub),
        vhc=np.repeat([m.volumetric_heat_capacity for m in materials], sub),
        slab_layer=np.repeat(np.arange(len(layers)), sub), config=config)


def with_layer(config: StackConfig, index: int, **changes) -> StackConfig:
    """Return a config with layers[index] replaced field-wise."""
    layers = list(config.layers)
    layers[index] = replace(layers[index], **changes)
    return replace(config, layers=tuple(layers))
