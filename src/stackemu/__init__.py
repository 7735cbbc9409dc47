"""stackemu: software twin of a multi-layer 3D chip-stack emulation
vehicle — thermal fields, supply-noise maps and lifetime-reliability
screening for configurable stacking scenarios."""

__version__ = "0.2.7"
