"""Per-antenna complex far-field maps for a linear array.

A field map stores one complex sample (numpy complex128: real/imag pair) per
antenna per grid direction.  The synthetic free-space model places the array
on the z axis with half-wavelength-style progressive phase and gives every
element the same cos^q power envelope around a common boresight, with a
small constant back-lobe floor so no direction is exactly null.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .sphere import SphericalGrid

__all__ = [
    "ArrayConfig",
    "AntennaFieldMap",
    "synth_freespace_field",
    "require_finite",
    "search_power_overflows",
]


def require_finite(config) -> None:
    """Refuse a NaN or infinite number in any field of a config dataclass."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


def search_power_overflows(n_antennas: int, peak: float) -> bool:
    """Whether a search of fields whose largest ``|E_i|`` is ``peak`` can
    overflow: it squares ``|sum_i |E_i| E_i|^2 <= (N * peak**2)**2``."""
    power = n_antennas * (peak * peak)
    return not math.isfinite(power * power)


@dataclass(frozen=True)
class ArrayConfig:
    """Geometry and element model of the synthetic array.

    Attributes
    ----------
    n_antennas:
        Number of array elements (>= 1), indexed 0..N-1 along the z axis.
    element_spacing:
        Inter-element spacing in wavelengths.
    boresight_theta, boresight_phi:
        Peak direction of the common element envelope, degrees.
    element_exponent:
        Exponent q of the cos^q *power* envelope; q = 0 gives an isotropic
        element.
    peak_element_gain_db:
        Elemental gain at boresight, dB.
    backlobe_floor_db:
        Envelope floor relative to the peak, dB (must be negative); keeps
        the field nonzero behind the array.
    """

    n_antennas: int = 4
    element_spacing: float = 0.5
    boresight_theta: float = 90.0
    boresight_phi: float = 270.0
    element_exponent: float = 2.0
    peak_element_gain_db: float = 11.0
    backlobe_floor_db: float = -30.0

    def __post_init__(self):
        require_finite(self)
        if self.n_antennas < 1:
            raise ValueError("n_antennas must be >= 1")
        if self.element_spacing <= 0.0:
            raise ValueError("element_spacing must be positive")
        if self.element_exponent < 0.0:
            raise ValueError("element_exponent must be >= 0")
        if not 0.0 <= self.boresight_theta <= 180.0:
            raise ValueError("boresight_theta must be in [0, 180]")
        if self.backlobe_floor_db >= 0.0:
            raise ValueError("backlobe_floor_db must be negative")
        try:  # the free field's largest |E_i| is its boresight amplitude
            peak = 10.0 ** (self.peak_element_gain_db / 20.0)
        except OverflowError:
            peak = math.inf
        if search_power_overflows(self.n_antennas, peak):
            raise ValueError(
                f"peak_element_gain_db {self.peak_element_gain_db!r} overflows the "
                f"beamformed power of {self.n_antennas} antennas"
            )


@dataclass(eq=False)
class AntennaFieldMap:
    """Complex field samples of shape (n_antennas, n_theta, n_phi) on a grid."""

    grid: SphericalGrid
    samples: np.ndarray
    label: str = "field"

    def __post_init__(self):
        self.samples = np.ascontiguousarray(self.samples, dtype=np.complex128)
        if self.samples.ndim != 3 or self.samples.shape[1:] != self.grid.shape:
            raise ValueError(
                f"samples must have shape (n_antennas, {self.grid.n_theta}, "
                f"{self.grid.n_phi}), got {self.samples.shape}"
            )
        if self.samples.shape[0] < 1:
            raise ValueError("field map needs at least one antenna")
        if not np.isfinite(self.samples).all():
            raise ValueError("field samples must be finite")

    @property
    def n_antennas(self) -> int:
        return int(self.samples.shape[0])


def synth_freespace_field(config: ArrayConfig, grid: SphericalGrid) -> AntennaFieldMap:
    """Synthesize the free-space per-antenna field map for an array config."""
    th = np.radians(grid.thetas)[:, None]
    ph = np.radians(grid.phis)[None, :]
    bt = math.radians(config.boresight_theta)
    bp = math.radians(config.boresight_phi)
    cos_psi = np.cos(th) * math.cos(bt) + np.sin(th) * math.sin(bt) * np.cos(ph - bp)
    envelope = np.clip(cos_psi, 0.0, None) ** config.element_exponent
    envelope = np.maximum(envelope, 10.0 ** (config.backlobe_floor_db / 10.0))
    amp = 10.0 ** (config.peak_element_gain_db / 20.0) * np.sqrt(envelope)
    idx = np.arange(config.n_antennas)[:, None, None]
    prog = 2.0 * math.pi * config.element_spacing * idx * np.cos(th)[None, :, :]
    samples = amp[None, :, :] * np.exp(1j * prog)
    return AntennaFieldMap(grid=grid, samples=samples, label="free")
