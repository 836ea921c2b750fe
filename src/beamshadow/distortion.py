"""Parameterized blockage distortion: per-antenna amplitude and phase screens.

A distortion field carries a nonnegative amplitude factor and a phase offset
(stored in [0, 2*pi)) per antenna per direction.  Applying it to a field map
multiplies each sample by ``amp * exp(1j * phase)``.

Generation modes
----------------
``identity``          no-op screens (amp 1, phase 0).
``finger-occlusion``  raised-cosine attenuation dents around given centers.
``phase-screen``      spatially correlated random phase (and optional
                      amplitude ripple) per antenna.
``combined``          both of the above.

Randomness comes from ``numpy.random.default_rng(seed)``; for a fixed spec
the draw order is fixed (per antenna: phase screen, then amplitude screen),
so outputs are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import AntennaFieldMap, typed_fields
from .sphere import MAX_GRID_CELLS, SphericalGrid, angular_distance_deg, mod_2pi

__all__ = [
    "FingerSpec",
    "DistortionSpec",
    "DistortionField",
    "gen_distortion",
    "apply_distortion",
    "DISTORTION_MODES",
]

DISTORTION_MODES = ("identity", "finger-occlusion", "phase-screen", "combined")


@dataclass(frozen=True)
class FingerSpec:
    """One occlusion dent: raised-cosine attenuation in dB around a center.

    Attenuation at angular distance d from the center is
    ``depth_db * 0.5 * (1 + cos(pi * d / radius_deg))`` for d < radius and 0
    beyond, i.e. full depth at the center tapering smoothly to zero.
    ``antennas`` limits the dent to a subset of elements (None = all).
    """

    center_theta: float
    center_phi: float
    radius_deg: float
    depth_db: float
    antennas: tuple[int, ...] | None = None

    def __post_init__(self):
        typed_fields(self)
        if self.radius_deg <= 0.0:
            raise ValueError("finger radius_deg must be positive")
        if self.depth_db < 0.0:
            raise ValueError("finger depth_db must be >= 0 (attenuation)")


@dataclass(frozen=True)
class DistortionSpec:
    mode: str = "combined"
    fingers: tuple[FingerSpec, ...] = ()
    phase_std_deg: float = 0.0
    amp_std_db: float = 0.0
    corr_length_deg: float = 20.0
    seed: int = 0

    def __post_init__(self):
        typed_fields(self)
        if self.mode not in DISTORTION_MODES:
            raise ValueError(f"mode must be one of {DISTORTION_MODES}, got {self.mode!r}")
        if self.phase_std_deg < 0.0 or self.amp_std_db < 0.0:
            raise ValueError("screen standard deviations must be >= 0")
        if self.corr_length_deg <= 0.0:
            raise ValueError("corr_length_deg must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(eq=False)
class DistortionField:
    """Per-antenna multiplicative screens on a grid.

    amp is >= 0; phase is radians reduced into [0, 2*pi).
    """

    grid: SphericalGrid
    amp: np.ndarray
    phase: np.ndarray
    label: str = "distortion"

    def __post_init__(self):
        self.amp = np.ascontiguousarray(self.amp, dtype=float)
        self.phase = np.ascontiguousarray(self.phase, dtype=float)
        expected = (self.amp.shape[0],) + self.grid.shape
        if self.amp.ndim != 3 or self.amp.shape != expected or self.phase.shape != expected:
            raise ValueError(
                "amp and phase must both have shape (n_antennas, "
                f"{self.grid.n_theta}, {self.grid.n_phi})"
            )
        if not (np.isfinite(self.amp).all() and np.isfinite(self.phase).all()):
            raise ValueError("distortion screens must be finite")
        if np.any(self.amp < 0.0):
            raise ValueError("amplitude screen must be >= 0")
        if np.any(self.phase < 0.0) or np.any(self.phase >= 2.0 * math.pi):
            raise ValueError("phase screen must lie in [0, 2*pi)")

    @property
    def n_antennas(self) -> int:
        return int(self.amp.shape[0])


def _gaussian_kernel(sigma: float) -> np.ndarray | None:
    """Weights ``exp(-0.5 / sigma**2 * x**2)`` over ``x = -r..r`` with
    ``r = int(4 sigma + 0.5)``, divided by their sum; None (the axis is not
    filtered) when ``sigma <= 1e-15``."""
    if sigma <= 1e-15:
        return None
    r = int(4.0 * sigma + 0.5)
    x = np.arange(-r, r + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * x**2)
    return weights / weights.sum()


def _screen_kernels(grid: SphericalGrid, corr_length_deg: float) -> tuple:
    """The (theta, phi) kernels of a screen whose sigma is the correlation
    length in cells of each axis.  A kernel whose padded screen, ``n + 2r``
    cells along its axis times the other axis, would exceed
    ``MAX_GRID_CELLS`` is refused."""
    kernels = []
    for n, step, other in (
        (grid.n_theta, grid.theta_step, grid.n_phi),
        (grid.n_phi, grid.phi_step, grid.n_theta),
    ):
        sigma = corr_length_deg / step
        half = 4.0 * sigma + 0.5
        if not half < MAX_GRID_CELLS or (n + 2 * int(half)) * other > MAX_GRID_CELLS:
            raise ValueError(
                f"corr_length_deg {corr_length_deg!r} needs a screen filter wider than "
                f"{MAX_GRID_CELLS} cells on this grid; use a shorter correlation length"
            )
        kernels.append(_gaussian_kernel(sigma))
    return tuple(kernels)


def _filter_axis(screen: np.ndarray, weights: np.ndarray, axis: int, wrap: bool) -> np.ndarray:
    """Correlate one axis with symmetric weights: each output is the center
    times the middle weight, plus ``(left_j + right_j) * w_j`` from the
    outermost pair inward; edge indices wrap modulo n or are clipped."""
    r = weights.size // 2
    n = screen.shape[axis]
    idx = np.arange(-r, n + r)
    padded = screen.take(idx % n if wrap else idx.clip(0, n - 1), axis=axis)

    def window(start):
        return padded[start : start + n] if axis == 0 else padded[:, start : start + n]

    out = window(r) * weights[r]
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(window(r - j), window(r + j), out=pair)
        pair *= weights[r + j]
        out += pair
    return out


def _gaussian_smooth(screen: np.ndarray, kernels: tuple) -> np.ndarray:
    """Separable Gaussian low-pass of a (theta, phi) screen, as a C-ordered
    array.  Theta is filtered first, its edges extended by clamping the index
    (the first and last rows repeat); phi second, periodic (the index wraps
    modulo n_phi).  Bit for bit the sums of scipy.ndimage's
    ``gaussian_filter(screen, sigma, mode=("nearest", "wrap"))``."""
    for axis, weights in enumerate(kernels):
        if weights is not None:
            screen = _filter_axis(screen, weights, axis, wrap=axis == 1)
    return np.ascontiguousarray(screen)


def _smooth_screen(
    rng: np.random.Generator,
    grid: SphericalGrid,
    kernels: tuple,
    target_std: float,
) -> np.ndarray:
    """Correlated zero-mean screen rescaled to an exact target std.

    White noise is low-passed by ``_gaussian_smooth`` with the kernels of
    ``_screen_kernels``: clamped at the theta edges, periodic in phi.  The
    screen is then rescaled so its empirical standard deviation equals the
    target.
    """
    smooth = _gaussian_smooth(rng.standard_normal(grid.shape), kernels)
    s = smooth.std()
    if s == 0.0:
        return np.zeros(grid.shape)
    return smooth * (target_std / s)


def gen_distortion(spec: DistortionSpec, grid: SphericalGrid, n_antennas: int) -> DistortionField:
    """Generate the per-antenna distortion screens for a spec on a grid.

    A screen mode is refused before the first draw when its correlation
    length needs a filter wider than ``MAX_GRID_CELLS`` cells.
    """
    if n_antennas < 1:
        raise ValueError("n_antennas must be >= 1")
    rng = np.random.default_rng(spec.seed)
    amp_db = np.zeros((n_antennas,) + grid.shape)
    phase = np.zeros((n_antennas,) + grid.shape)

    if spec.mode in ("finger-occlusion", "combined"):
        th = grid.thetas[:, None]
        ph = grid.phis[None, :]
        for finger in spec.fingers:
            dist = angular_distance_deg(th, ph, finger.center_theta, finger.center_phi)
            taper = np.where(
                dist < finger.radius_deg,
                finger.depth_db * 0.5 * (1.0 + np.cos(math.pi * dist / finger.radius_deg)),
                0.0,
            )
            targets = range(n_antennas) if finger.antennas is None else finger.antennas
            for i in targets:
                if not 0 <= i < n_antennas:
                    raise ValueError(f"finger targets antenna {i} outside 0..{n_antennas - 1}")
                amp_db[i] -= taper

    if spec.mode in ("phase-screen", "combined"):
        kernels = _screen_kernels(grid, spec.corr_length_deg)
        for i in range(n_antennas):
            if spec.phase_std_deg > 0.0:
                phase[i] = _smooth_screen(rng, grid, kernels, math.radians(spec.phase_std_deg))
            if spec.amp_std_db > 0.0:
                amp_db[i] += _smooth_screen(rng, grid, kernels, spec.amp_std_db)

    return DistortionField(
        grid=grid,
        amp=10.0 ** (amp_db / 20.0),
        phase=mod_2pi(phase),
        label=spec.mode,
    )


def apply_distortion(field: AntennaFieldMap, distortion: DistortionField) -> AntennaFieldMap:
    """Multiply a field map by a distortion field sampled on the same grid."""
    if distortion.grid != field.grid:
        raise ValueError("field and distortion grids differ")
    if distortion.n_antennas != field.n_antennas:
        raise ValueError(
            f"antenna count mismatch: field has {field.n_antennas}, "
            f"distortion has {distortion.n_antennas}"
        )
    out = field.samples * (distortion.amp * np.exp(1j * distortion.phase))
    return AntennaFieldMap(grid=field.grid, samples=out, label="blockage")
