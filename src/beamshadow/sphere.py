"""Uniform spherical sampling grids and angle arithmetic.

Angles are degrees at the API surface; radians appear only inside numeric
kernels.  Grids are uniform in theta (polar, 0..180) and phi (azimuth,
0..360) with half-open spans: samples sit at ``start + k*step`` and the end
value is excluded, so a 5 deg grid over [0, 180) x [0, 360) has 36 x 72
directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "MAX_GRID_CELLS",
    "SphericalGrid",
    "make_grid",
    "angular_distance_deg",
    "mod_2pi",
    "wrap_deg",
    "wrap_rad",
]

_TWO_PI = 2.0 * math.pi

# admits a 0.1 deg grid over the whole sphere (1800 x 3600 = 6.48 M cells)
MAX_GRID_CELLS = 10_000_000


def wrap_deg(x):
    """Wrap angles in degrees to (-180, 180]; both +/-180 map to +180."""
    x = np.asarray(x, dtype=float)
    out = x - 360.0 * np.ceil((x - 180.0) / 360.0)
    return out if out.ndim else float(out)


def wrap_rad(x):
    """Wrap angles in radians to (-pi, pi]; both +/-pi map to +pi."""
    x = np.asarray(x, dtype=float)
    out = x - _TWO_PI * np.ceil((x - math.pi) / _TWO_PI)
    return out if out.ndim else float(out)


def mod_2pi(x):
    """Reduce radians into [0, 2*pi).

    ``np.mod`` of a denormal-small negative can round to 2*pi itself, which
    would violate the half-open range; that case is folded back to 0.
    """
    out = np.mod(np.asarray(x, dtype=float), _TWO_PI)
    out = np.where(out >= _TWO_PI, 0.0, out)
    return out if out.ndim else float(out)


def angular_distance_deg(theta1, phi1, theta2, phi2):
    """Great-circle angle in degrees between directions given in degrees.

    Inputs broadcast against each other.
    """
    t1, p1, t2, p2 = (np.radians(np.asarray(a, dtype=float)) for a in (theta1, phi1, theta2, phi2))
    cos_psi = np.cos(t1) * np.cos(t2) + np.sin(t1) * np.sin(t2) * np.cos(p1 - p2)
    out = np.degrees(np.arccos(np.clip(cos_psi, -1.0, 1.0)))
    return out if out.ndim else float(out)


def _span_count(start: float, end: float, step: float, name: str) -> int:
    span = end - start
    ratio = span / step
    # a tiny step overflows the ratio to inf, which round() cannot convert
    n = int(round(ratio)) if math.isfinite(ratio) else 0
    if n < 1 or abs(n * step - span) > 1e-9:
        raise ValueError(
            f"{name} step {step} does not evenly divide the span [{start}, {end})"
        )
    return n


@dataclass(frozen=True)
class SphericalGrid:
    """Uniform half-open grid over the sphere, all angles in degrees."""

    theta_start: float
    theta_end: float
    theta_step: float
    phi_start: float
    phi_end: float
    phi_step: float

    def __post_init__(self):
        if self.theta_step <= 0.0 or self.phi_step <= 0.0:
            raise ValueError("grid steps must be positive")
        if not (0.0 <= self.theta_start < self.theta_end <= 180.0):
            raise ValueError("theta span must satisfy 0 <= start < end <= 180")
        if not (0.0 <= self.phi_start < self.phi_end <= 360.0):
            raise ValueError("phi span must satisfy 0 <= start < end <= 360")
        cells = _span_count(
            self.theta_start, self.theta_end, self.theta_step, "theta"
        ) * _span_count(self.phi_start, self.phi_end, self.phi_step, "phi")
        if cells > MAX_GRID_CELLS:
            raise ValueError(
                f"grid would have {cells} cells (limit {MAX_GRID_CELLS}); use larger steps"
            )

    @property
    def n_theta(self) -> int:
        return _span_count(self.theta_start, self.theta_end, self.theta_step, "theta")

    @property
    def n_phi(self) -> int:
        return _span_count(self.phi_start, self.phi_end, self.phi_step, "phi")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_theta, self.n_phi)

    @property
    def n_directions(self) -> int:
        return self.n_theta * self.n_phi

    @cached_property
    def thetas(self) -> np.ndarray:
        out = self.theta_start + self.theta_step * np.arange(self.n_theta)
        out.flags.writeable = False
        return out

    @cached_property
    def phis(self) -> np.ndarray:
        out = self.phi_start + self.phi_step * np.arange(self.n_phi)
        out.flags.writeable = False
        return out

    @cached_property
    def row_solid_angles(self) -> np.ndarray:
        """Integrated solid angle (sr) of a single cell in each theta row.

        Each cell spans [theta_k, theta_k + dtheta) x [phi_m, phi_m + dphi),
        so the row weight is dphi * (cos theta_k - cos(theta_k + dtheta)):
        the exact integral of sin(theta), not a midpoint approximation.
        Rectangles aligned to grid lines therefore get closed-form areas.
        """
        t0 = np.radians(self.thetas)
        t1 = np.radians(self.thetas + self.theta_step)
        out = math.radians(self.phi_step) * (np.cos(t0) - np.cos(t1))
        out.flags.writeable = False
        return out

    def solid_angle_map(self) -> np.ndarray:
        """Per-cell solid angles as an (n_theta, n_phi) array."""
        return np.repeat(self.row_solid_angles[:, None], self.n_phi, axis=1)

    @property
    def total_solid_angle(self) -> float:
        return float(self.row_solid_angles.sum() * self.n_phi)

    def area_fraction(self, mask: np.ndarray) -> float:
        """Solid-angle fraction of the grid-covered sphere selected by a mask."""
        mask = np.asarray(mask)
        if mask.shape != self.shape or mask.dtype != np.bool_:
            raise ValueError(f"mask must be a boolean array of shape {self.shape}")
        selected = float(self.row_solid_angles @ mask.sum(axis=1))
        return selected / self.total_solid_angle


def make_grid(
    theta_step: float,
    phi_step: float,
    theta_span: tuple[float, float] = (0.0, 180.0),
    phi_span: tuple[float, float] = (0.0, 360.0),
) -> SphericalGrid:
    """Build a uniform half-open grid; steps must divide the spans exactly
    and the grid may hold at most ``MAX_GRID_CELLS`` directions."""
    return SphericalGrid(
        theta_start=float(theta_span[0]),
        theta_end=float(theta_span[1]),
        theta_step=float(theta_step),
        phi_start=float(phi_span[0]),
        phi_end=float(phi_span[1]),
        phi_step=float(phi_step),
    )
