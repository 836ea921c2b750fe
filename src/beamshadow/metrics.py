"""Blockage metrics: elemental gains, regions of interest, loss CDFs,
coverage tables, and phase-mixing statistics.

Gains are dB of linear power, ``10*log10(|E|^2)``.  A direction with an
exactly-zero field has no defined gain; it is represented by the sentinel
``NULL_GAIN_DB`` (-inf), which naturally fails any ``>= threshold`` test and
therefore never enters a threshold-based region of interest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import AntennaFieldMap
from .sphere import SphericalGrid, wrap_deg

__all__ = [
    "NULL_GAIN_DB",
    "RoIMask",
    "CdfSummary",
    "CoverageRow",
    "PhaseDiffMap",
    "power_db",
    "elemental_gain_map",
    "roi_mask",
    "rect_roi",
    "loss_samples",
    "check_percentiles",
    "cdf_summary",
    "coverage_stats",
    "pair_phase_diff",
    "phase_mixing",
]

NULL_GAIN_DB = float("-inf")


def power_db(power: np.ndarray) -> np.ndarray:
    """``10 * log10(power)`` elementwise; zero power becomes -inf."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(power)


def elemental_gain_map(field: AntennaFieldMap, antenna: int) -> np.ndarray:
    """Elemental gain map (dB) of one antenna; exact nulls become -inf."""
    if not 0 <= antenna < field.n_antennas:
        raise ValueError(f"antenna {antenna} outside 0..{field.n_antennas - 1}")
    s = field.samples[antenna]
    return power_db(s.real * s.real + s.imag * s.imag)


@dataclass(eq=False)
class RoIMask:
    """Boolean direction mask with its solid-angle area fraction.

    ``source`` records how it was built ("thresholds" or "rect"); antenna is
    None for masks not tied to a single element.
    """

    grid: SphericalGrid
    mask: np.ndarray
    source: str
    area_fraction: float
    antenna: int | None = None

    def __post_init__(self):
        self.mask = np.asarray(self.mask)
        if self.mask.shape != self.grid.shape or self.mask.dtype != np.bool_:
            raise ValueError(f"mask must be boolean with shape {self.grid.shape}")
        if not 0.0 <= self.area_fraction <= 1.0:
            raise ValueError("area_fraction must lie in [0, 1]")

    @property
    def n_directions(self) -> int:
        return int(self.mask.sum())


def roi_mask(
    free: AntennaFieldMap,
    blocked: AntennaFieldMap,
    antenna: int,
    g1_db: float = 7.5,
    g2_db: float = 2.5,
) -> RoIMask:
    """Directions where the free gain is >= g1 or the blocked gain is >= g2.

    The region of interest keeps directions that matter in either condition:
    strong when unobstructed, or still usable under blockage.
    """
    if blocked.grid != free.grid:
        raise ValueError("free and blocked grids differ")
    if blocked.n_antennas != free.n_antennas:
        raise ValueError("free and blocked antenna counts differ")
    mask = (elemental_gain_map(free, antenna) >= g1_db) | (
        elemental_gain_map(blocked, antenna) >= g2_db
    )
    return RoIMask(
        grid=free.grid,
        mask=mask,
        source="thresholds",
        area_fraction=free.grid.area_fraction(mask),
        antenna=antenna,
    )


def rect_roi(
    grid: SphericalGrid,
    theta_range: tuple[float, float] = (0.0, 180.0),
    phi_range: tuple[float, float] = (150.0, 360.0),
) -> RoIMask:
    """Rectangular region of interest: samples with theta in [lo, hi) and
    phi in [lo, hi)."""
    (tlo, thi), (plo, phi_hi) = theta_range, phi_range
    if tlo >= thi or plo >= phi_hi:
        raise ValueError("rectangle ranges must satisfy lo < hi")
    sel_t = (grid.thetas >= tlo) & (grid.thetas < thi)
    sel_p = (grid.phis >= plo) & (grid.phis < phi_hi)
    mask = sel_t[:, None] & sel_p[None, :]
    if not mask.any():
        raise ValueError("rectangle selects no grid samples")
    return RoIMask(
        grid=grid,
        mask=mask,
        source="rect",
        area_fraction=grid.area_fraction(mask),
        antenna=None,
    )


def loss_samples(
    free: AntennaFieldMap,
    blocked: AntennaFieldMap,
    antenna: int,
    roi: RoIMask,
) -> np.ndarray:
    """Per-direction elemental loss (free minus blocked gain, dB) inside a
    region of interest, theta-major order.

    Raises if any selected direction has an exactly-zero field: the loss is
    undefined there, and silently dropping or infilling it would bias CDFs.
    """
    if blocked.grid != free.grid or roi.grid != free.grid:
        raise ValueError("free, blocked, and RoI grids must all match")
    if not 0 <= antenna < free.n_antennas:
        raise ValueError(f"antenna {antenna} outside 0..{free.n_antennas - 1}")
    gf = elemental_gain_map(free, antenna)
    gb = elemental_gain_map(blocked, antenna)
    null = roi.mask & (np.isneginf(gf) | np.isneginf(gb))
    if null.any():
        it, ip = np.argwhere(null)[0]
        raise ValueError(
            f"antenna {antenna} has a zero field inside the RoI at "
            f"theta={free.grid.thetas[it]}, phi={free.grid.phis[ip]}"
        )
    return (gf - gb)[roi.mask]


@dataclass(frozen=True)
class CdfSummary:
    """Distribution summary: population mean/std, extrema, percentiles.

    percentiles is a tuple of (percent, value) pairs; the quantile rule is
    linear interpolation between order statistics (numpy's default), which
    for [1..10] puts the median at 5.5.  When built from weights, quantiles
    follow the cumulative-weight midpoint rule instead.
    """

    n_samples: int
    mean: float
    std: float
    minimum: float
    maximum: float
    percentiles: tuple[tuple[float, float], ...]
    weighted: bool = False

    def to_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
            "weighted": self.weighted,
            "percentiles": {repr(p): v for p, v in self.percentiles},
        }


def check_percentiles(percentiles) -> tuple[float, ...]:
    """Percentiles as floats; raises ValueError for any outside [0, 100]."""
    ps = tuple(float(p) for p in percentiles)
    for p in ps:
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} outside [0, 100]")
    return ps


def cdf_summary(
    samples,
    percentiles: tuple[float, ...] = (10.0, 50.0, 80.0, 90.0),
    weights=None,
) -> CdfSummary:
    """Summarize a sample set; optionally weighted (e.g. by solid angle)."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("cdf_summary needs at least one sample")
    if not np.isfinite(x).all():
        raise ValueError("samples must be finite")
    ps = check_percentiles(percentiles)
    if weights is None:
        vals = np.percentile(x, ps) if ps else np.array([])
        mean, std = float(x.mean()), float(x.std())
    else:
        w = np.asarray(weights, dtype=float).ravel()
        if w.shape != x.shape:
            raise ValueError("weights must match samples in length")
        if np.any(w < 0.0) or w.sum() <= 0.0:
            raise ValueError("weights must be >= 0 with a positive sum")
        mean = float((w * x).sum() / w.sum())
        std = float(math.sqrt((w * (x - mean) ** 2).sum() / w.sum()))
        order = np.argsort(x, kind="stable")
        xs, ws = x[order], w[order]
        centers = (np.cumsum(ws) - 0.5 * ws) / ws.sum()
        vals = np.interp(np.asarray(ps) / 100.0, centers, xs) if ps else np.array([])
    return CdfSummary(
        n_samples=int(x.size),
        mean=mean,
        std=std,
        minimum=float(x.min()),
        maximum=float(x.max()),
        percentiles=tuple(zip(ps, (float(v) for v in vals))),
        weighted=weights is not None,
    )


@dataclass(frozen=True)
class CoverageRow:
    antenna: int
    max_free_gain_db: float
    max_blocked_gain_db: float
    roi_area_pct: float

    def to_dict(self) -> dict:
        return {
            "antenna": self.antenna,
            "max_free_gain_db": self.max_free_gain_db,
            "max_blocked_gain_db": self.max_blocked_gain_db,
            "roi_area_pct": self.roi_area_pct,
        }


def coverage_stats(
    free: AntennaFieldMap,
    blocked: AntennaFieldMap,
    g1_db: float = 7.5,
    g2_db: float = 2.5,
) -> list[CoverageRow]:
    """Per-antenna peak gains and region-of-interest area percentages."""
    rows = []
    for i in range(free.n_antennas):
        roi = roi_mask(free, blocked, i, g1_db, g2_db)
        rows.append(
            CoverageRow(
                antenna=i,
                max_free_gain_db=float(elemental_gain_map(free, i).max()),
                max_blocked_gain_db=float(elemental_gain_map(blocked, i).max()),
                roi_area_pct=100.0 * roi.area_fraction,
            )
        )
    return rows


@dataclass(eq=False)
class PhaseDiffMap:
    """Wrapped phase difference (degrees) between two antennas per direction.

    valid flags directions where both antennas have a nonzero field; values
    are forced to 0 elsewhere (the phase of a null sample is meaningless).
    """

    grid: SphericalGrid
    pair: tuple[int, int]
    values_deg: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        self.values_deg = np.asarray(self.values_deg, dtype=float)
        self.valid = np.asarray(self.valid)
        if self.values_deg.shape != self.grid.shape or self.valid.shape != self.grid.shape:
            raise ValueError(f"maps must have shape {self.grid.shape}")
        if self.valid.dtype != np.bool_:
            raise ValueError("valid must be boolean")


def pair_phase_diff(field: AntennaFieldMap, i: int, j: int) -> PhaseDiffMap:
    """Phase of antenna j relative to antenna i, wrapped to (-180, 180]."""
    for a in (i, j):
        if not 0 <= a < field.n_antennas:
            raise ValueError(f"antenna {a} outside 0..{field.n_antennas - 1}")
    ei, ej = field.samples[i], field.samples[j]
    valid = (ei != 0) & (ej != 0)
    values = wrap_deg(np.degrees(np.angle(ej)) - np.degrees(np.angle(ei)))
    values = np.where(valid, values, 0.0)
    return PhaseDiffMap(grid=field.grid, pair=(i, j), values_deg=values, valid=valid)


def phase_mixing(diff: PhaseDiffMap, ref_step_deg: float = 5.0) -> float:
    """Mean absolute wrapped change of the pair phase along theta, rescaled
    to degrees per ``ref_step_deg`` of theta.

    A linear ramp of k degrees of phase per degree of theta scores
    ``abs(k) * ref_step_deg`` regardless of the grid step; a constant map
    scores 0.  Differences touching an invalid cell are excluded.
    """
    if diff.grid.n_theta < 2:
        raise ValueError("phase mixing needs at least two theta rows")
    steps = wrap_deg(diff.values_deg[1:] - diff.values_deg[:-1])
    ok = diff.valid[1:] & diff.valid[:-1]
    if not ok.any():
        raise ValueError("no valid adjacent theta pairs to difference")
    return float(np.abs(steps[ok]).mean() * (ref_step_deg / diff.grid.theta_step))
