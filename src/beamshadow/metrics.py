"""Blockage metrics: elemental gains, regions of interest, loss CDFs,
coverage tables, and phase-mixing statistics.  ``elemental_summaries`` and
``phase_mixing`` are the per-antenna and per-pair analysis of a (free,
blocked) field pair that both ``metrics`` and ``run`` report.

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
    "power_db",
    "elemental_gain_map",
    "roi_mask",
    "rect_roi",
    "loss_samples",
    "check_percentiles",
    "cdf_summary",
    "elemental_summaries",
    "coverage_stats",
    "pair_phase_diff",
    "phase_mixing",
]

NULL_GAIN_DB = float("-inf")

# the theta step phase mixing is reported per, as the report key
# ``phase_mixing_deg_per_5deg`` says
_MIXING_STEP_DEG = 5.0


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
    """Boolean direction mask on a grid."""

    grid: SphericalGrid
    mask: np.ndarray

    def __post_init__(self):
        self.mask = np.asarray(self.mask)
        if self.mask.shape != self.grid.shape or self.mask.dtype != np.bool_:
            raise ValueError(f"mask must be boolean with shape {self.grid.shape}")

    @property
    def area_fraction(self) -> float:
        """Solid-angle share of the sphere that the mask selects."""
        return self.grid.area_fraction(self.mask)

    @property
    def n_directions(self) -> int:
        return int(self.mask.sum())


def roi_mask(
    free: AntennaFieldMap,
    blocked: AntennaFieldMap,
    antenna: int,
    g1_db: float,
    g2_db: float,
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
    return RoIMask(free.grid, mask)


def rect_roi(
    grid: SphericalGrid,
    theta_range: tuple[float, float],
    phi_range: tuple[float, float],
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
    return RoIMask(grid, mask)


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
    """Percentiles as floats; raises a ValueError naming ``percentiles`` for
    any outside [0, 100] or repeated (a summary keys its values by percent)."""
    ps = tuple(float(p) for p in percentiles)
    for i, p in enumerate(ps):
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentiles: percentile {p} outside [0, 100]")
        if p in ps[:i]:
            raise ValueError(f"percentiles: percentile {p} is repeated")
    return ps


def cdf_summary(samples, percentiles: tuple[float, ...], weights=None) -> CdfSummary:
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


def elemental_summaries(
    free: AntennaFieldMap,
    blocked: AntennaFieldMap,
    g1_db: float,
    g2_db: float,
    percentiles: tuple[float, ...],
) -> list[tuple[RoIMask, CdfSummary]]:
    """Each antenna's ``roi_mask`` and the unweighted ``cdf_summary`` of its
    ``loss_samples`` inside it, in antenna order."""
    summaries = []
    for i in range(free.n_antennas):
        roi = roi_mask(free, blocked, i, g1_db, g2_db)
        if not roi.mask.any():
            raise ValueError(
                f"g1_db {g1_db!r} and g2_db {g2_db!r}: antenna {i} has no direction inside the RoI"
            )
        summaries.append((roi, cdf_summary(loss_samples(free, blocked, i, roi), percentiles)))
    return summaries


@dataclass(frozen=True)
class CoverageRow:
    antenna: int
    max_free_gain_db: float
    max_blocked_gain_db: float
    roi_area_pct: float


def coverage_stats(
    free: AntennaFieldMap,
    blocked: AntennaFieldMap,
    g1_db: float,
    g2_db: float,
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


def pair_phase_diff(field: AntennaFieldMap, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Phase of antenna j relative to antenna i per direction, wrapped to
    (-180, 180] degrees, and the boolean map of directions where both
    antennas have a nonzero field; values are 0 elsewhere (the phase of a
    null sample is meaningless)."""
    for a in (i, j):
        if not 0 <= a < field.n_antennas:
            raise ValueError(f"antenna {a} outside 0..{field.n_antennas - 1}")
    ei, ej = field.samples[i], field.samples[j]
    valid = (ei != 0) & (ej != 0)
    values = wrap_deg(np.degrees(np.angle(ej)) - np.degrees(np.angle(ei)))
    return np.where(valid, values, 0.0), valid


def phase_mixing(field: AntennaFieldMap, pairs) -> dict[str, float]:
    """Phase mixing of each antenna pair ``(i, j)`` of ``pairs``, keyed
    ``"i-j"``: the mean absolute wrapped change of ``pair_phase_diff`` along
    theta, rescaled to degrees per 5 degrees of theta.

    A linear ramp of k degrees of phase per degree of theta scores
    ``abs(k) * 5`` regardless of the grid step; a constant map scores 0.
    Differences touching an invalid cell are excluded.  A field with one
    theta row is refused only if it is given a pair.
    """
    scale = _MIXING_STEP_DEG / field.grid.theta_step
    mixing = {}
    for i, j in pairs:
        values, valid = pair_phase_diff(field, i, j)
        if field.grid.n_theta < 2:
            raise ValueError("phase mixing needs at least two theta rows")
        steps = wrap_deg(values[1:] - values[:-1])
        ok = valid[1:] & valid[:-1]
        if not ok.any():
            raise ValueError("no valid adjacent theta pairs to difference")
        mixing[f"{i}-{j}"] = float(np.abs(steps[ok]).mean() * scale)
        del values, valid, steps, ok  # freed before the next pair's maps, which set peak RSS
    return mixing
