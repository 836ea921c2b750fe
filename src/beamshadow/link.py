"""Link-level SNR model and the quantized-codebook improvement bound.

The channel is a sparse sum of clusters: ``H = sum_l alpha_l * E(rx_l) *
a_T(tx_l)^H`` with per-cluster gains sorted strongest first.  The receive
side uses the per-antenna field map; the transmit side is an ideal linear
array with unnormalized steering vectors (unit-magnitude entries, norm
sqrt(M)) and an arbitrary precoder f supplied by the caller.

``theorem1_lb`` evaluates the closed-form lower bound on the SNR improvement
of the phase+amplitude codebook over the phase-only codebook at quantizer
resolution B:

    N * Var * cos^2(pi / 2**B) - (2 * sin^2(pi / 2**B) / N) * (sum_i |E_i|)^2

where Var is the population variance of the per-antenna magnitudes.  The
bound can be negative (equal magnitudes make both codebooks coincide); the
achieved improvement from exhaustive search is always >= the bound.

``inequality_chain_check`` replays the derivation one inequality at a time
(quantizer residual bound, nearest-entry floor for the amplitude codebook,
triangle/cap bounds for the phase codebook, final closure) and reports the
numeric margin of every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codebook import BeamWeight, Codebook, best_entries, phase_lattice, phase_levels
from .fields import AntennaFieldMap
from .sphere import mod_2pi, wrap_rad

__all__ = [
    "Cluster",
    "ChannelInstance",
    "ChainStep",
    "BoundReport",
    "TheoremTrialRow",
    "TheoremCheckResult",
    "tx_steering",
    "channel_matrix",
    "rx_snr",
    "approx_rx_snr",
    "var_blockage",
    "theorem1_lb",
    "delta_snr_achieved",
    "worst_case_dir_snr",
    "inequality_chain_check",
    "theorem_trials",
]


def tx_steering(n_tx: int, theta_deg: float, element_spacing: float = 0.5) -> np.ndarray:
    """Unnormalized steering vector of the transmit line array.

    Entries ``exp(1j * 2*pi * spacing * m * cos(theta))`` have unit
    magnitude, so the vector norm is sqrt(n_tx).  The array lies on its own
    z axis; azimuth does not enter.
    """
    if n_tx < 1:
        raise ValueError("n_tx must be >= 1")
    m = np.arange(n_tx)
    return np.exp(1j * 2.0 * math.pi * element_spacing * m * math.cos(math.radians(theta_deg)))


@dataclass(frozen=True)
class Cluster:
    """One propagation cluster: complex gain plus rx/tx departure angles."""

    alpha: complex
    rx_theta: float
    rx_phi: float
    tx_theta: float
    tx_phi: float = 0.0


@dataclass(eq=False)
class ChannelInstance:
    """Sparse multi-cluster channel between a tx line array and the rx map.

    Clusters must be sorted by decreasing |alpha| (dominant first); receive
    directions must be samples of the field grid.
    """

    rx_field: AntennaFieldMap
    clusters: tuple[Cluster, ...]
    n_tx: int
    tx_spacing: float = 0.5
    rho: float = 1.0

    def __post_init__(self):
        self.clusters = tuple(self.clusters)
        if not self.clusters:
            raise ValueError("channel needs at least one cluster")
        mags = [abs(c.alpha) for c in self.clusters]
        if any(mags[k] < mags[k + 1] - 1e-12 for k in range(len(mags) - 1)):
            raise ValueError("clusters must be sorted by decreasing |alpha|")
        if self.n_tx < 1:
            raise ValueError("n_tx must be >= 1")
        if self.rho <= 0.0:
            raise ValueError("rho must be positive")
        for c in self.clusters:
            self.rx_field.grid.index_of(c.rx_theta, c.rx_phi)

    @property
    def dominant(self) -> Cluster:
        return self.clusters[0]


def channel_matrix(channel: ChannelInstance) -> np.ndarray:
    """Assemble H (n_rx_antennas x n_tx) from the cluster sum."""
    n_rx = channel.rx_field.n_antennas
    h = np.zeros((n_rx, channel.n_tx), dtype=np.complex128)
    for c in channel.clusters:
        e = channel.rx_field.at(c.rx_theta, c.rx_phi)
        a = tx_steering(channel.n_tx, c.tx_theta, channel.tx_spacing)
        h += c.alpha * np.outer(e, a.conj())
    return h


def _combiner_vector(g) -> np.ndarray:
    if isinstance(g, BeamWeight):
        return g.weights
    gv = np.asarray(g, dtype=np.complex128)
    if gv.ndim != 1 or not np.isfinite(gv).all():
        raise ValueError("combiner must be a finite 1-D complex vector")
    norm = math.sqrt(float((gv.real * gv.real + gv.imag * gv.imag).sum()))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"combiner must be unit-norm, got norm {norm}")
    return gv


def rx_snr(channel: ChannelInstance, g, f) -> float:
    """Receive SNR ``rho * |g^H H f|^2`` for combiner g and precoder f.

    g must be unit-norm (a BeamWeight or raw vector); f is taken as given —
    its norm encodes the transmit power convention.
    """
    gv = _combiner_vector(g)
    fv = np.asarray(f, dtype=np.complex128)
    if fv.shape != (channel.n_tx,) or not np.isfinite(fv).all():
        raise ValueError(f"precoder must be a finite vector of length {channel.n_tx}")
    h = channel_matrix(channel)
    if gv.shape != (h.shape[0],):
        raise ValueError(f"combiner must have length {h.shape[0]}")
    val = gv.conj() @ h @ fv
    return float(channel.rho * (val.real * val.real + val.imag * val.imag))


def approx_rx_snr(e_vec, alpha1: complex, g, rho: float = 1.0) -> float:
    """Dominant-cluster SNR approximation ``rho * |alpha_1|^2 * |g^H E|^2``."""
    gv = _combiner_vector(g)
    e = np.asarray(e_vec, dtype=np.complex128)
    if e.shape != gv.shape:
        raise ValueError("field vector and combiner lengths differ")
    z = (gv.conj() * e).sum()
    return float(rho * abs(alpha1) ** 2 * (z.real * z.real + z.imag * z.imag))


def _var_rows(e_rows: np.ndarray) -> np.ndarray:
    """``var_blockage`` of every row of a C-ordered (vectors, N) array."""
    p = e_rows.real * e_rows.real + e_rows.imag * e_rows.imag
    c = np.sqrt(p)
    # squares go through Python floats, whose ``x ** 2`` calls pow() as a
    # numpy scalar's does; an array square differs in the last bit at times
    return np.array(
        [max(pm - cm**2, 0.0) for pm, cm in zip(p.mean(axis=1).tolist(), c.mean(axis=1).tolist())]
    )


def _lower_bound_rows(e_rows: np.ndarray, b_bits: int, var: np.ndarray) -> np.ndarray:
    """``theorem1_lb`` of every row, given the rows' ``_var_rows``."""
    n = e_rows.shape[1]
    half = math.pi / 2**b_bits
    c = np.sqrt(e_rows.real * e_rows.real + e_rows.imag * e_rows.imag)
    c_sum_sq = np.array([s**2 for s in c.sum(axis=1).tolist()])
    return n * var * math.cos(half) ** 2 - (2.0 * math.sin(half) ** 2 / n) * c_sum_sq


def var_blockage(e_vec) -> float:
    """Population variance of the per-antenna field magnitudes (>= 0)."""
    e = np.asarray(e_vec, dtype=np.complex128)
    return float(_var_rows(e[None, :])[0])


def theorem1_lb(e_vec, b_bits: int) -> float:
    """Closed-form lower bound on the phase+amplitude over phase-only
    codebook SNR improvement (linear power units of |E|^2)."""
    if b_bits < 1:
        raise ValueError("b_bits must be >= 1")
    e = np.asarray(e_vec, dtype=np.complex128)[None, :]
    return float(_lower_bound_rows(e, b_bits, _var_rows(e))[0])


def _codebook_maxima(e_rows: np.ndarray, b_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive-search best linear gains (phase+amp, phase-only) for every
    row of a C-ordered (vectors, N) field array."""
    n = e_rows.shape[1]
    u = phase_lattice(n, b_bits)
    strengths = e_rows.real * e_rows.real + e_rows.imag * e_rows.imag
    total = strengths.sum(axis=1)
    max_phase = best_entries(u, e_rows)[0] / n
    best_amp = best_entries(u, np.sqrt(strengths) * e_rows)[0]
    max_amp = np.divide(best_amp, total, out=np.zeros_like(best_amp), where=total != 0.0)
    return max_amp, max_phase


def delta_snr_achieved(e_vec, b_bits: int, alpha1: complex = 1.0) -> float:
    """Achieved SNR improvement of the phase+amplitude codebook over the
    phase-only codebook, both by exhaustive search, scaled by |alpha_1|^2."""
    e = np.asarray(e_vec, dtype=np.complex128)
    max_amp, max_phase = _codebook_maxima(e[None, :], b_bits)
    return float(abs(alpha1) ** 2 * (max_amp[0] - max_phase[0]))


def worst_case_dir_snr(e_free_vec, amp_vec, codebook: Codebook) -> float:
    """Directional-codebook gain floor under adversarial blockage phases.

    For magnitudes m_i = |E_free,i| * A_i the worst phase screen reduces
    every steered beam to ``(1/N) * (sum_i m_i a_i)^2`` with signs a_i; the
    beam index drops out (all entries have equal-magnitude weights), so the
    floor is the minimum over the 2^N sign patterns.  Exact enumeration,
    guarded to N <= 20.
    """
    if codebook.kind != "directional":
        raise ValueError(f"expected a directional codebook, got kind {codebook.kind!r}")
    e = np.asarray(e_free_vec, dtype=np.complex128)
    a = np.asarray(amp_vec, dtype=float)
    if e.shape != a.shape or e.ndim != 1:
        raise ValueError("field and amplitude vectors must be 1-D of equal length")
    if np.any(a < 0.0):
        raise ValueError("amplitude factors must be >= 0")
    n = e.size
    if codebook.n_antennas != n:
        raise ValueError("codebook antenna count does not match the vectors")
    if n > 20:
        raise ValueError("sign enumeration is limited to n_antennas <= 20")
    m = np.sqrt(e.real * e.real + e.imag * e.imag) * a
    best = math.inf
    chunk = 1 << 16
    bits = np.arange(n)
    for lo in range(0, 1 << n, chunk):
        idx = np.arange(lo, min(lo + chunk, 1 << n), dtype=np.int64)
        signs = (((idx[:, None] >> bits[None, :]) & 1) * 2.0 - 1.0)
        best = min(best, float(np.abs(signs @ m).min()))
    return best**2 / n


@dataclass(frozen=True)
class ChainStep:
    """One inequality of the derivation, asserted as lhs <= rhs."""

    name: str
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def to_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs, "margin": self.margin}


@dataclass(eq=False)
class BoundReport:
    """Step-by-step audit of the improvement bound on one field vector."""

    n_antennas: int
    b_bits: int
    var_blockage: float
    lower_bound: float
    delta_achieved: float
    residuals: tuple[float, ...]
    steps: tuple[ChainStep, ...]
    tolerance: float = 1e-9

    @property
    def ok(self) -> bool:
        return all(s.margin >= -self.tolerance for s in self.steps)

    @property
    def min_margin(self) -> float:
        return min(s.margin for s in self.steps)

    def to_dict(self) -> dict:
        return {
            "n_antennas": self.n_antennas,
            "b_bits": self.b_bits,
            "var_blockage": self.var_blockage,
            "lower_bound": self.lower_bound,
            "delta_achieved": self.delta_achieved,
            "residuals_rad": list(self.residuals),
            "ok": self.ok,
            "min_margin": self.min_margin,
            "steps": [s.to_dict() for s in self.steps],
        }


def inequality_chain_check(e_free_vec, amp_vec, phase_vec, b_bits: int) -> BoundReport:
    """Audit every inequality in the improvement-bound derivation.

    Builds the blocked field ``E_free * A * exp(1j*P)``, quantizes its
    relative phases to the nearest B-bit level (reference: first antenna
    with nonzero magnitude), and checks, with numeric margins:

    1. every quantizer residual obeys |theta_i| <= pi/2**B;
    2. the nearest entry of the amplitude codebook achieves at least
       cos^2(pi/2**B) * sum(S);
    3. the exhaustive amplitude-codebook max dominates that entry;
    4. the phase codebook's cos term is capped by (sum c)^2;
    5. its sin term is capped by sin(pi/2**B) * sum c;
    6. its exhaustive max is capped by (1/N)(sum c)^2 (1 + sin^2(pi/2**B));
    7. the achieved improvement dominates the closed-form lower bound,
       which itself matches the floor-minus-cap algebra.
    """
    if b_bits < 1:
        raise ValueError("b_bits must be >= 1")
    e_free = np.asarray(e_free_vec, dtype=np.complex128)
    a = np.asarray(amp_vec, dtype=float)
    p = np.asarray(phase_vec, dtype=float)
    if not (e_free.shape == a.shape == p.shape) or e_free.ndim != 1:
        raise ValueError("field, amplitude, and phase vectors must be 1-D of equal length")
    if np.any(a < 0.0):
        raise ValueError("amplitude factors must be >= 0")
    n = e_free.size
    e_blk = e_free * a * np.exp(1j * p)
    c = np.sqrt(e_blk.real * e_blk.real + e_blk.imag * e_blk.imag)
    strengths = c * c
    total = float(strengths.sum())
    half = math.pi / 2**b_bits
    levels = phase_levels(b_bits)
    nz = np.flatnonzero(c)
    residuals = np.zeros(n)
    if nz.size:
        psi = np.angle(e_blk) - np.angle(e_blk[nz[0]])
        k = np.round(mod_2pi(psi) / (2.0 * math.pi / 2**b_bits)).astype(np.int64) % 2**b_bits
        residuals[nz] = wrap_rad(psi[nz] - levels[k[nz]])

    cos_t, sin_t = np.cos(residuals), np.sin(residuals)
    if total > 0.0:
        nearest_amp_value = (
            float((strengths * cos_t).sum()) ** 2 + float((strengths * sin_t).sum()) ** 2
        ) / total
    else:
        nearest_amp_value = 0.0
    max_amp, max_phase = (float(v[0]) for v in _codebook_maxima(e_blk[None, :], b_bits))
    c_sum = float(c.sum())
    lb = theorem1_lb(e_blk, b_bits)
    phase_cap = (c_sum**2 / n) * (1.0 + math.sin(half) ** 2)
    algebra_gap = abs(lb - (math.cos(half) ** 2 * total - phase_cap))

    steps = (
        ChainStep("residual-within-quantizer-halfstep", float(np.abs(residuals).max()), half),
        ChainStep(
            "amp-nearest-entry-floor", math.cos(half) ** 2 * total, nearest_amp_value
        ),
        ChainStep("amp-max-dominates-nearest-entry", nearest_amp_value, max_amp),
        ChainStep("phase-cos-term-cap", float((c * cos_t).sum()) ** 2, c_sum**2),
        ChainStep(
            "phase-sin-term-cap", abs(float((c * sin_t).sum())), math.sin(half) * c_sum
        ),
        ChainStep("phase-max-cap", max_phase, phase_cap),
        ChainStep("bound-algebra-closure", algebra_gap, 1e-9 * max(1.0, abs(lb))),
        ChainStep("achieved-dominates-lower-bound", lb, max_amp - max_phase),
    )
    return BoundReport(
        n_antennas=n,
        b_bits=b_bits,
        var_blockage=var_blockage(e_blk),
        lower_bound=lb,
        delta_achieved=max_amp - max_phase,
        residuals=tuple(float(r) for r in residuals),
        steps=steps,
    )


@dataclass(frozen=True)
class TheoremTrialRow:
    trial: int
    b_bits: int
    var_blockage: float
    lower_bound: float
    delta_achieved: float

    @property
    def margin(self) -> float:
        return self.delta_achieved - self.lower_bound


@dataclass(eq=False)
class TheoremCheckResult:
    """Monte-Carlo audit of the improvement bound over random fields."""

    n_trials: int
    b_values: tuple[int, ...]
    n_antennas: int
    seed: int
    rows: tuple[TheoremTrialRow, ...]
    tolerance: float = 1e-9

    @property
    def n_violations(self) -> int:
        return sum(1 for r in self.rows if r.margin < -self.tolerance)

    @property
    def min_margin(self) -> float:
        return min(r.margin for r in self.rows)


def _trial_field(seed: int, trial: int, n_antennas: int, amp_low: float, amp_high: float):
    rng = np.random.default_rng([seed, trial])
    amps = rng.uniform(amp_low, amp_high, n_antennas)
    phases = rng.uniform(0.0, 2.0 * math.pi, n_antennas)
    return amps * np.exp(1j * phases)


def theorem_trials(
    n_trials: int,
    b_values: tuple[int, ...] = (1, 2, 3),
    seed: int = 0,
    n_antennas: int = 4,
    amp_low: float = 0.0,
    amp_high: float = 2.0,
) -> TheoremCheckResult:
    """Randomized bound audit: uniform magnitudes in [amp_low, amp_high],
    uniform phases, one derived RNG per trial.

    Each trial seeds ``default_rng([seed, trial])``.  The trials are stacked
    and searched together; every row equals what ``var_blockage``,
    ``theorem1_lb`` and ``delta_snr_achieved`` return for that trial alone.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    b_values = tuple(int(b) for b in b_values)
    if any(b < 1 for b in b_values):
        raise ValueError("b_bits must be >= 1")
    e = np.array([_trial_field(seed, t, n_antennas, amp_low, amp_high) for t in range(n_trials)])
    var = _var_rows(e)
    columns = {}
    for b in b_values:
        max_amp, max_phase = _codebook_maxima(e, b)
        columns[b] = (_lower_bound_rows(e, b, var).tolist(), (max_amp - max_phase).tolist())
    var_list = var.tolist()
    rows = [
        TheoremTrialRow(
            trial=t,
            b_bits=b,
            var_blockage=var_list[t],
            lower_bound=columns[b][0][t],
            delta_achieved=columns[b][1][t],
        )
        for t in range(n_trials)
        for b in b_values
    ]
    return TheoremCheckResult(
        n_trials=n_trials,
        b_values=b_values,
        n_antennas=n_antennas,
        seed=seed,
        rows=tuple(rows),
    )
