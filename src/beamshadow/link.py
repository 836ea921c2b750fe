"""The quantized-codebook improvement bound and its numeric audits.

The link SNR is taken in the dominant-cluster form ``|alpha_1|^2 * |g^H E|^2``
for combiner g and the receive field vector E of the strongest cluster.  The
cluster gain only scales every SNR, so it is normalized, |alpha_1| = 1, and
``delta_snr_achieved`` searches both enhanced codebooks for ``|g^H E|^2``.

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

``theorem_trials`` audits the bound on random fields: magnitudes uniform in
[0, 2), phases uniform in [0, 2*pi).  Trial t is drawn from the
``default_rng([seed, t])`` stream; the streams are computed a block of
trials at a time (numpy's SeedSequence hashing and PCG64 generator, redone
on uint64 arrays, each 128-bit state a pair of uint64 words) and checked
against numpy itself on trial 0 of every call.  The trials are split once
by ``forked.split``, which decides the worker count: each range is drawn,
searched and, for a CSV, formatted by the process that owns it, so neither
the result nor the file depends on the split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import forked
from .codebook import Codebook, best_entries, phase_lattice, phase_levels
from .fileio import open_trials_csv, trials_csv_rows
from .sphere import mod_2pi, wrap_rad

__all__ = [
    "ChainStep",
    "BoundReport",
    "TheoremCheckResult",
    "var_blockage",
    "theorem1_lb",
    "delta_snr_achieved",
    "worst_case_dir_snr",
    "inequality_chain_check",
    "theorem_trials",
    "BOUND_TOLERANCE",
]

# a trial or derivation step whose margin is below -BOUND_TOLERANCE is a violation
BOUND_TOLERANCE = 1e-9


def _row_terms(e_rows: np.ndarray):
    """The B-independent terms of every row of a C-ordered (vectors, N) field
    array: (var_blockage, (sum_i |E_i|)^2, sum_i S_i, sqrt(S_i) * E_i) with
    S_i = |E_i|^2."""
    s = e_rows.real * e_rows.real + e_rows.imag * e_rows.imag
    c = np.sqrt(s)
    # squares go through Python floats, whose ``x ** 2`` calls pow() as a
    # numpy scalar's does; an array square differs in the last bit at times
    means = zip(s.mean(axis=1).tolist(), c.mean(axis=1).tolist())
    var = np.array([max(sm - cm**2, 0.0) for sm, cm in means])
    c_sum_sq = np.array([v**2 for v in c.sum(axis=1).tolist()])
    return var, c_sum_sq, s.sum(axis=1), c * e_rows


def _lower_bounds(e_rows: np.ndarray, b_bits: int, terms) -> np.ndarray:
    """``theorem1_lb`` of every row, given the rows' ``_row_terms``."""
    n = e_rows.shape[1]
    var, c_sum_sq = terms[:2]
    half = math.pi / 2**b_bits
    return n * var * math.cos(half) ** 2 - (2.0 * math.sin(half) ** 2 / n) * c_sum_sq


def _codebook_maxima(e_rows: np.ndarray, b_bits: int, terms) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive-search best linear gains (phase+amp, phase-only) of every
    row, given the rows' ``_row_terms``."""
    n = e_rows.shape[1]
    s_sum, weighted = terms[2:]
    u = phase_lattice(n, b_bits)
    max_phase = best_entries(u, e_rows)[0] / n
    best_amp = best_entries(u, weighted)[0]
    max_amp = np.divide(best_amp, s_sum, out=np.zeros_like(best_amp), where=s_sum != 0.0)
    return max_amp, max_phase


def var_blockage(e_vec) -> float:
    """Population variance of the per-antenna field magnitudes (>= 0)."""
    return float(_row_terms(np.asarray(e_vec, dtype=np.complex128)[None, :])[0][0])


def theorem1_lb(e_vec, b_bits: int) -> float:
    """Closed-form lower bound on the phase+amplitude over phase-only
    codebook SNR improvement (linear power units of |E|^2)."""
    if b_bits < 1:
        raise ValueError("b_bits must be >= 1")
    e = np.asarray(e_vec, dtype=np.complex128)[None, :]
    return float(_lower_bounds(e, b_bits, _row_terms(e))[0])


def delta_snr_achieved(e_vec, b_bits: int) -> float:
    """Achieved SNR improvement of the phase+amplitude codebook over the
    phase-only codebook, both by exhaustive search, for |alpha_1| = 1."""
    e = np.asarray(e_vec, dtype=np.complex128)[None, :]
    max_amp, max_phase = _codebook_maxima(e, b_bits, _row_terms(e))
    return float(max_amp[0] - max_phase[0])


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

    @property
    def ok(self) -> bool:
        return all(s.margin >= -BOUND_TOLERANCE for s in self.steps)

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
    row = e_blk[None, :]
    max_amp, max_phase = (float(v[0]) for v in _codebook_maxima(row, b_bits, _row_terms(row)))
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


@dataclass(eq=False)
class TheoremCheckResult:
    """Monte-Carlo audit of the improvement bound over random fields.

    ``var_blockage`` has one value per trial; ``lower_bound``,
    ``delta_achieved`` and ``margin`` are (trials, len(b_values)) arrays,
    so their rows read in (trial, B) order.
    """

    n_trials: int
    b_values: tuple[int, ...]
    n_antennas: int
    seed: int
    var_blockage: np.ndarray
    lower_bound: np.ndarray
    delta_achieved: np.ndarray
    margin: np.ndarray

    @property
    def violations_by_b(self) -> np.ndarray:
        """Trials whose margin is below -BOUND_TOLERANCE, one count per B."""
        return (self.margin < -BOUND_TOLERANCE).sum(axis=0)

    @property
    def min_margin_by_b(self) -> np.ndarray:
        return self.margin.min(axis=0)

    @property
    def n_violations(self) -> int:
        return int(self.violations_by_b.sum())

    @property
    def min_margin(self) -> float:
        return float(self.min_margin_by_b.min())


def _trial_field(seed: int, trial: int, n_antennas: int):
    """Trial ``trial``'s field drawn by numpy itself: the reference stream."""
    rng = np.random.default_rng([seed, trial])
    amps = rng.uniform(0.0, _AMP_HIGH, n_antennas)
    phases = rng.uniform(0.0, 2.0 * math.pi, n_antennas)
    return amps * np.exp(1j * phases)


# numpy's SeedSequence (bit_generator.pyx) and PCG64 (pcg64.h) constants
_MASK32 = (1 << 32) - 1
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# a trial's magnitudes are uniform in [0, _AMP_HIGH)
_AMP_HIGH = 2.0

# trials drawn per vectorized step; bounds the uint64 temporaries of the
# seeding hash and the 128-bit state arithmetic
_TRIAL_BLOCK = 1 << 14
_LOW32, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)


def _uint32_words(n: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence takes from an integer."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _seed_states(seed: int, trials: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence([seed, t]).generate_state(4, uint64)`` for every t, as
    four uint64 arrays (one per state word).  Each t must be below 2**32."""
    hash_const = _SS_INIT_A

    def hashmix(v):
        nonlocal hash_const
        v = v ^ np.uint32(hash_const)
        hash_const = hash_const * _SS_MULT_A & _MASK32
        v = v * np.uint32(hash_const)
        return v ^ (v >> np.uint32(16))

    def mix(x, y):
        r = x * np.uint32(_SS_MIX_L) - y * np.uint32(_SS_MIX_R)
        return r ^ (r >> np.uint32(16))

    entropy = [np.full(trials.size, w, dtype=np.uint32) for w in _uint32_words(int(seed))]
    entropy.append(trials.astype(np.uint32))
    zero = np.zeros(trials.size, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, len(entropy)):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))

    hash_const = _SS_INIT_B
    words = []
    for i in range(8):
        v = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _SS_MULT_B & _MASK32
        v = v * np.uint32(hash_const)
        words.append((v ^ (v >> np.uint32(16))).astype(np.uint64))
    return [words[2 * k] | (words[2 * k + 1] << np.uint64(32)) for k in range(4)]


def _mulhi(a: np.ndarray, b_lo: np.uint64, b_hi: np.uint64) -> np.ndarray:
    """The high 64 bits of ``a * b`` for uint64 a and a 64-bit b given as its
    32-bit halves, from the four 32 x 32-bit partial products."""
    a_lo, a_hi = a & _LOW32, a >> _SHIFT32
    lo_lo, hi_lo, lo_hi = a_lo * b_lo, a_hi * b_lo, a_lo * b_hi
    mid = (lo_lo >> _SHIFT32) + (hi_lo & _LOW32) + (lo_hi & _LOW32)
    return a_hi * b_hi + (hi_lo >> _SHIFT32) + (lo_hi >> _SHIFT32) + (mid >> _SHIFT32)


def _pcg64_doubles(seed: int, trials: np.ndarray, n_draws: int) -> np.ndarray:
    """The first ``n_draws`` doubles in [0, 1) of ``default_rng([seed, t])``
    for every trial t, as a (trials, n_draws) array.

    Each 128-bit state is a (high, low) pair of uint64 words, which wrap
    modulo 2**64; an add carries into the high word where the low sum
    wrapped below its first operand."""
    s0, s1, s2, s3 = _seed_states(seed, trials)
    m_hi, m_lo = (np.uint64(w) for w in divmod(_PCG_MULT, 1 << 64))
    m_lo_halves = m_lo & _LOW32, m_lo >> _SHIFT32
    one = np.uint64(1)
    inc_hi, inc_lo = (s2 << one) | (s3 >> np.uint64(63)), (s3 << one) | one

    def step(hi, lo):
        """state * _PCG_MULT + inc modulo 2**128."""
        l1 = lo * m_lo
        h1 = _mulhi(lo, *m_lo_halves) + lo * m_hi + hi * m_lo
        lo = l1 + inc_lo
        return h1 + inc_hi + (lo < l1), lo

    # pcg64_srandom_r: step from state 0, add the initial state, step again
    lo = inc_lo + s1
    hi = inc_hi + s0 + (lo < inc_lo)
    hi, lo = step(hi, lo)
    out = np.empty((trials.size, n_draws), dtype=np.uint64)
    for k in range(n_draws):
        hi, lo = step(hi, lo)
        # XSL-RR: xor the halves, rotate right by the top six bits
        x = hi ^ lo
        rot = hi >> np.uint64(58)
        out[:, k] = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return (out >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def _trial_fields(seed: int, start: int, stop: int, n_antennas: int) -> np.ndarray:
    """``_trial_field`` of trials start..stop-1 stacked, bit for bit, drawn
    ``_TRIAL_BLOCK`` trials at a time."""
    blocks = []
    for first in range(start, stop, _TRIAL_BLOCK):
        trials = np.arange(first, min(first + _TRIAL_BLOCK, stop))
        d = _pcg64_doubles(seed, trials, 2 * n_antennas)
        # Generator.uniform(0, high) is 0.0 + (high - 0.0) * next_double,
        # which is high * next_double bit for bit: the double is >= 0
        amps = _AMP_HIGH * d[:, :n_antennas]
        phases = (2.0 * math.pi) * d[:, n_antennas:]
        blocks.append(amps * np.exp(1j * phases))
    return np.concatenate(blocks)


def _audit_rows(e_rows: np.ndarray, b_values: tuple[int, ...]):
    """(var_blockage, lower_bound, delta_achieved) of every row of a trial
    field array; the last two have one column per B."""
    terms = _row_terms(e_rows)
    lower = np.empty((e_rows.shape[0], len(b_values)))
    delta = np.empty_like(lower)
    for j, b in enumerate(b_values):
        max_amp, max_phase = _codebook_maxima(e_rows, b, terms)
        lower[:, j] = _lower_bounds(e_rows, b, terms)
        delta[:, j] = max_amp - max_phase
    return terms[0], lower, delta


def _csv_rows(start: int, b_values: tuple[int, ...], var, lower, delta):
    """``fileio.trials_csv_rows`` of audited trials start.."""
    return trials_csv_rows(start, b_values, var, lower, delta, delta - lower)


def _audit_trials(seed, n_antennas, b_values, write, start, stop):
    """``_audit_rows`` of trials start..stop-1, drawn here, and their CSV bytes or None."""
    audit = _audit_rows(_trial_fields(seed, start, stop, n_antennas), b_values)
    return audit, b"".join(_csv_rows(start, b_values, *audit)) if write else None


def theorem_trials(
    n_trials: int, b_values: tuple[int, ...], seed: int, n_antennas: int, out
) -> TheoremCheckResult:
    """Randomized bound audit: uniform magnitudes in [0, 2), uniform phases
    in [0, 2*pi), one derived RNG per trial; with a path ``out`` (None for
    none), also the trials CSV (``fileio.trials_csv_rows``) written there.

    Trial t is the ``default_rng([seed, t])`` stream.  The streams are
    computed a block of trials at a time by reimplementing numpy's seeding
    and PCG64 generator on uint64 arrays, each 128-bit state a (high, low)
    pair of words; trial 0 is also drawn by numpy, in this process,
    and must match bit for bit, else ``RuntimeError``.  Every value equals
    what ``var_blockage``, ``theorem1_lb`` and ``delta_snr_achieved`` return
    for that trial alone.

    The trials are split by ``forked.split``: each range is drawn, searched
    and, given ``out``, formatted by the process that owns it (this one
    streams its rows), then joined in trial order, so neither the result nor
    the file depends on the split.  ``fileio.open_trials_csv`` renames the
    file onto ``out`` only when every range succeeded.
    """
    if not 1 <= n_trials <= 2**32:
        raise ValueError("n_trials must be in 1..2**32")
    if n_antennas < 1:
        raise ValueError("n_antennas must be >= 1")
    b_values = tuple(int(b) for b in b_values)
    if not b_values or any(b < 1 for b in b_values):
        raise ValueError("b_values must be a non-empty list of bit widths >= 1")
    for b in b_values:
        if b_values.count(b) > 1:
            raise ValueError(f"b_values repeats bit width {b}")
        phase_lattice(n_antennas, b)  # an oversized lattice fails before any draw
    # numpy draws trial 0 first: a bad seed raises its own error
    first = _trial_field(seed, 0, n_antennas)
    if _trial_fields(seed, 0, 1, n_antennas).tobytes() != first.tobytes():
        raise RuntimeError(
            "vectorized trial draw differs from numpy.random.default_rng "
            f"{np.__version__} at trial 0"
        )
    with forked.split(
        n_trials,
        lambda lo, hi: f"trials {lo}-{hi - 1}: audit",
        _audit_trials,
        seed,
        n_antennas,
        b_values,
        out is not None,
    ) as ((start, stop), replies):
        # no field array is kept while a child's reply is unpickled
        parts = [_audit_rows(_trial_fields(seed, start, stop, n_antennas), b_values)]
        if out is None:
            parts += (audit for audit, _ in replies)
        else:
            with open_trials_csv(out) as fh:
                fh.writelines(_csv_rows(start, b_values, *parts[0]))
                for audit, rows in replies:
                    parts.append(audit)
                    fh.write(rows)
    var, lower, delta = (np.concatenate(column) for column in zip(*parts))
    return TheoremCheckResult(
        n_trials=n_trials,
        b_values=b_values,
        n_antennas=n_antennas,
        seed=seed,
        var_blockage=var,
        lower_bound=lower,
        delta_achieved=delta,
        margin=delta - lower,
    )
