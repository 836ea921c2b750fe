"""Beamforming codebooks and realized-gain evaluation.

Schemes
-------
- MRC weights: per-direction matched combining, the gain upper bound
  ``10*log10(sum |E_i|^2)``.
- Directional codebook: J steered beams on the symmetric beamspace lattice
  ``u_j = -1 + (2j - 1)/J`` with per-element phase quantization.
- Enhanced phase codebook: every combination of B-bit phases on antennas
  2..N (antenna 1 fixed at zero phase), equal magnitudes.
- Enhanced phase+amplitude codebook: the same phase lattice with per-antenna
  magnitudes proportional to measured element strengths.

Search
------
Every search goes through ``best_entries``: for a block of field vectors it
returns each vector's best ``|w_k^H e|^2`` and the lowest winning index k.
It computes exactly what enumerating entries one at a time computes, so
every map, every realized gain and a naive exhaustive search agree bit for
bit (BLAS matmul would not):

- each response ``sum_i conj(w_ki) * e_i`` is added in the order numpy's
  own ``.sum(axis=-1)`` adds a complex row of N terms (``_add_tree``);
- power is ``re*re + im*im`` (``x**2`` may take a libm route);
- dB values come from scalar ``math.log10``; ``np.log10`` can differ in
  the last bit.

Enhanced codebooks are lattices: entry k takes antenna i's weight from the
i-th base-2**B digit of k (antenna 1 fixed, antenna 2 the slowest digit),
so antenna i has only 2**B distinct weights.  Sliced from the weight
matrix itself, these level tables give 2**B products ``conj(w) * e_i`` per
antenna, and broadcasting them through the add tree yields every entry's
response without forming the (entries x antennas) product.  Any other
codebook multiplies the whole matrix.  Field vectors are processed in
blocks of at most ``_BLOCK_PRODUCTS`` entry-vector pairs, which bounds the
temporaries whatever the grid size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .fields import AntennaFieldMap
from .metrics import NULL_GAIN_DB, RoIMask, _power_db

__all__ = [
    "BeamWeight",
    "Codebook",
    "StrengthVector",
    "phase_levels",
    "directional_codebook",
    "enh_phase_codebook",
    "enh_phase_amp_codebook",
    "element_sweep_codebook",
    "element_strengths",
    "mrc_weights",
    "optimal_gain",
    "realized_gain",
    "gain_map",
    "amp_gain_map",
    "best_entries",
    "phase_lattice",
    "MAX_ENH_ENTRIES",
]

MAX_ENH_ENTRIES = 1_000_000

# entry x field-vector responses formed at once by best_entries; larger
# blocks buy little speed and raise peak memory
_BLOCK_PRODUCTS = 1 << 14

CODEBOOK_KINDS = ("directional", "enh-phase", "enh-phase-amp", "element-sweep")


@dataclass(eq=False)
class BeamWeight:
    """One unit-norm complex weight vector with a descriptive tag."""

    weights: np.ndarray
    tag: str = ""

    def __post_init__(self):
        self.weights = np.ascontiguousarray(self.weights, dtype=np.complex128)
        if self.weights.ndim != 1 or self.weights.size < 1:
            raise ValueError("weights must be a 1-D vector")
        if not np.isfinite(self.weights).all():
            raise ValueError("weights must be finite")
        w = self.weights
        norm = math.sqrt(float((w.real * w.real + w.imag * w.imag).sum()))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"weight vector norm {norm} deviates from 1 by more than 1e-12")

    @property
    def n_antennas(self) -> int:
        return int(self.weights.size)


@dataclass(eq=False)
class Codebook:
    """Ordered collection of beam weights of one kind.

    Size invariants per kind: enhanced codebooks must have exactly
    ``(2**B)**(n_antennas - 1)`` entries, an element sweep exactly
    ``n_antennas``; a directional codebook has one entry per beam.
    """

    kind: str
    n_antennas: int
    entries: tuple[BeamWeight, ...]
    b_bits: int | None = None

    def __post_init__(self):
        if self.kind not in CODEBOOK_KINDS:
            raise ValueError(f"kind must be one of {CODEBOOK_KINDS}, got {self.kind!r}")
        self.entries = tuple(self.entries)
        if not self.entries:
            raise ValueError("codebook must have at least one entry")
        for e in self.entries:
            if e.n_antennas != self.n_antennas:
                raise ValueError("all entries must match the codebook antenna count")
        if self.kind in ("enh-phase", "enh-phase-amp"):
            if self.b_bits is None or self.b_bits < 1:
                raise ValueError("enhanced codebooks require b_bits >= 1")
            expected = (2**self.b_bits) ** (self.n_antennas - 1)
            if len(self.entries) != expected:
                raise ValueError(
                    f"{self.kind} codebook must have {expected} entries, "
                    f"got {len(self.entries)}"
                )
        elif self.kind == "element-sweep" and len(self.entries) != self.n_antennas:
            raise ValueError("element sweep must have one entry per antenna")

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        out = np.array([e.weights for e in self.entries])
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class StrengthVector:
    """Per-antenna received powers used to weight the amplitude codebook."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 1:
            raise ValueError("strength vector needs at least one antenna")
        if any(not math.isfinite(v) or v < 0.0 for v in vals):
            raise ValueError("strengths must be finite and >= 0")
        if sum(vals) <= 0.0:
            raise ValueError("strengths must not all be zero")

    @property
    def n_antennas(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def phase_levels(b_bits: int) -> np.ndarray:
    """The 2**B quantized phases ``k * 2*pi / 2**B`` in [0, 2*pi)."""
    if not 1 <= b_bits <= 16:
        raise ValueError("b_bits must be in 1..16")
    # k * (2*pi / 2**B): dividing by powers of two is exact, so level k at
    # resolution B is bitwise equal to level 2k at B+1 and codebook nesting
    # holds exactly in floating point.
    return np.arange(2**b_bits) * (2.0 * math.pi / 2**b_bits)


@lru_cache(maxsize=64)
def _enh_phase_tuples(n_antennas: int, b_bits: int) -> np.ndarray:
    """All (k_2 .. k_N) level-index tuples, k_2 slowest (lexicographic)."""
    levels = 2**b_bits
    total = levels ** (n_antennas - 1)
    if total > MAX_ENH_ENTRIES:
        raise ValueError(
            f"enhanced codebook would have {total} entries "
            f"(limit {MAX_ENH_ENTRIES}); reduce B or the antenna count"
        )
    idx = np.arange(total, dtype=np.int64)[:, None]
    place = levels ** np.arange(n_antennas - 2, -1, -1, dtype=np.int64)[None, :]
    out = (idx // place) % levels
    out.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def phase_lattice(n_antennas: int, b_bits: int) -> np.ndarray:
    """Unnormalized B-bit phase entries: row k is [1, e^{j phi_k2}, ...].

    The enhanced phase codebook is this matrix over sqrt(N); the amplitude
    codebook scales column i by sqrt(S_i / sum S).
    """
    ks = _enh_phase_tuples(n_antennas, b_bits)
    phases = np.zeros((ks.shape[0], n_antennas))
    if n_antennas > 1:
        phases[:, 1:] = phase_levels(b_bits)[ks]
    out = np.exp(1j * phases)
    out.flags.writeable = False
    return out


def _add_tree(terms: list):
    """Sum of the terms in the order numpy's pairwise ``.sum`` adds a
    complex row of that length: left to right below four terms, else four
    strided accumulators combined as (r0 + r1) + (r2 + r3), then the
    remainder left to right.  Terms may be broadcastable arrays.  (numpy
    splits rows of more than 64 terms in halves; a lattice that wide
    would need at least 2**64 entries.)
    """
    n = len(terms)
    if n < 4:
        acc = terms[0]
        for t in terms[1:]:
            acc = acc + t
        return acc
    full = n - n % 4
    r = list(terms[:4])
    for j in range(4, full):
        r[j % 4] = r[j % 4] + terms[j]
    acc = (r[0] + r[1]) + (r[2] + r[3])
    for t in terms[full:]:
        acc = acc + t
    return acc


def _lattice_levels(weights: np.ndarray) -> list[np.ndarray] | None:
    """Per-antenna weight levels if ``weights`` is a lattice, else None.

    Row k of a lattice with L levels holds, in column i, level
    ``digit_i(k)`` of antenna i, where digit_1(k) is the slowest base-L
    digit of k over antennas 1..N-1; column 0 has one level.  The levels
    are sliced from the matrix and the structure is checked exactly, so
    the level path reproduces the matrix bit for bit.
    """
    n_entries, n = weights.shape
    if n < 2 or n_entries < 2:
        return None
    n_levels = round(n_entries ** (1.0 / (n - 1)))
    if n_levels < 2 or n_levels ** (n - 1) != n_entries:
        return None
    k = np.arange(n_entries)
    levels = []
    for i in range(n):
        place = n_levels ** (n - 1 - i)
        level = weights[np.arange(n_levels if i else 1) * place, i]
        if not np.array_equal(weights[:, i], level[k // place % n_levels]):
            return None
        levels.append(level)
    return levels


def best_entries(weights, fields) -> tuple[np.ndarray, np.ndarray]:
    """Best ``|w_k^H e|^2`` over the rows w_k of ``weights`` for every row e
    of ``fields``, and the lowest index k attaining it.

    ``weights`` is (entries, N) and ``fields`` is (vectors, N); rows of
    ``fields`` are directions or trials.  Exactly equal to enumerating the
    entries one at a time (see the module docstring).
    """
    weights = np.asarray(weights, dtype=np.complex128)
    fields = np.asarray(fields, dtype=np.complex128)
    if weights.ndim != 2 or weights.shape[0] < 1:
        raise ValueError("weights must be a non-empty (entries, antennas) matrix")
    n_entries, n = weights.shape
    if fields.ndim != 2 or fields.shape[1] != n:
        raise ValueError(f"fields must be a (vectors, {n}) array")
    levels = _lattice_levels(weights)
    if levels is None:
        w_conj = weights.conj()
    else:
        conj_levels = [lv.conj() for lv in levels]
    n_rows = fields.shape[0]
    best = np.empty(n_rows)
    index = np.empty(n_rows, dtype=np.intp)
    step = max(1, _BLOCK_PRODUCTS // n_entries)
    for lo in range(0, n_rows, step):
        block = np.ascontiguousarray(fields[lo : lo + step])
        if levels is None:
            z = (w_conj * block[:, None, :]).sum(axis=-1)
        else:
            # term i is (vectors, 1, .., levels at axis i, .., 1): broadcasting
            # the add tree lays entries out in lexicographic digit order
            terms = []
            for i, cl in enumerate(conj_levels):
                shape = [len(block)] + [1] * (n - 1)
                if i:
                    shape[i] = cl.size
                terms.append((cl * block[:, i, None]).reshape(shape))
            z = _add_tree(terms).reshape(len(block), n_entries)
        power = z.real * z.real + z.imag * z.imag
        k = power.argmax(axis=1)
        index[lo : lo + step] = k
        best[lo : lo + step] = np.take_along_axis(power, k[:, None], axis=1)[:, 0]
    return best, index


def directional_codebook(
    n_antennas: int,
    n_beams: int | None = None,
    element_spacing: float = 0.5,
    quant_bits: int = 5,
) -> Codebook:
    """Steered-beam codebook on the symmetric beamspace lattice.

    Beam j (1-based) targets ``u_j = -1 + (2j - 1) / J``; ideal weights
    ``exp(-1j * 2*pi * spacing * i * u_j) / sqrt(N)`` are phase-quantized to
    ``quant_bits`` bits and renormalized.
    """
    if n_antennas < 1:
        raise ValueError("n_antennas must be >= 1")
    n_beams = n_antennas if n_beams is None else n_beams
    if n_beams < 1:
        raise ValueError("n_beams must be >= 1")
    j = np.arange(1, n_beams + 1, dtype=float)
    u = -1.0 + (2.0 * j - 1.0) / n_beams
    i = np.arange(n_antennas, dtype=float)
    ideal = np.exp(-1j * 2.0 * math.pi * element_spacing * i[None, :] * u[:, None])
    step = 2.0 * math.pi / 2**quant_bits
    k = np.round(np.mod(np.angle(ideal), 2.0 * math.pi) / step).astype(np.int64) % 2**quant_bits
    w = np.exp(1j * (k * step)) / math.sqrt(n_antennas)
    norms = np.sqrt((w.real * w.real + w.imag * w.imag).sum(axis=1))
    w /= norms[:, None]
    entries = tuple(
        BeamWeight(w[b], tag=f"directional:{b + 1}") for b in range(n_beams)
    )
    return Codebook(kind="directional", n_antennas=n_antennas, entries=entries)


def enh_phase_codebook(n_antennas: int, b_bits: int) -> Codebook:
    """Exhaustive B-bit relative-phase codebook, equal magnitudes."""
    if n_antennas < 1:
        raise ValueError("n_antennas must be >= 1")
    u = phase_lattice(n_antennas, b_bits) / math.sqrt(n_antennas)
    ks = _enh_phase_tuples(n_antennas, b_bits)
    entries = tuple(
        BeamWeight(u[r], tag="enh-phase:" + ",".join(map(str, ks[r])))
        for r in range(u.shape[0])
    )
    return Codebook(kind="enh-phase", n_antennas=n_antennas, entries=entries, b_bits=b_bits)


def enh_phase_amp_codebook(n_antennas: int, b_bits: int, strengths) -> Codebook:
    """B-bit phase lattice with amplitudes sqrt(S_i) from element strengths.

    Equal strengths reproduce the phase-only codebook exactly; zero
    strengths silence the matching antennas.
    """
    s = strengths if isinstance(strengths, StrengthVector) else StrengthVector(tuple(strengths))
    if s.n_antennas != n_antennas:
        raise ValueError("strength vector length must equal n_antennas")
    sv = s.as_array()
    v = (np.sqrt(sv)[None, :] * phase_lattice(n_antennas, b_bits)) / math.sqrt(sv.sum())
    ks = _enh_phase_tuples(n_antennas, b_bits)
    entries = tuple(
        BeamWeight(v[r], tag="enh-phase-amp:" + ",".join(map(str, ks[r])))
        for r in range(v.shape[0])
    )
    return Codebook(kind="enh-phase-amp", n_antennas=n_antennas, entries=entries, b_bits=b_bits)


def element_sweep_codebook(n_antennas: int) -> Codebook:
    """Single-element selection beams (antenna probing)."""
    if n_antennas < 1:
        raise ValueError("n_antennas must be >= 1")
    eye = np.eye(n_antennas, dtype=np.complex128)
    entries = tuple(BeamWeight(eye[i], tag=f"element:{i}") for i in range(n_antennas))
    return Codebook(kind="element-sweep", n_antennas=n_antennas, entries=entries)


def element_strengths(field: AntennaFieldMap, theta_deg: float, phi_deg: float) -> StrengthVector:
    """Per-antenna received powers |E_i|^2 at one grid direction."""
    e = field.at(theta_deg, phi_deg)
    return StrengthVector(tuple(float(v) for v in e.real * e.real + e.imag * e.imag))


def mrc_weights(field: AntennaFieldMap, theta_deg: float, phi_deg: float) -> BeamWeight:
    """Matched (maximum-ratio) combining weights at one grid direction."""
    e = field.at(theta_deg, phi_deg)
    total = float((e.real * e.real + e.imag * e.imag).sum())
    if total == 0.0:
        raise ValueError(
            f"field is identically zero at theta={theta_deg}, phi={phi_deg}; "
            "MRC weights are undefined"
        )
    return BeamWeight(e / math.sqrt(total), tag="mrc")


def optimal_gain(field: AntennaFieldMap, theta_deg: float, phi_deg: float) -> float:
    """MRC gain bound ``10*log10(sum_i |E_i|^2)`` at one grid direction."""
    e = field.at(theta_deg, phi_deg)
    total = float((e.real * e.real + e.imag * e.imag).sum())
    return NULL_GAIN_DB if total == 0.0 else 10.0 * math.log10(total)


def realized_gain(
    codebook: Codebook, field: AntennaFieldMap, theta_deg: float, phi_deg: float
) -> tuple[float, int]:
    """Best realized gain (dB) over a codebook and the winning entry index.

    Ties resolve to the lowest index (first occurrence).
    """
    if codebook.n_antennas != field.n_antennas:
        raise ValueError(
            f"codebook is for {codebook.n_antennas} antennas, "
            f"field has {field.n_antennas}"
        )
    best, index = best_entries(codebook.weight_matrix, field.at(theta_deg, phi_deg)[None, :])
    return _gains_db(best)[0], int(index[0])


def _gains_db(power: np.ndarray, total: np.ndarray | None = None) -> list[float]:
    """``10*log10(power / total)`` per cell by scalar math.log10 (bit-stable,
    see the module docstring); a zero power or total is -inf."""
    if total is None:
        return [NULL_GAIN_DB if p == 0.0 else 10.0 * math.log10(p) for p in power.tolist()]
    return [
        NULL_GAIN_DB if p == 0.0 or t == 0.0 else 10.0 * math.log10(p / t)
        for p, t in zip(power.tolist(), total.tolist())
    ]


def _roi_vectors(field: AntennaFieldMap, roi: RoIMask | None):
    """Field vectors of the RoI cells as a C-ordered (cells, N) array, so that
    row reductions add each vector in the order a 1-D ``.sum`` does, and
    their flat cell indices."""
    flat = field.samples.reshape(field.n_antennas, -1)
    if roi is None:
        return np.ascontiguousarray(flat.T), slice(None)
    if roi.grid != field.grid:
        raise ValueError("RoI grid does not match the field grid")
    cells = np.flatnonzero(roi.mask)
    return np.ascontiguousarray(flat[:, cells].T), cells


def gain_map(
    scheme: Codebook | str,
    field: AntennaFieldMap,
    roi: RoIMask | None = None,
) -> np.ndarray:
    """Realized-gain map (dB) of a codebook, or of "mrc" for the bound.

    Cells outside the RoI are NaN; exact nulls are -inf.  Codebook cells use
    the same search as realized_gain, so the two agree bit for bit.
    """
    out = np.full(field.grid.shape, np.nan)
    if isinstance(scheme, str):
        if scheme != "mrc":
            raise ValueError(f"unknown scheme {scheme!r}; expected 'mrc' or a Codebook")
        s = field.samples
        power = (s.real * s.real + s.imag * s.imag).sum(axis=0)
        full = _power_db(power)
        if roi is None:
            return full
        if roi.grid != field.grid:
            raise ValueError("RoI grid does not match the field grid")
        out[roi.mask] = full[roi.mask]
        return out
    if scheme.n_antennas != field.n_antennas:
        raise ValueError("codebook and field antenna counts differ")
    vectors, cells = _roi_vectors(field, roi)
    best, _ = best_entries(scheme.weight_matrix, vectors)
    out.reshape(-1)[cells] = _gains_db(best)
    return out


def amp_gain_map(
    field: AntennaFieldMap,
    b_bits: int,
    roi: RoIMask | None = None,
) -> np.ndarray:
    """Realized-gain map of the phase+amplitude codebook trained per
    direction on the field's own element strengths.

    The codebook differs at every direction (S_i = |E_i|^2 there), so this
    cannot be a single Codebook object; directions with an all-zero field
    have no trainable codebook and score -inf.
    """
    u = phase_lattice(field.n_antennas, b_bits)
    out = np.full(field.grid.shape, np.nan)
    e, cells = _roi_vectors(field, roi)
    strengths = e.real * e.real + e.imag * e.imag
    # sqrt(S_i) * E_i with sqrt(S_i) = |E_i|; the 1/sqrt(sum S) entry
    # normalization becomes a single division of the squared magnitude.
    best, _ = best_entries(u, np.sqrt(strengths) * e)
    out.reshape(-1)[cells] = _gains_db(best, strengths.sum(axis=1))
    return out
