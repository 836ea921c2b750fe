"""Beamforming codebooks and realized-gain maps.

Schemes
-------
- MRC: per-direction matched combining, the gain upper bound
  ``10*log10(sum |E_i|^2)``; ``gain_map("mrc", field)`` maps it.
- Directional codebook: J steered beams on the symmetric beamspace lattice
  ``u_j = -1 + (2j - 1)/J`` with per-element phase quantization.
- Enhanced phase codebook: every combination of B-bit phases on antennas
  2..N (antenna 1 fixed at zero phase), equal magnitudes.
- Enhanced phase+amplitude codebook: the same phase lattice with per-antenna
  magnitudes proportional to measured element strengths.

A ``Codebook`` is one read-only (entries, N) complex ``weight_matrix`` whose
row k is entry k's unit-norm weight vector, validated once as a whole; the
constructors build that matrix directly.  The phase+amplitude codebook is
trained per direction, so ``amp_gain_map`` searches the phase lattice on
strength-weighted field vectors instead of building one per direction.

Search
------
Every search goes through ``best_entries``: for a block of field vectors it
returns each vector's best ``|w_k^H e|^2`` and the lowest winning index k.
It computes exactly what enumerating entries one at a time computes, so
every map and a naive exhaustive search agree bit for bit (BLAS matmul
would not):

- each response ``sum_i conj(w_ki) * e_i`` is added in the order numpy's
  own ``.sum(axis=-1)`` adds a complex row of N terms (``_add_tree``);
- power is ``re*re + im*im`` (``x**2`` may take a libm route);
- on a lattice the add tree's last add, the only one of entry size, is done
  on the real and imaginary parts apart, into contiguous float arrays that
  are squared and summed in place; complex addition is componentwise, so
  the responses' parts are bitwise those of the complex add;
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
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import AntennaFieldMap
from .metrics import NULL_GAIN_DB, RoIMask, power_db

__all__ = [
    "Codebook",
    "StrengthVector",
    "phase_levels",
    "directional_codebook",
    "enh_phase_codebook",
    "enh_phase_amp_codebook",
    "gain_map",
    "amp_gain_map",
    "best_entries",
    "search_power_overflows",
    "phase_lattice",
    "MAX_ENH_ENTRIES",
]

MAX_ENH_ENTRIES = 1_000_000

# entry x field-vector responses formed at once by best_entries; larger
# blocks buy little speed and raise peak memory
_BLOCK_PRODUCTS = 1 << 14

# the -0.0 a complex ``.sum`` starts from: x + (-0.0 - 0.0j) == x bitwise
_NEGATIVE_ZERO = complex(-0.0, -0.0)

CODEBOOK_KINDS = ("directional", "enh-phase", "enh-phase-amp")


@dataclass(eq=False)
class Codebook:
    """Codebook of one kind: a read-only (entries, n_antennas) complex matrix
    whose row k is the unit-norm weight vector of entry k.

    The matrix is copied and checked once: 2-D, not empty, finite, every
    row norm ``sqrt(sum re*re + im*im)`` within 1e-12 of 1.  Size
    invariants per kind: enhanced codebooks must have exactly
    ``(2**B)**(n_antennas - 1)`` entries; a directional codebook has one
    entry per beam.
    """

    kind: str
    weight_matrix: np.ndarray
    b_bits: int | None = None

    def __post_init__(self):
        if self.kind not in CODEBOOK_KINDS:
            raise ValueError(f"kind must be one of {CODEBOOK_KINDS}, got {self.kind!r}")
        w = np.array(self.weight_matrix, dtype=np.complex128, order="C")
        if w.ndim != 2 or w.size < 1:
            raise ValueError("weight matrix must be a non-empty (entries, antennas) array")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        # a C-ordered row sum adds each row as a 1-D .sum does
        norms = np.sqrt((w.real * w.real + w.imag * w.imag).sum(axis=1))
        bad = np.flatnonzero(np.abs(norms - 1.0) > 1e-12)
        if bad.size:
            k = int(bad[0])
            raise ValueError(
                f"entry {k}: weight vector norm {norms[k]} deviates from 1 by more than 1e-12"
            )
        n_entries, n = w.shape
        if self.kind in ("enh-phase", "enh-phase-amp"):
            if self.b_bits is None or self.b_bits < 1:
                raise ValueError("enhanced codebooks require b_bits >= 1")
            expected = (2**self.b_bits) ** (n - 1)
            if n_entries != expected:
                raise ValueError(
                    f"{self.kind} codebook must have {expected} entries, got {n_entries}"
                )
        w.flags.writeable = False
        self.weight_matrix = w

    @property
    def n_antennas(self) -> int:
        return self.weight_matrix.shape[1]

    def __len__(self) -> int:
        return self.weight_matrix.shape[0]


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


def _require_int(value, name: str) -> None:
    """Refuse a float, bool or string where a count must be an integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def phase_levels(b_bits: int) -> np.ndarray:
    """The 2**B quantized phases ``k * 2*pi / 2**B`` in [0, 2*pi)."""
    _require_int(b_bits, "b_bits")
    if not 1 <= b_bits <= 16:
        raise ValueError("b_bits must be in 1..16")
    # k * (2*pi / 2**B): dividing by powers of two is exact, so level k at
    # resolution B is bitwise equal to level 2k at B+1 and codebook nesting
    # holds exactly in floating point.
    return np.arange(2**b_bits) * (2.0 * math.pi / 2**b_bits)


@lru_cache(maxsize=64)
def phase_lattice(n_antennas: int, b_bits: int) -> np.ndarray:
    """Unnormalized B-bit phase entries: row k is [1, e^{j phi_k2}, ...],
    where (k_2 .. k_N) are the base-2**B digits of k, k_2 the slowest.

    The enhanced phase codebook is this matrix over sqrt(N); the amplitude
    codebook scales column i by sqrt(S_i / sum S).
    """
    # phase_levels checks B, also for a single antenna, which uses no level
    levels = phase_levels(b_bits)
    total = len(levels) ** (n_antennas - 1)
    if total > MAX_ENH_ENTRIES:
        raise ValueError(
            f"enhanced codebook would have {total} entries "
            f"(limit {MAX_ENH_ENTRIES}); reduce B or the antenna count"
        )
    idx = np.arange(total, dtype=np.int64)[:, None]
    place = len(levels) ** np.arange(n_antennas - 2, -1, -1, dtype=np.int64)[None, :]
    phases = np.zeros((total, n_antennas))
    phases[:, 1:] = levels[(idx // place) % len(levels)]
    out = np.exp(1j * phases)
    out.flags.writeable = False
    return out


def _add_tree(terms: list) -> tuple:
    """The two operands of the last add when the terms are summed in the
    order numpy's pairwise ``.sum`` adds a complex row of that length: left
    to right below four terms, else four strided accumulators combined as
    (r0 + r1) + (r2 + r3), then the remainder left to right.  Terms may be
    broadcastable arrays.  A single term comes with ``-0.0 - 0.0j``, which
    adds exactly, signed zeros included.  (numpy splits rows of more than 64
    terms in halves; a lattice that wide would need at least 2**64 entries.)
    """
    n = len(terms)
    if n == 1:
        return terms[0], _NEGATIVE_ZERO
    if n < 4:
        acc = terms[0]
        for t in terms[1:-1]:
            acc = acc + t
        return acc, terms[-1]
    full = n - n % 4
    r = list(terms[:4])
    for j in range(4, full):
        r[j % 4] = r[j % 4] + terms[j]
    if full == n:
        return r[0] + r[1], r[2] + r[3]
    acc = (r[0] + r[1]) + (r[2] + r[3])
    for t in terms[full:-1]:
        acc = acc + t
    return acc, terms[-1]


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
            power = z.real * z.real + z.imag * z.imag
        else:
            # term i is (vectors, 1, .., levels at axis i, .., 1): broadcasting
            # the add tree lays entries out in lexicographic digit order
            terms = []
            for i, cl in enumerate(conj_levels):
                shape = [len(block)] + [1] * (n - 1)
                if i:
                    shape[i] = cl.size
                terms.append((cl * block[:, i, None]).reshape(shape))
            left, right = _add_tree(terms)
            re = np.add(left.real, right.real).reshape(len(block), n_entries)
            im = np.add(left.imag, right.imag).reshape(len(block), n_entries)
            re *= re
            im *= im
            power = np.add(re, im, out=re)
        k = power.argmax(axis=1)
        index[lo : lo + step] = k
        best[lo : lo + step] = power[np.arange(len(block)), k]
    return best, index


def search_power_overflows(n_antennas: int, peak: float) -> bool:
    """Whether a search of fields whose largest ``|E_i|`` is ``peak`` can
    overflow: it squares ``|sum_i |E_i| E_i|^2 <= (N * peak**2)**2``."""
    power = n_antennas * (peak * peak)
    return not math.isfinite(power * power)


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
    _require_int(n_beams, "n_beams")
    if n_beams < 1:
        raise ValueError("n_beams must be >= 1")
    if not 1 <= quant_bits <= 16:
        raise ValueError(f"quant_bits must be in 1..16, got {quant_bits}")
    j = np.arange(1, n_beams + 1, dtype=float)
    u = -1.0 + (2.0 * j - 1.0) / n_beams
    i = np.arange(n_antennas, dtype=float)
    ideal = np.exp(-1j * 2.0 * math.pi * element_spacing * i[None, :] * u[:, None])
    levels = phase_levels(quant_bits)
    step = 2.0 * math.pi / len(levels)
    k = np.round(np.mod(np.angle(ideal), 2.0 * math.pi) / step).astype(np.int64) % len(levels)
    w = np.exp(1j * levels[k]) / math.sqrt(n_antennas)
    norms = np.sqrt((w.real * w.real + w.imag * w.imag).sum(axis=1))
    return Codebook("directional", w / norms[:, None])


def enh_phase_codebook(n_antennas: int, b_bits: int) -> Codebook:
    """Exhaustive B-bit relative-phase codebook, equal magnitudes."""
    if n_antennas < 1:
        raise ValueError("n_antennas must be >= 1")
    u = phase_lattice(n_antennas, b_bits) / math.sqrt(n_antennas)
    return Codebook("enh-phase", u, b_bits)


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
    return Codebook("enh-phase-amp", v, b_bits)


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

    Cells outside the RoI are NaN; exact nulls are -inf.  Codebook cells come
    from ``best_entries``, so they equal a naive exhaustive search bit for bit.
    """
    out = np.full(field.grid.shape, np.nan)
    if isinstance(scheme, str):
        if scheme != "mrc":
            raise ValueError(f"unknown scheme {scheme!r}; expected 'mrc' or a Codebook")
        s = field.samples
        power = (s.real * s.real + s.imag * s.imag).sum(axis=0)
        full = power_db(power)
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
