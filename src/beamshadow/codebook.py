"""Beamforming codebooks and realized-gain maps.

Schemes
-------
- MRC: per-direction matched combining, the gain upper bound
  ``10*log10(sum |E_i|^2)``; the ``"mrc"`` function of ``scheme_maps`` maps it.
- Directional codebook: J steered beams on the symmetric beamspace lattice
  ``u_j = -1 + (2j - 1)/J`` with per-element phase quantization.
- Enhanced phase codebook: every combination of B-bit phases on antennas
  2..N (antenna 1 fixed at zero phase), equal magnitudes.
- Enhanced phase+amplitude codebook: the same phase lattice with per-antenna
  magnitudes proportional to measured element strengths.

A ``Codebook`` keeps only what the search reads, its ``weights``: N
read-only complex arrays, one per antenna, that broadcast together to the
entries' shape; entry k is the C-order element k of each.  A directional
codebook's N columns share one entry axis.  An enhanced codebook is a
lattice: ``phase_lattice`` places antenna i's 2**B levels on axis i, so
entry k takes antenna i's weight from the i-th base-2**B digit of k
(antenna 1 fixed, antenna 2 the slowest digit), and its (entries x N)
matrix is never formed.  The phase+amplitude codebook is trained per
direction, so ``amp_gain_map`` searches the phase lattice on
strength-weighted field vectors instead.

Search
------
Every search goes through ``best_entries``: for a block of field vectors it
returns each vector's best ``|w_k^H e|^2`` and the lowest winning index k.
It computes exactly what enumerating entries one at a time computes, so
every map and a naive exhaustive search agree bit for bit (BLAS matmul
would not):

- each antenna's term ``conj(w_i) * e_i`` is formed in the entries' broadcast
  shape, and the terms are added in the order numpy's own ``.sum(axis=-1)``
  adds a complex row of N terms (``_add_tree``);
- the add tree's last add is done on the real and imaginary parts apart,
  into contiguous float arrays that are squared and summed in place;
  complex addition is componentwise, so the responses' parts are bitwise
  those of the complex add;
- power is ``re*re + im*im`` (``x**2`` may take a libm route);
- dB values come from scalar ``math.log10``; ``np.log10`` can differ in
  the last bit.

Field vectors are processed in blocks of at most ``_BLOCK_PRODUCTS``
entry-vector pairs, which bounds the temporaries.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from functools import lru_cache

import numpy as np

from .fields import MAX_ANTENNAS, AntennaFieldMap
from .metrics import NULL_GAIN_DB, power_db

__all__ = [
    "Codebook",
    "StrengthVector",
    "phase_levels",
    "directional_codebook",
    "enh_phase_codebook",
    "enh_phase_amp_codebook",
    "gain_map",
    "amp_gain_map",
    "scheme_maps",
    "best_entries",
    "phase_lattice",
    "MAX_ENH_ENTRIES",
    "MAX_PHASE_BITS",
]

MAX_ENH_ENTRIES = 1_000_000
MAX_PHASE_BITS = 16

# entry x field-vector responses formed at once by best_entries; larger
# blocks buy little speed and raise peak memory
_BLOCK_PRODUCTS = 1 << 14

# the -0.0 a complex ``.sum`` starts from: x + (-0.0 - 0.0j) == x bitwise
_NEGATIVE_ZERO = complex(-0.0, -0.0)

@dataclasses.dataclass(eq=False)
class Codebook:
    """The entries ``best_entries`` searches: ``weights``, N read-only complex
    arrays that broadcast together, entry k the C-order element k of each.
    Checked once, ``_BLOCK_PRODUCTS // N`` entries at a time: every entry's
    norm ``sqrt(sum re*re + im*im)`` is finite and within 1e-12 of 1."""

    weights: tuple[np.ndarray, ...]

    def __post_init__(self):
        w = self.weights = tuple(np.array(v, dtype=np.complex128) for v in self.weights)
        for v in w:
            v.flags.writeable = False
        n_entries = len(self)  # refuses a malformed tuple
        step = max(1, _BLOCK_PRODUCTS // len(w))
        for lo in range(0, n_entries, step):
            rows = _entry_rows(w, lo, lo + step)
            # a C-ordered row sum adds each row as a 1-D .sum does; a weight
            # that is not finite makes a norm that is not, which fails too
            norms = np.sqrt((rows.real * rows.real + rows.imag * rows.imag).sum(axis=1))
            bad = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-12))
            if bad.size:
                k = int(bad[0])
                raise ValueError(
                    f"entry {lo + k}: weight vector norm {norms[k]} deviates from 1 by more "
                    "than 1e-12"
                )

    @property
    def weight_matrix(self) -> np.ndarray:
        """The read-only (entries, N) matrix, expanded on each read."""
        w = _entry_rows(self.weights, 0, len(self))
        w.flags.writeable = False
        return w

    @property
    def n_antennas(self) -> int:
        return len(self.weights)

    def __len__(self) -> int:
        return math.prod(_entry_shape(self.weights))


@dataclasses.dataclass(frozen=True)
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


def _require_int(value, name: str) -> None:
    """Refuse a float, bool or string where a count must be an integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def phase_levels(b_bits: int) -> np.ndarray:
    """The 2**B quantized phases ``k * 2*pi / 2**B`` in [0, 2*pi)."""
    _require_int(b_bits, "b_bits")
    if not 1 <= b_bits <= MAX_PHASE_BITS:
        raise ValueError(f"b_bits must be in 1..{MAX_PHASE_BITS}")
    # k * (2*pi / 2**B): dividing by powers of two is exact, so level k at
    # resolution B is bitwise equal to level 2k at B+1 and codebook nesting
    # holds exactly in floating point.
    return np.arange(2**b_bits) * (2.0 * math.pi / 2**b_bits)


@lru_cache(maxsize=64)
def phase_lattice(n_antennas: int, b_bits: int) -> tuple[np.ndarray, ...]:
    """Per-antenna levels of the unnormalized B-bit phase lattice: ``[1]`` for
    antenna 1, ``e^{j phi}`` of the 2**B ``phase_levels`` for each other,
    antenna i's on axis i of the entries' shape, as ``Codebook`` weights.

    The enhanced phase codebook is these levels over sqrt(N); the amplitude
    codebook scales antenna i's by sqrt(S_i / sum S).
    """
    # phase_levels checks B, also for a single antenna, which uses no level
    phases = phase_levels(b_bits)
    if n_antennas < 1:
        raise ValueError("n_antennas must be >= 1")
    bits = b_bits * (n_antennas - 1)  # the lattice has 2**bits entries
    if bits >= MAX_ENH_ENTRIES.bit_length():  # a huge count is named as a power
        raise ValueError(
            f"enhanced codebook would have {2**bits if bits <= 128 else f'2**{bits}'} entries "
            f"(limit {MAX_ENH_ENTRIES}); reduce B or the antenna count"
        )
    levels = [np.ones(1, dtype=np.complex128)] + [np.exp(1j * phases)] * (n_antennas - 1)
    placed = tuple(v.reshape((-1,) + (1,) * (n_antennas - 1 - i)) for i, v in enumerate(levels))
    for v in placed:
        v.flags.writeable = False
    return placed


def _add_tree(terms: list) -> tuple:
    """The two operands of the last add when the terms are summed in the
    order numpy's pairwise ``.sum`` adds a complex row of that length: left
    to right below four terms, else four strided accumulators combined as
    (r0 + r1) + (r2 + r3), then the remainder left to right.  Terms may be
    broadcastable arrays.  A single term comes with ``-0.0 - 0.0j``, which
    adds exactly, signed zeros included.  (numpy splits rows of more than 64
    terms in halves, so ``best_entries`` refuses wider weight tuples.)
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


def _entry_shape(weights: tuple) -> tuple[int, ...]:
    """The shape the weight arrays broadcast to; refuses no arrays, more than
    ``_add_tree`` orders like numpy, and arrays that do not broadcast to at
    least one entry."""
    try:
        shape = np.broadcast_shapes(*(np.shape(w) for w in weights))
    except ValueError:
        shape = (0,)
    if not 1 <= len(weights) <= MAX_ANTENNAS or math.prod(shape) < 1:
        raise ValueError(
            f"weights must be 1..{MAX_ANTENNAS} arrays, one per antenna, that broadcast "
            "together to at least one entry"
        )
    return shape


def _entry_rows(weights: tuple, lo: int, hi: int) -> np.ndarray:
    """Entries lo..hi-1 of a weight tuple (fewer past the last) as the rows
    of a C-ordered (entries, N) matrix."""
    return np.stack([v.flat[lo:hi] for v in np.broadcast_arrays(*weights)], axis=1)


def best_entries(weights: tuple, fields) -> tuple[np.ndarray, np.ndarray]:
    """Best ``|w_k^H e|^2`` over the entries w_k of ``weights`` for every row
    e of ``fields``, and the lowest index k attaining it.

    ``weights`` holds N arrays that broadcast to the entries' shape, entry k
    the C-order element k of each: a ``Codebook``'s weights or a
    ``phase_lattice``.  ``fields`` is (vectors, N); its rows are directions
    or trials.  Exactly equal to enumerating the entries one at a time (see
    the module docstring).
    """
    shape = _entry_shape(weights)
    conj = [np.asarray(w, dtype=np.complex128).conj() for w in weights]
    n, n_entries = len(conj), math.prod(shape)
    fields = np.asarray(fields, dtype=np.complex128)
    if fields.ndim != 2 or fields.shape[1] != n:
        raise ValueError(f"fields must be a (vectors, {n}) array")
    n_rows = fields.shape[0]
    best = np.empty(n_rows)
    index = np.empty(n_rows, dtype=np.intp)
    step = max(1, _BLOCK_PRODUCTS // n_entries)
    column = (-1,) + (1,) * len(shape)
    for lo in range(0, n_rows, step):
        block = np.ascontiguousarray(fields[lo : lo + step])
        # term i is conj(w_i) * e_i of shape (vectors, entries' shape)
        left, right = _add_tree([c * block[:, i].reshape(column) for i, c in enumerate(conj)])
        re = np.add(left.real, right.real).reshape(len(block), n_entries)
        im = np.add(left.imag, right.imag).reshape(len(block), n_entries)
        re *= re
        im *= im
        power = np.add(re, im, out=re)
        k = power.argmax(axis=1)
        index[lo : lo + step] = k
        best[lo : lo + step] = power[np.arange(len(block)), k]
    return best, index


def directional_codebook(
    n_antennas: int,
    n_beams: int | None,
    element_spacing: float,
    quant_bits: int,
) -> Codebook:
    """Steered-beam codebook on the symmetric beamspace lattice.

    J = ``n_beams`` beams, one per antenna when None, at most
    ``MAX_ENH_ENTRIES``.  Beam j (1-based) targets ``u_j = -1 + (2j - 1) / J``;
    ideal weights ``exp(-1j * 2*pi * spacing * i * u_j) / sqrt(N)`` are
    phase-quantized to ``quant_bits`` bits and renormalized.
    """
    if n_antennas < 1:
        raise ValueError("n_antennas must be >= 1")
    n_beams = n_antennas if n_beams is None else n_beams
    _require_int(n_beams, "n_beams")
    if not 1 <= n_beams <= MAX_ENH_ENTRIES:
        raise ValueError(f"n_beams must be in 1..{MAX_ENH_ENTRIES}, got {n_beams}")
    if not 1 <= quant_bits <= MAX_PHASE_BITS:
        raise ValueError(f"quant_bits must be in 1..{MAX_PHASE_BITS}, got {quant_bits}")
    j = np.arange(1, n_beams + 1, dtype=float)
    u = -1.0 + (2.0 * j - 1.0) / n_beams
    i = np.arange(n_antennas, dtype=float)
    ideal = np.exp(-1j * 2.0 * math.pi * element_spacing * i[None, :] * u[:, None])
    levels = phase_levels(quant_bits)
    step = 2.0 * math.pi / len(levels)
    k = np.round(np.mod(np.angle(ideal), 2.0 * math.pi) / step).astype(np.int64) % len(levels)
    w = np.exp(1j * levels[k]) / math.sqrt(n_antennas)
    norms = np.sqrt((w.real * w.real + w.imag * w.imag).sum(axis=1))
    return Codebook(tuple((w / norms[:, None]).T))


def enh_phase_codebook(n_antennas: int, b_bits: int) -> Codebook:
    """Exhaustive B-bit relative-phase codebook, equal magnitudes."""
    levels = phase_lattice(n_antennas, b_bits)
    return Codebook(tuple(v / math.sqrt(n_antennas) for v in levels))


def enh_phase_amp_codebook(n_antennas: int, b_bits: int, strengths) -> Codebook:
    """B-bit phase lattice with amplitudes sqrt(S_i) from element strengths.

    Equal strengths reproduce the phase-only codebook exactly; zero
    strengths silence the matching antennas.
    """
    s = strengths if isinstance(strengths, StrengthVector) else StrengthVector(tuple(strengths))
    sv = np.array(s.values)
    if len(sv) != n_antennas:
        raise ValueError("strength vector length must equal n_antennas")
    scale = math.sqrt(sv.sum())
    levels = zip(np.sqrt(sv), phase_lattice(n_antennas, b_bits))
    return Codebook(tuple(r * v / scale for r, v in levels))


def _gains_db(power: np.ndarray, total: np.ndarray | None = None) -> list[float]:
    """``10*log10(power / total)`` per cell by scalar math.log10 (bit-stable,
    see the module docstring); a zero power or total is -inf."""
    if total is None:
        return [NULL_GAIN_DB if p == 0.0 else 10.0 * math.log10(p) for p in power.tolist()]
    return [
        NULL_GAIN_DB if p == 0.0 or t == 0.0 else 10.0 * math.log10(p / t)
        for p, t in zip(power.tolist(), total.tolist())
    ]


def _field_vectors(field: AntennaFieldMap) -> np.ndarray:
    """The field's vectors as a C-ordered (cells, N) array, so that row
    reductions add each vector in the order a 1-D ``.sum`` does."""
    return np.ascontiguousarray(field.samples.reshape(field.n_antennas, -1).T)


def gain_map(scheme: Codebook, field: AntennaFieldMap) -> np.ndarray:
    """Realized-gain map (dB) of a codebook; exact nulls are -inf.  Cells come
    from ``best_entries``, so they equal a naive exhaustive search bit for bit."""
    if scheme.n_antennas != field.n_antennas:
        raise ValueError("codebook and field antenna counts differ")
    best, _ = best_entries(scheme.weights, _field_vectors(field))
    return np.reshape(_gains_db(best), field.grid.shape)


def amp_gain_map(field: AntennaFieldMap, b_bits: int) -> np.ndarray:
    """Realized-gain map of the phase+amplitude codebook trained per
    direction on the field's own element strengths.

    The codebook differs at every direction (S_i = |E_i|^2 there), so this
    cannot be a single Codebook object; directions with an all-zero field
    have no trainable codebook and score -inf.
    """
    u = phase_lattice(field.n_antennas, b_bits)
    e = _field_vectors(field)
    strengths = e.real * e.real + e.imag * e.imag
    # sqrt(S_i) * E_i with sqrt(S_i) = |E_i|; the 1/sqrt(sum S) entry
    # normalization becomes a single division of the squared magnitude.
    best, _ = best_entries(u, np.sqrt(strengths) * e)
    return np.reshape(_gains_db(best, strengths.sum(axis=1)), field.grid.shape)


def scheme_maps(
    b_values: tuple[int, ...],
    n_beams: int | None,
    element_spacing: float,
    quant_bits: int,
) -> dict:
    """Each scheme's ``field -> gain map (dB)`` function, in report order and
    keyed by its gain-map file name: ``mrc``, ``directional``, then
    ``enh_phase_b{B}`` and ``enh_phase_amp_b{B}`` for each B of ``b_values``.

    Each function builds its codebook for the field it is given: the table
    builds nothing and fits any antenna count.
    """
    maps = {
        "mrc": lambda f: power_db(
            (f.samples.real * f.samples.real + f.samples.imag * f.samples.imag).sum(axis=0)
        ),
        "directional": lambda field: gain_map(
            directional_codebook(field.n_antennas, n_beams, element_spacing, quant_bits), field
        ),
    }
    for b in b_values:
        maps[f"enh_phase_b{b}"] = lambda f, b=b: gain_map(enh_phase_codebook(f.n_antennas, b), f)
        maps[f"enh_phase_amp_b{b}"] = lambda f, b=b: amp_gain_map(f, b)
    return maps
