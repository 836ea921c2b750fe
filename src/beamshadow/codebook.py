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

A ``Codebook`` keeps only what the search reads: an (entries, N) matrix of
unit-norm rows or an enhanced codebook's level vectors (below).  The
phase+amplitude codebook is trained per direction, so ``amp_gain_map``
searches the phase lattice on strength-weighted field vectors instead.

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
so antenna i has only 2**B distinct weights.  Their ``Codebook.weights``
are these level vectors; given them as a tuple, ``best_entries`` forms
2**B products ``conj(w) * e_i`` per antenna, and broadcasting them through
the add tree yields every entry's response without forming the
(entries x antennas) product.  A matrix is multiplied whole; no lattice is
read back from one.  Field vectors are processed in blocks of at most
``_BLOCK_PRODUCTS`` entry-vector pairs, which bounds the temporaries.
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
    """The entries ``best_entries`` searches, ``weights``: a read-only
    (entries, N) complex matrix of weight vectors or a tuple of per-antenna
    level vectors, whose lattice is the entries.  Checked once: finite, every
    entry's norm ``sqrt(sum re*re + im*im)`` within 1e-12 of 1.  A lattice
    checks two entries, of each antenna's smallest and of its largest squared
    level (argmin/argmax pick a NaN); every other entry's norm lies between."""

    weights: np.ndarray | tuple[np.ndarray, ...]

    def __post_init__(self):
        if isinstance(self.weights, tuple):
            w = _level_vectors(self.weights)
            powers = [v.real * v.real + v.imag * v.imag for v in w]
            picks = [[int(p.argmin()) for p in powers], [int(p.argmax()) for p in powers]]
            rows = np.array([[v[i] for v, i in zip(w, pick)] for pick in picks])
        else:
            w = rows = np.array(self.weights, dtype=np.complex128, order="C")
            if w.ndim != 2 or w.size < 1:
                raise ValueError("weight matrix must be a non-empty (entries, antennas) array")
            w.flags.writeable = False
        if not np.isfinite(rows).all():
            raise ValueError("weights must be finite")
        # a C-ordered row sum adds each row as a 1-D .sum does
        norms = np.sqrt((rows.real * rows.real + rows.imag * rows.imag).sum(axis=1))
        bad = np.flatnonzero(np.abs(norms - 1.0) > 1e-12)
        if bad.size:
            k = int(bad[0])
            where = f"the entry of levels {picks[k]}" if isinstance(w, tuple) else f"entry {k}"
            raise ValueError(
                f"{where}: weight vector norm {norms[k]} deviates from 1 by more than 1e-12"
            )
        self.weights = w

    @property
    def weight_matrix(self) -> np.ndarray:
        """The read-only (entries, N) matrix; a lattice is expanded on each read."""
        if not isinstance(self.weights, tuple):
            return self.weights
        w = np.stack([g.reshape(-1) for g in np.meshgrid(*self.weights, indexing="ij")], 1)
        w.flags.writeable = False
        return w

    @property
    def n_antennas(self) -> int:
        return len(self.weights) if isinstance(self.weights, tuple) else self.weights.shape[1]

    def __len__(self) -> int:
        w = self.weights
        return math.prod(v.size for v in w) if isinstance(w, tuple) else len(w)


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
    antenna 1, ``e^{j phi}`` of the 2**B ``phase_levels`` for each other.

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
    return _level_vectors((np.ones(1),) + (np.exp(1j * phases),) * (n_antennas - 1))


def _add_tree(terms: list) -> tuple:
    """The two operands of the last add when the terms are summed in the
    order numpy's pairwise ``.sum`` adds a complex row of that length: left
    to right below four terms, else four strided accumulators combined as
    (r0 + r1) + (r2 + r3), then the remainder left to right.  Terms may be
    broadcastable arrays.  A single term comes with ``-0.0 - 0.0j``, which
    adds exactly, signed zeros included.  (numpy splits rows of more than 64
    terms in halves, so ``best_entries`` refuses wider level tuples.)
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


def _level_vectors(levels: tuple) -> tuple[np.ndarray, ...]:
    """Read-only complex copies of a tuple of per-antenna level vectors,
    refusing an empty tuple, a vector that is empty or not 1-D, and more
    antennas than ``_add_tree`` orders like numpy."""
    out = tuple(np.array(level, dtype=np.complex128) for level in levels)
    if not 1 <= len(out) <= MAX_ANTENNAS or any(v.ndim != 1 or v.size < 1 for v in out):
        raise ValueError(f"levels must be 1..{MAX_ANTENNAS} non-empty 1-D vectors, one per antenna")
    for v in out:
        v.flags.writeable = False
    return out


def best_entries(weights, fields) -> tuple[np.ndarray, np.ndarray]:
    """Best ``|w_k^H e|^2`` over the entries w_k of ``weights`` for every row
    e of ``fields``, and the lowest index k attaining it.

    ``weights`` is an (entries, N) matrix of entries or a tuple of N level
    vectors, whose lattice (antenna 1 the slowest digit) is the entries.
    ``fields`` is (vectors, N); its rows are directions or trials.  Exactly
    equal to enumerating the entries one at a time (see the module docstring).
    """
    fields = np.asarray(fields, dtype=np.complex128)
    if isinstance(weights, tuple):
        conj_levels = [level.conj() for level in _level_vectors(weights)]
        n, n_entries = len(conj_levels), math.prod(cl.size for cl in conj_levels)
    else:
        w_conj = np.asarray(weights, dtype=np.complex128).conj()
        if w_conj.ndim != 2 or w_conj.shape[0] < 1:
            raise ValueError("weights must be a non-empty (entries, antennas) matrix")
        n_entries, n = w_conj.shape
    if fields.ndim != 2 or fields.shape[1] != n:
        raise ValueError(f"fields must be a (vectors, {n}) array")
    n_rows = fields.shape[0]
    best = np.empty(n_rows)
    index = np.empty(n_rows, dtype=np.intp)
    step = max(1, _BLOCK_PRODUCTS // n_entries)
    for lo in range(0, n_rows, step):
        block = np.ascontiguousarray(fields[lo : lo + step])
        if not isinstance(weights, tuple):
            z = (w_conj * block[:, None, :]).sum(axis=-1)
            power = z.real * z.real + z.imag * z.imag
        else:
            # term i is (vectors, 1, .., levels at axis i + 1, .., 1):
            # broadcasting the add tree lays entries out in digit order
            terms = []
            for i, cl in enumerate(conj_levels):
                shape = [len(block)] + [1] * n
                shape[i + 1] = cl.size
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
    return Codebook(w / norms[:, None])


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


def gain_map(scheme: Codebook | str, field: AntennaFieldMap) -> np.ndarray:
    """Realized-gain map (dB) of a codebook, or of "mrc" for the bound.

    Exact nulls are -inf.  Codebook cells come from ``best_entries``, so they
    equal a naive exhaustive search bit for bit.
    """
    if isinstance(scheme, str):
        if scheme != "mrc":
            raise ValueError(f"unknown scheme {scheme!r}; expected 'mrc' or a Codebook")
        s = field.samples
        return power_db((s.real * s.real + s.imag * s.imag).sum(axis=0))
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
        "mrc": lambda field: gain_map("mrc", field),
        "directional": lambda field: gain_map(
            directional_codebook(field.n_antennas, n_beams, element_spacing, quant_bits), field
        ),
    }
    for b in b_values:
        maps[f"enh_phase_b{b}"] = lambda f, b=b: gain_map(enh_phase_codebook(f.n_antennas, b), f)
        maps[f"enh_phase_amp_b{b}"] = lambda f, b=b: amp_gain_map(f, b)
    return maps
