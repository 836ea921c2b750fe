import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import beamshadow as bs
from beamshadow import codebook as codebook_module
from beamshadow.codebook import (
    MAX_ENH_ENTRIES,
    Codebook,
    StrengthVector,
    _add_tree,
    amp_gain_map,
    best_entries,
    directional_codebook,
    enh_phase_amp_codebook,
    enh_phase_codebook,
    gain_map,
    phase_lattice,
    phase_levels,
)
from beamshadow.fields import AntennaFieldMap
from beamshadow.metrics import RoIMask, rect_roi
from conftest import (
    cell_of,
    mrc_gain_db,
    naive_best_entry,
    random_field_vector,
    searched_entry,
    vector_at,
)


def place_vector(grid, e):
    """Constant-field wrapper so vector-level checks can use the map API."""
    from beamshadow.fields import AntennaFieldMap

    e = np.asarray(e, dtype=complex)
    samples = np.broadcast_to(e[:, None, None], (len(e),) + grid.shape).copy()
    return AntennaFieldMap(grid=grid, samples=samples, label="vec")


def phase_digits(weights, b_bits):
    """Index of every weight's phase on the 2**B-level lattice, read back from
    the matrix with np.angle."""
    step = 2.0 * math.pi / 2**b_bits
    return np.round(np.mod(np.angle(weights), 2.0 * math.pi) / step).astype(int) % 2**b_bits


class TestPhaseLevels:
    def test_two_bit_levels(self):
        assert np.array_equal(phase_levels(2), [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])

    def test_levels_nest_exactly(self):
        # doubling the resolution keeps every coarse level bit-for-bit
        for b in (1, 2, 3, 4):
            assert np.array_equal(phase_levels(b), phase_levels(b + 1)[::2])

    def test_bounds(self):
        with pytest.raises(ValueError):
            phase_levels(0)
        with pytest.raises(ValueError):
            phase_levels(17)

    @pytest.mark.parametrize("b", [2.0, 2.5, True, "2"])
    def test_non_integer_b_refused(self, b):
        with pytest.raises(ValueError, match="b_bits must be an integer"):
            phase_levels(b)

    def test_numpy_integer_b_accepted(self):
        assert np.array_equal(phase_levels(np.int64(3)), phase_levels(3))

    def test_non_integer_quant_bits_refused(self):
        # 2**5.5 levels would silently build a 46-level quantizer
        with pytest.raises(ValueError, match="must be an integer"):
            directional_codebook(4, quant_bits=5.5)


class TestDirectionalCodebook:
    def test_default_beam_count_equals_antennas(self):
        cbk = directional_codebook(4)
        assert cbk.kind == "directional"
        assert len(cbk) == 4
        assert cbk.n_antennas == 4
        assert cbk.weight_matrix.shape == (4, 4)

    def test_entries_are_unit_norm(self):
        for w in directional_codebook(4).weight_matrix:
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)

    def test_phases_sit_on_quantizer_lattice(self):
        cbk = directional_codebook(4, quant_bits=5)
        lattice = 2.0 * math.pi / 2**5
        for w in cbk.weight_matrix:
            ang = np.mod(np.angle(w), 2.0 * math.pi)
            k = np.round(ang / lattice)
            assert np.allclose(ang - k * lattice, 0.0, atol=1e-9)

    def test_unquantized_limit_matches_steering_formula(self):
        n = 4
        cbk = directional_codebook(n, quant_bits=16)
        for j, w in enumerate(cbk.weight_matrix, start=1):
            u = -1.0 + (2.0 * j - 1.0) / n
            expected = np.exp(-2j * math.pi * 0.5 * np.arange(n) * u) / math.sqrt(n)
            # same complex direction per element up to fine quantization
            assert np.allclose(w, expected, atol=1e-3)

    def test_beam_count_override(self):
        assert len(directional_codebook(4, n_beams=16)) == 16
        assert len(directional_codebook(4, n_beams=np.int64(3))) == 3

    @pytest.mark.parametrize("beams", [2.5, 3.0, True, "3"])
    def test_non_integer_beam_count_refused(self, beams):
        # np.arange(1, 2.5 + 1) would silently build 3 beams
        with pytest.raises(ValueError, match="n_beams must be an integer"):
            directional_codebook(4, n_beams=beams)

    @pytest.mark.parametrize("n", [1, 4, 5])
    @pytest.mark.parametrize("q", [1, 3, 5, 8, 16])
    @pytest.mark.parametrize("beams", [None, 3])
    def test_quantizer_equals_integer_multiples_of_the_step(self, n, q, beams):
        """Phase level k is ``k * (2*pi / 2**q)``, computed here directly."""
        j = np.arange(1, (n if beams is None else beams) + 1, dtype=float)
        u = -1.0 + (2.0 * j - 1.0) / len(j)
        ideal = np.exp(-1j * 2.0 * math.pi * 0.5 * np.arange(n, dtype=float)[None, :] * u[:, None])
        step = 2.0 * math.pi / 2**q
        k = np.round(np.mod(np.angle(ideal), 2.0 * math.pi) / step).astype(np.int64) % 2**q
        w = np.exp(1j * (k * step)) / math.sqrt(n)
        w /= np.sqrt((w.real * w.real + w.imag * w.imag).sum(axis=1))[:, None]
        got = directional_codebook(n, beams, quant_bits=q).weight_matrix
        assert got.tobytes() == w.tobytes()

    @pytest.mark.parametrize("q", [0, 17, 64, -1])
    def test_quant_bits_range(self, q):
        with pytest.raises(ValueError, match="quant_bits must be in 1..16"):
            directional_codebook(4, quant_bits=q)


class TestEnhancedCodebooks:
    def test_cardinalities(self):
        assert len(enh_phase_codebook(4, 2)) == 64
        assert len(enh_phase_codebook(4, 3)) == 512
        assert len(enh_phase_codebook(3, 2)) == 16

    def test_first_antenna_phase_is_fixed(self):
        cbk = enh_phase_codebook(4, 2)
        w = cbk.weight_matrix
        assert np.allclose(w[:, 0], 0.5)  # 1/sqrt(4), zero phase
        mags = np.abs(w)
        assert np.allclose(mags, 0.5, atol=1e-12)

    def test_entry_tags_enumerate_digits(self):
        digits = phase_digits(enh_phase_codebook(3, 1).weight_matrix, 1)
        assert digits[:, 1:].tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
        assert (digits[:, 0] == 0).all()

    def test_size_guard(self):
        with pytest.raises(ValueError, match="entries"):
            enh_phase_codebook(9, 3)
        assert MAX_ENH_ENTRIES == 1_000_000

    @pytest.mark.parametrize("n", [1, 2])
    def test_b_bits_range_does_not_depend_on_antenna_count(self, n):
        for b in (0, 17):
            with pytest.raises(ValueError, match="b_bits must be in 1..16"):
                enh_phase_codebook(n, b)

    def test_known_winner_for_quarter_turn_field(self):
        """E = [1, j, -1, -j] is exactly matched by one 2-bit entry."""
        e = np.array([1.0, 1.0j, -1.0, -1.0j])
        cbk = enh_phase_codebook(4, 2)
        g, k = searched_entry(cbk.weight_matrix, e)
        assert k == 27
        assert phase_digits(cbk.weight_matrix[k], 2).tolist() == [0, 1, 2, 3]
        assert g == pytest.approx(10.0 * math.log10(4.0), abs=1e-12)
        # brute reference agrees bit-for-bit
        g2, k2 = naive_best_entry(cbk.weight_matrix, e)
        assert (g2, k2) == (g, k)

    def test_amp_codebook_equals_phase_codebook_for_equal_strengths(self):
        phase = enh_phase_codebook(4, 2)
        amp = enh_phase_amp_codebook(4, 2, StrengthVector((1.0, 1.0, 1.0, 1.0)))
        assert np.array_equal(amp.weight_matrix, phase.weight_matrix)
        assert amp.kind == "enh-phase-amp"

    def test_amp_codebook_weights_follow_strengths(self):
        s = StrengthVector((4.0, 1.0, 1.0, 0.0))
        cbk = enh_phase_amp_codebook(4, 2, s)
        mags = np.abs(cbk.weight_matrix)
        expected = np.sqrt(np.array([4.0, 1.0, 1.0, 0.0]) / 6.0)
        assert np.allclose(mags, expected[None, :], atol=1e-12)
        for w in cbk.weight_matrix:
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)

    def test_strength_vector_validation(self):
        with pytest.raises(ValueError, match="all be zero|not all"):
            StrengthVector((0.0, 0.0))
        with pytest.raises(ValueError, match=">= 0"):
            StrengthVector((1.0, -1.0))


class TestSweepAndWeights:
    def test_beam_weight_norm_guard(self):
        with pytest.raises(ValueError, match="norm"):
            Codebook("directional", np.array([[1.0, 1.0]], dtype=complex))

    def test_codebook_cardinality_invariants(self):
        rows = enh_phase_codebook(4, 2).weight_matrix[:10]
        with pytest.raises(ValueError, match="cardinality|entries"):
            Codebook(kind="enh-phase", weight_matrix=rows, b_bits=2)


def scalar_row_ok(row):
    """The per-vector norm check, one row at a time with a Python float."""
    row_power = row.real * row.real + row.imag * row.imag
    return abs(math.sqrt(float(row_power.sum())) - 1.0) <= 1e-12


@given(
    st.integers(1, 6),
    st.lists(st.integers(-15, 15), min_size=1, max_size=6),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_property_codebook_accepts_exactly_unit_norm_rows(n, offsets, fortran, seed):
    """Rows scaled by 1 + d*1e-13 land on both sides of the 1e-12 tolerance
    (|d| = 10 sits on it); the whole-matrix check must agree with the
    scalar check on every row and name the first failing entry."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((len(offsets), n)) + 1j * rng.standard_normal((len(offsets), n))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    rows *= 1.0 + np.array(offsets)[:, None] * 1e-13
    ok = [scalar_row_ok(r) for r in rows]
    given_rows = np.asfortranarray(rows) if fortran else rows
    if all(ok):
        cbk = Codebook("directional", given_rows)
        assert cbk.weight_matrix.tobytes() == rows.tobytes()
        assert (len(cbk), cbk.n_antennas) == rows.shape
    else:
        with pytest.raises(ValueError, match=f"entry {ok.index(False)}: weight vector norm"):
            Codebook("directional", given_rows)


class TestCodebookMatrix:
    def test_weight_matrix_is_read_only(self):
        cbk = enh_phase_codebook(3, 1)
        assert not cbk.weight_matrix.flags.writeable
        with pytest.raises(ValueError):
            cbk.weight_matrix[0, 0] = 0.0

    def test_weight_matrix_does_not_alias_the_input(self):
        rows = np.eye(3, dtype=complex)
        cbk = Codebook("directional", rows)
        assert not np.shares_memory(cbk.weight_matrix, rows)
        assert rows.flags.writeable
        rows[0] = rows[1]
        assert np.array_equal(cbk.weight_matrix, np.eye(3))

    @pytest.mark.parametrize(
        "rows, message",
        [
            (np.array([[1.0, np.nan], [0.0, 1.0]]), "finite"),
            (np.array([[np.inf, 0.0], [0.0, 1.0]]), "finite"),
            (np.array([1.0, 0.0]), "non-empty"),
            (np.zeros((0, 2)), "non-empty"),
        ],
    )
    def test_bad_matrices_raise(self, rows, message):
        with pytest.raises(ValueError, match=message):
            Codebook("directional", rows)

    def test_unknown_kind_and_missing_b_bits(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            Codebook("zap", np.eye(2))
        with pytest.raises(ValueError, match="b_bits"):
            Codebook("enh-phase", enh_phase_codebook(2, 1).weight_matrix)


class TestMrcAndRealized:
    def test_optimal_gain_equal_amplitudes(self, coarse_grid):
        fld = place_vector(coarse_grid, [1.0, 1.0, 1.0, 1.0])
        gm = gain_map("mrc", fld)
        assert gm == pytest.approx(np.full(coarse_grid.shape, 10.0 * math.log10(4.0)), abs=1e-12)

    def test_realized_never_beats_optimal(self, blocked_field, rng):
        books = [
            directional_codebook(4).weight_matrix,
            enh_phase_codebook(4, 2).weight_matrix,
            np.eye(4),  # single-antenna selection
        ]
        thetas = rng.choice(blocked_field.grid.thetas, 10)
        phis = rng.choice(blocked_field.grid.phis, 10)
        for theta, phi in zip(thetas, phis):
            e = vector_at(blocked_field, theta, phi)
            opt = mrc_gain_db(e)
            for weights in books:
                g, _ = searched_entry(weights, e)
                assert g <= opt + 1e-9

    def test_global_phase_invariance(self, rng):
        w = enh_phase_codebook(4, 3).weight_matrix
        for _ in range(20):
            e = random_field_vector(rng)
            g1, k1 = searched_entry(w, e)
            rotated = e * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            g2, k2 = searched_entry(w, rotated)
            assert k1 == k2
            assert g1 == pytest.approx(g2, abs=1e-9)

    def test_tie_prefers_first_entry(self):
        # every single-antenna entry sees the same power on an equal-amplitude field
        _, k = searched_entry(np.eye(4), np.array([1.0, 1.0j, -1.0, 1.0j]))
        assert k == 0


class TestGainMaps:
    def test_map_matches_pointwise_evaluation(self, blocked_field, coarse_grid):
        # both sides go through best_entries, so this checks routing only;
        # the naive-enumeration tests at the end of this file are the coverage
        cbk = enh_phase_codebook(4, 2)
        gm = gain_map(cbk, blocked_field)
        for theta, phi in [(90.0, 270.0), (0.0, 0.0), (175.0, 355.0), (45.0, 180.0)]:
            it, ip = cell_of(coarse_grid, theta, phi)
            g, _ = searched_entry(cbk.weight_matrix, vector_at(blocked_field, theta, phi))
            assert gm[it, ip] == g

    def test_mrc_map_matches_optimal(self, blocked_field, coarse_grid):
        gm = gain_map("mrc", blocked_field)
        it, ip = cell_of(coarse_grid, 100.0, 240.0)
        opt = mrc_gain_db(vector_at(blocked_field, 100.0, 240.0))
        assert gm[it, ip] == pytest.approx(opt, abs=1e-12)

    def test_roi_masks_cells_with_nan(self, blocked_field, coarse_grid):
        roi = rect_roi(coarse_grid)
        gm = gain_map("mrc", blocked_field, roi=roi)
        assert np.isnan(gm[~roi.mask]).all()
        assert np.isfinite(gm[roi.mask]).all()

    def test_unknown_scheme_rejected(self, blocked_field):
        with pytest.raises(ValueError, match="unknown scheme"):
            gain_map("zap", blocked_field)

    def test_more_phase_bits_never_hurt_anywhere(self, blocked_field):
        g2 = gain_map(enh_phase_codebook(4, 2), blocked_field)
        g3 = gain_map(enh_phase_codebook(4, 3), blocked_field)
        # the 2-bit entries are a subset of the 3-bit entries, exactly
        assert (g3 >= g2).all()

    def test_amp_map_more_bits_never_hurt(self, blocked_field):
        a2 = amp_gain_map(blocked_field, 2)
        a3 = amp_gain_map(blocked_field, 3)
        assert (a3 >= a2).all()

    def test_amp_map_matches_codebook_route(self, blocked_field, coarse_grid):
        am = amp_gain_map(blocked_field, 2)
        for theta, phi in [(90.0, 270.0), (75.0, 250.0), (130.0, 310.0)]:
            e = vector_at(blocked_field, theta, phi)
            cbk = enh_phase_amp_codebook(4, 2, StrengthVector(e.real * e.real + e.imag * e.imag))
            g, _ = searched_entry(cbk.weight_matrix, e)
            it, ip = cell_of(coarse_grid, theta, phi)
            assert am[it, ip] == pytest.approx(g, abs=1e-9)

    def test_directional_tracks_mrc_within_crossover_band(self):
        """Steered beams stay within the classic crossover gap of optimal.

        Along the boresight azimuth cut the directional loss oscillates
        between near-perfect alignment and the worst point between two
        beams; for a 4-element half-wavelength array that worst gap sits
        near 3.7 dB.
        """
        grid = bs.make_grid(1.0, 45.0)
        fld = bs.synth_freespace_field(bs.ArrayConfig(), grid)
        gap = gain_map("mrc", fld) - gain_map(directional_codebook(4), fld)
        cut = gap[:, list(grid.phis).index(270.0)]
        assert cut.min() <= 0.01
        assert 3.0 <= cut.max() <= 4.2
        assert (cut >= -1e-9).all()


@given(st.integers(1, 4), st.data())
def test_property_realized_bounded_by_optimal(b, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    e = random_field_vector(rng)
    g, _ = searched_entry(enh_phase_codebook(4, b).weight_matrix, e)
    assert g <= mrc_gain_db(e) + 1e-9


# --- the search kernel against a naive per-entry enumeration -----------------


def naive_search(weights, vectors):
    """Best |w^H e|^2 and first winning index per vector, one entry at a time.

    Each entry is applied to all vectors at once; a row sum of a C-ordered
    (vectors, N) array adds each row exactly as a 1-D ``.sum`` does.
    """
    vectors = np.ascontiguousarray(vectors)
    best = np.full(len(vectors), -1.0)
    index = np.zeros(len(vectors), dtype=np.intp)
    for k, w in enumerate(weights):
        z = (w.conj() * vectors).sum(axis=-1)
        p = z.real * z.real + z.imag * z.imag
        better = p > best
        best[better], index[better] = p[better], k
    return best, index


def naive_db(power, total=None):
    total = np.ones_like(power) if total is None else total
    return np.array(
        [
            -math.inf if p == 0.0 or t == 0.0 else 10.0 * math.log10(p / t)
            for p, t in zip(power.tolist(), total.tolist())
        ]
    )


def draw_field(data, grid, n):
    """Random cells mixed with exact-zero cells and small Gaussian-integer
    cells; the latter make equal-power entries (ties) common."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    cells = grid.n_directions
    kind = rng.integers(0, 4, cells)
    gauss = rng.standard_normal((cells, n)) + 1j * rng.standard_normal((cells, n))
    small = rng.integers(-1, 2, (cells, n)) + 1j * rng.integers(-1, 2, (cells, n))
    vectors = np.where((kind == 0)[:, None], gauss, small)
    vectors[kind == 3] = 0.0
    samples = np.ascontiguousarray(vectors.T).reshape((n,) + grid.shape)
    return AntennaFieldMap(grid=grid, samples=samples, label="drawn"), vectors, kind == 3


def draw_roi(data, grid):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(grid.shape) < 0.6
    return RoIMask(grid=grid, mask=mask, source="rect", area_fraction=grid.area_fraction(mask))


# (N, B) of the lattices searched: every N up to 9 at B = 1 (at most 256
# entries), so the add tree's last add is taken at every remainder N mod 4
# and after the strided accumulators of N >= 8
LATTICE_SHAPES = [(n, b) for n in range(1, 7) for b in (1, 2, 3)] + [(7, 1), (8, 1), (9, 1)]


@given(st.sampled_from(LATTICE_SHAPES), st.sampled_from([1, 7, 1 << 14]), st.data())
def test_property_search_equals_naive_enumeration(shape, block, data):
    n, b = shape
    grid = bs.make_grid(45.0, 90.0)
    fld, vectors, zero = draw_field(data, grid, n)
    roi = draw_roi(data, grid)
    inside = roi.mask.reshape(-1)
    cbk = enh_phase_codebook(n, b)
    u = phase_lattice(n, b)
    strengths = vectors.real * vectors.real + vectors.imag * vectors.imag
    want_phase, want_index = naive_search(cbk.weight_matrix, vectors)
    want_amp, _ = naive_search(u, np.sqrt(strengths) * vectors)
    want_phase_db = naive_db(want_phase)
    want_amp_db = naive_db(want_amp, strengths.sum(axis=1))
    assert np.isneginf(want_phase_db[zero]).all() and np.isneginf(want_amp_db[zero]).all()

    with mock.patch.object(codebook_module, "_BLOCK_PRODUCTS", block):
        power, index = best_entries(cbk.weight_matrix, vectors)
        assert power.tobytes() == want_phase.tobytes()
        assert index.tolist() == want_index.tolist()
        phase_map = gain_map(cbk, fld).reshape(-1)
        assert phase_map.tobytes() == want_phase_db.tobytes()
        amp_map = amp_gain_map(fld, b).reshape(-1)
        assert amp_map.tobytes() == want_amp_db.tobytes()
        roi_phase = gain_map(cbk, fld, roi=roi).reshape(-1)
        roi_amp = amp_gain_map(fld, b, roi=roi).reshape(-1)
        assert np.isnan(roi_phase[~inside]).all() and np.isnan(roi_amp[~inside]).all()
        assert roi_phase[inside].tobytes() == want_phase_db[inside].tobytes()
        assert roi_amp[inside].tobytes() == want_amp_db[inside].tobytes()
        for cell in range(0, grid.n_directions, 3):
            it, ip = divmod(cell, grid.n_phi)
            e = vector_at(fld, grid.thetas[it], grid.phis[ip])
            g, k = searched_entry(cbk.weight_matrix, e)
            assert (g, k) == (want_phase_db[cell], want_index[cell])


@given(st.integers(1, 6), st.integers(1, 9), st.sampled_from([1, 7, 1 << 14]), st.data())
def test_property_generic_search_equals_naive_enumeration(n, beams, block, data):
    grid = bs.make_grid(45.0, 90.0)
    fld, vectors, _ = draw_field(data, grid, n)
    cbk = directional_codebook(n, beams)
    for weights in (cbk.weight_matrix, np.eye(n, dtype=complex)):
        want, want_index = naive_search(weights, vectors)
        with mock.patch.object(codebook_module, "_BLOCK_PRODUCTS", block):
            power, index = best_entries(weights, vectors)
        assert power.tobytes() == want.tobytes()
        assert index.tolist() == want_index.tolist()
    with mock.patch.object(codebook_module, "_BLOCK_PRODUCTS", block):
        got_map = gain_map(cbk, fld).reshape(-1)
    assert got_map.tobytes() == naive_db(naive_search(cbk.weight_matrix, vectors)[0]).tobytes()


def test_lattice_path_handles_arbitrary_lattices():
    """Any matrix with the lattice layout takes the level path; breaking one
    entry sends it down the full-matrix path.  Both equal the naive search."""
    rng = np.random.default_rng(3)
    levels = [rng.standard_normal(1) + 0j] + [
        rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)
    ]
    w = np.array([[levels[0][0], a, b, c] for a, b, c in itertools.product(*levels[1:])])
    assert codebook_module._lattice_levels(w) is not None
    broken = w.copy()
    broken[5, 2] += 1.0
    assert codebook_module._lattice_levels(broken) is None
    vectors = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
    for matrix in (w, broken):
        power, index = best_entries(matrix, vectors)
        want, want_index = naive_search(matrix, vectors)
        assert power.tobytes() == want.tobytes()
        assert index.tolist() == want_index.tolist()


def test_search_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="fields must be"):
        best_entries(np.ones((2, 3)), np.ones((4, 2)))
    with pytest.raises(ValueError, match="weights must be"):
        best_entries(np.ones(3), np.ones((4, 3)))


@pytest.mark.parametrize("n", range(1, 21))
def test_add_tree_matches_numpy_row_sum(n):
    """The lattice path adds per-antenna terms in this order; it must be the
    order numpy's pairwise ``.sum(-1)`` uses for a complex row of n terms."""
    rng = np.random.default_rng(n)
    shape = (2000, n)
    scale = np.exp(rng.uniform(-30.0, 30.0, shape))
    terms = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    left, right = _add_tree([terms[:, j] for j in range(n)])
    assert (left + right).tobytes() == terms.sum(axis=-1).tobytes()
