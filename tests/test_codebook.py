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
    BeamWeight,
    Codebook,
    StrengthVector,
    _add_tree,
    amp_gain_map,
    best_entries,
    directional_codebook,
    element_strengths,
    element_sweep_codebook,
    enh_phase_amp_codebook,
    enh_phase_codebook,
    gain_map,
    mrc_weights,
    optimal_gain,
    phase_lattice,
    phase_levels,
    realized_gain,
)
from beamshadow.fields import AntennaFieldMap
from beamshadow.metrics import RoIMask, rect_roi
from conftest import random_field_vector


def naive_best_entry(codebook, e):
    """Reference search: per-entry 1-D sums, strict-improvement argmax."""
    best_p, best_k = -1.0, 0
    for k, entry in enumerate(codebook.entries):
        z = (entry.weights.conj() * e).sum()
        p = z.real * z.real + z.imag * z.imag
        if p > best_p:
            best_p, best_k = p, k
    return 10.0 * math.log10(best_p), best_k


def place_vector(grid, e):
    """Constant-field wrapper so vector-level checks can use the map API."""
    from beamshadow.fields import AntennaFieldMap

    e = np.asarray(e, dtype=complex)
    samples = np.broadcast_to(e[:, None, None], (len(e),) + grid.shape).copy()
    return AntennaFieldMap(grid=grid, samples=samples, label="vec")


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


class TestDirectionalCodebook:
    def test_default_beam_count_equals_antennas(self):
        cbk = directional_codebook(4)
        assert cbk.kind == "directional"
        assert len(cbk.entries) == 4
        assert [e.tag for e in cbk.entries] == [f"directional:{j}" for j in (1, 2, 3, 4)]

    def test_entries_are_unit_norm(self):
        for e in directional_codebook(4).entries:
            assert np.linalg.norm(e.weights) == pytest.approx(1.0, abs=1e-12)

    def test_phases_sit_on_quantizer_lattice(self):
        cbk = directional_codebook(4, quant_bits=5)
        lattice = 2.0 * math.pi / 2**5
        for e in cbk.entries:
            ang = np.mod(np.angle(e.weights), 2.0 * math.pi)
            k = np.round(ang / lattice)
            assert np.allclose(ang - k * lattice, 0.0, atol=1e-9)

    def test_unquantized_limit_matches_steering_formula(self):
        n = 4
        cbk = directional_codebook(n, quant_bits=16)
        for j, e in enumerate(cbk.entries, start=1):
            u = -1.0 + (2.0 * j - 1.0) / n
            expected = np.exp(-2j * math.pi * 0.5 * np.arange(n) * u) / math.sqrt(n)
            # same complex direction per element up to fine quantization
            assert np.allclose(e.weights, expected, atol=1e-3)

    def test_beam_count_override(self):
        assert len(directional_codebook(4, n_beams=16).entries) == 16


class TestEnhancedCodebooks:
    def test_cardinalities(self):
        assert len(enh_phase_codebook(4, 2).entries) == 64
        assert len(enh_phase_codebook(4, 3).entries) == 512
        assert len(enh_phase_codebook(3, 2).entries) == 16

    def test_first_antenna_phase_is_fixed(self):
        cbk = enh_phase_codebook(4, 2)
        w = cbk.weight_matrix
        assert np.allclose(w[:, 0], 0.5)  # 1/sqrt(4), zero phase
        mags = np.abs(w)
        assert np.allclose(mags, 0.5, atol=1e-12)

    def test_entry_tags_enumerate_digits(self):
        cbk = enh_phase_codebook(3, 1)
        assert [e.tag for e in cbk.entries] == [
            "enh-phase:0,0",
            "enh-phase:0,1",
            "enh-phase:1,0",
            "enh-phase:1,1",
        ]

    def test_size_guard(self):
        with pytest.raises(ValueError, match="entries"):
            enh_phase_codebook(9, 3)
        assert MAX_ENH_ENTRIES == 1_000_000

    def test_known_winner_for_quarter_turn_field(self, coarse_grid):
        """E = [1, j, -1, -j] is exactly matched by one 2-bit entry."""
        e = np.array([1.0, 1.0j, -1.0, -1.0j])
        cbk = enh_phase_codebook(4, 2)
        g, k = realized_gain(cbk, place_vector(coarse_grid, e), 0.0, 0.0)
        assert k == 27
        assert cbk.entries[k].tag == "enh-phase:1,2,3"
        assert g == pytest.approx(10.0 * math.log10(4.0), abs=1e-12)
        # brute reference agrees bit-for-bit
        g2, k2 = naive_best_entry(cbk, e)
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
        for e in cbk.entries:
            assert np.linalg.norm(e.weights) == pytest.approx(1.0, abs=1e-12)

    def test_strength_vector_validation(self):
        with pytest.raises(ValueError, match="all be zero|not all"):
            StrengthVector((0.0, 0.0))
        with pytest.raises(ValueError, match=">= 0"):
            StrengthVector((1.0, -1.0))


class TestSweepAndWeights:
    def test_element_sweep_selects_single_antennas(self):
        cbk = element_sweep_codebook(3)
        assert np.array_equal(cbk.weight_matrix, np.eye(3, dtype=complex))
        assert [e.tag for e in cbk.entries] == ["element:0", "element:1", "element:2"]

    def test_beam_weight_norm_guard(self):
        with pytest.raises(ValueError, match="norm"):
            BeamWeight(np.array([1.0, 1.0], dtype=complex), tag="bad")

    def test_codebook_cardinality_invariants(self):
        entries = enh_phase_codebook(4, 2).entries[:10]
        with pytest.raises(ValueError, match="cardinality|entries"):
            Codebook(kind="enh-phase", n_antennas=4, entries=entries, b_bits=2)

    def test_element_strengths(self, free_field):
        s = element_strengths(free_field, 90.0, 270.0)
        e = free_field.at(90.0, 270.0)
        assert np.allclose(s.values, np.abs(e) ** 2, rtol=1e-12)


class TestMrcAndRealized:
    def test_mrc_achieves_optimal(self, blocked_field, coarse_grid):
        for theta, phi in [(90.0, 270.0), (60.0, 200.0), (120.0, 300.0)]:
            w = mrc_weights(blocked_field, theta, phi)
            e = blocked_field.at(theta, phi)
            z = (w.weights.conj() * e).sum()
            g = 10.0 * math.log10(z.real * z.real + z.imag * z.imag)
            assert g == pytest.approx(optimal_gain(blocked_field, theta, phi), abs=1e-12)

    def test_optimal_gain_equal_amplitudes(self, coarse_grid):
        fld = place_vector(coarse_grid, [1.0, 1.0, 1.0, 1.0])
        assert optimal_gain(fld, 0.0, 0.0) == pytest.approx(10.0 * math.log10(4.0), abs=1e-12)

    def test_mrc_rejects_zero_field(self, coarse_grid):
        fld = place_vector(coarse_grid, [0.0, 0.0])
        with pytest.raises(ValueError):
            mrc_weights(fld, 0.0, 0.0)

    def test_realized_never_beats_optimal(self, blocked_field, rng):
        books = [
            directional_codebook(4),
            enh_phase_codebook(4, 2),
            element_sweep_codebook(4),
        ]
        thetas = rng.choice(blocked_field.grid.thetas, 10)
        phis = rng.choice(blocked_field.grid.phis, 10)
        for theta, phi in zip(thetas, phis):
            opt = optimal_gain(blocked_field, theta, phi)
            for cbk in books:
                g, _ = realized_gain(cbk, blocked_field, theta, phi)
                assert g <= opt + 1e-9

    def test_global_phase_invariance(self, coarse_grid, rng):
        cbk = enh_phase_codebook(4, 3)
        for _ in range(20):
            e = random_field_vector(rng)
            g1, k1 = realized_gain(cbk, place_vector(coarse_grid, e), 0.0, 0.0)
            rotated = e * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            g2, k2 = realized_gain(cbk, place_vector(coarse_grid, rotated), 0.0, 0.0)
            assert k1 == k2
            assert g1 == pytest.approx(g2, abs=1e-9)

    def test_tie_prefers_first_entry(self, coarse_grid):
        # every sweep entry sees the same power on an equal-amplitude field
        fld = place_vector(coarse_grid, [1.0, 1.0j, -1.0, 1.0j])
        _, k = realized_gain(element_sweep_codebook(4), fld, 0.0, 0.0)
        assert k == 0


class TestGainMaps:
    def test_map_matches_pointwise_evaluation(self, blocked_field, coarse_grid):
        # both sides go through best_entries, so this checks routing only;
        # the naive-enumeration tests at the end of this file are the coverage
        cbk = enh_phase_codebook(4, 2)
        gm = gain_map(cbk, blocked_field)
        for theta, phi in [(90.0, 270.0), (0.0, 0.0), (175.0, 355.0), (45.0, 180.0)]:
            it, ip = coarse_grid.index_of(theta, phi)
            g, _ = realized_gain(cbk, blocked_field, theta, phi)
            assert gm[it, ip] == g

    def test_mrc_map_matches_optimal(self, blocked_field, coarse_grid):
        gm = gain_map("mrc", blocked_field)
        it, ip = coarse_grid.index_of(100.0, 240.0)
        assert gm[it, ip] == pytest.approx(optimal_gain(blocked_field, 100.0, 240.0), abs=1e-12)

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
            s = element_strengths(blocked_field, theta, phi)
            cbk = enh_phase_amp_codebook(4, 2, s)
            g, _ = realized_gain(cbk, blocked_field, theta, phi)
            it, ip = coarse_grid.index_of(theta, phi)
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
    grid = bs.make_grid(90.0, 180.0)
    fld = place_vector(grid, e)
    g, _ = realized_gain(enh_phase_codebook(4, b), fld, 0.0, 0.0)
    assert g <= optimal_gain(fld, 0.0, 0.0) + 1e-9


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


@given(st.integers(1, 6), st.integers(1, 3), st.sampled_from([1, 7, 1 << 14]), st.data())
def test_property_search_equals_naive_enumeration(n, b, block, data):
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
            g, k = realized_gain(cbk, fld, grid.thetas[it], grid.phis[ip])
            assert (g, k) == (want_phase_db[cell], want_index[cell])


@given(st.integers(1, 6), st.integers(1, 9), st.sampled_from([1, 7, 1 << 14]), st.data())
def test_property_generic_search_equals_naive_enumeration(n, beams, block, data):
    grid = bs.make_grid(45.0, 90.0)
    fld, vectors, _ = draw_field(data, grid, n)
    for cbk in (directional_codebook(n, beams), element_sweep_codebook(n)):
        want, want_index = naive_search(cbk.weight_matrix, vectors)
        with mock.patch.object(codebook_module, "_BLOCK_PRODUCTS", block):
            power, index = best_entries(cbk.weight_matrix, vectors)
            got_map = gain_map(cbk, fld).reshape(-1)
        assert power.tobytes() == want.tobytes()
        assert index.tolist() == want_index.tolist()
        assert got_map.tobytes() == naive_db(want).tobytes()


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
    got = _add_tree([terms[:, j] for j in range(n)])
    assert got.tobytes() == terms.sum(axis=-1).tobytes()
