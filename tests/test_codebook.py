import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
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
    scheme_maps,
)
from beamshadow.fields import AntennaFieldMap
from conftest import (
    cell_of,
    mrc_gain_db,
    mrc_map,
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
            directional_codebook(4, None, 0.5, 5.5)


class TestDirectionalCodebook:
    def test_default_beam_count_equals_antennas(self):
        cbk = directional_codebook(4, None, 0.5, 5)
        assert len(cbk) == 4
        assert cbk.n_antennas == 4
        assert cbk.weight_matrix.shape == (4, 4)

    def test_entries_are_unit_norm(self):
        for w in directional_codebook(4, None, 0.5, 5).weight_matrix:
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)

    def test_phases_sit_on_quantizer_lattice(self):
        cbk = directional_codebook(4, None, 0.5, 5)
        lattice = 2.0 * math.pi / 2**5
        for w in cbk.weight_matrix:
            ang = np.mod(np.angle(w), 2.0 * math.pi)
            k = np.round(ang / lattice)
            assert np.allclose(ang - k * lattice, 0.0, atol=1e-9)

    def test_unquantized_limit_matches_steering_formula(self):
        n = 4
        cbk = directional_codebook(n, None, 0.5, 16)
        for j, w in enumerate(cbk.weight_matrix, start=1):
            u = -1.0 + (2.0 * j - 1.0) / n
            expected = np.exp(-2j * math.pi * 0.5 * np.arange(n) * u) / math.sqrt(n)
            # same complex direction per element up to fine quantization
            assert np.allclose(w, expected, atol=1e-3)

    def test_beam_count_override(self):
        assert len(directional_codebook(4, 16, 0.5, 5)) == 16
        assert len(directional_codebook(4, np.int64(3), 0.5, 5)) == 3

    @pytest.mark.parametrize("beams", [2.5, 3.0, True, "3"])
    def test_non_integer_beam_count_refused(self, beams):
        # np.arange(1, 2.5 + 1) would silently build 3 beams
        with pytest.raises(ValueError, match="n_beams must be an integer"):
            directional_codebook(4, beams, 0.5, 5)

    def test_beam_count_above_the_entry_limit_refused(self):
        # checked before the (n_beams, N) weights are allocated
        with pytest.raises(ValueError, match=r"n_beams must be in 1\.\.1000000, got 1000001"):
            directional_codebook(4, MAX_ENH_ENTRIES + 1, 0.5, 5)

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
        got = directional_codebook(n, beams, 0.5, q).weight_matrix
        assert got.tobytes() == w.tobytes()

    @pytest.mark.parametrize("q", [0, 17, 64, -1])
    def test_quant_bits_range(self, q):
        with pytest.raises(ValueError, match="quant_bits must be in 1..16"):
            directional_codebook(4, None, 0.5, q)


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

    def test_size_guard_refuses_exactly_the_lattices_past_the_limit(self):
        """The guard reads the exponent B*(N-1); it refuses exactly when the
        count (2**B)**(N-1) exceeds ``MAX_ENH_ENTRIES``."""
        for n in range(1, 25):
            for b in range(1, 17):
                too_big = (2**b) ** (n - 1) > MAX_ENH_ENTRIES
                try:
                    phase_lattice(n, b)
                except ValueError as exc:
                    assert too_big and "entries (limit 1000000)" in str(exc), (n, b)
                else:
                    assert not too_big, (n, b)

    @pytest.mark.parametrize("n", [1, 2])
    def test_b_bits_range_does_not_depend_on_antenna_count(self, n):
        for b in (0, 17):
            with pytest.raises(ValueError, match="b_bits must be in 1..16"):
                enh_phase_codebook(n, b)

    def test_known_winner_for_quarter_turn_field(self):
        """E = [1, j, -1, -j] is exactly matched by one 2-bit entry."""
        e = np.array([1.0, 1.0j, -1.0, -1.0j])
        cbk = enh_phase_codebook(4, 2)
        g, k = searched_entry(cbk.weights, e)
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
            Codebook((np.ones(1), np.ones(1)))

    def test_a_matrix_is_given_as_its_columns(self):
        """The N columns of a (J, N) matrix share one entry axis: the codebook
        has J entries, the matrix's rows, and is not read as a lattice."""
        matrix = directional_codebook(4, 6, 0.5, 5).weight_matrix
        cbk = Codebook(tuple(matrix.T))
        assert (len(cbk), cbk.n_antennas) == (6, 4)
        assert cbk.weight_matrix.tobytes() == matrix.tobytes()


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
    (|d| = 10 sits on it); the check of the matrix's columns must agree with
    the scalar check on every row and name the first failing entry."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((len(offsets), n)) + 1j * rng.standard_normal((len(offsets), n))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    rows *= 1.0 + np.array(offsets)[:, None] * 1e-13
    ok = [scalar_row_ok(r) for r in rows]
    columns = tuple((np.asfortranarray(rows) if fortran else rows).T)
    if all(ok):
        cbk = Codebook(columns)
        assert cbk.weight_matrix.tobytes() == rows.tobytes()
        assert (len(cbk), cbk.n_antennas) == rows.shape
    else:
        with pytest.raises(ValueError, match=f"entry {ok.index(False)}: weight vector norm"):
            Codebook(columns)


def levels_with_extreme_norms(sizes, d_low, d_high, rng):
    """Random per-antenna level vectors whose lattice's smallest and largest
    entry norms sit at 1 + d*1e-13 for d = d_low <= d_high: each level's
    squared magnitude is an affine image of a random power, which keeps the
    entries' order by norm; a one-entry lattice takes d_low."""
    powers = [rng.random(k) + 0.5 for k in sizes]
    low, high = sum(p.min() for p in powers), sum(p.max() for p in powers)
    t_low, t_high = (1.0 + d_low * 1e-13) ** 2, (1.0 + d_high * 1e-13) ** 2
    scale = (t_high - t_low) / (high - low) if high > low else 0.0
    shift = (t_low - scale * low) / len(sizes)
    return tuple(
        np.sqrt(scale * p + shift) * np.exp(2j * math.pi * rng.random(p.size)) for p in powers
    )


off_tolerance = st.integers(-15, 15).filter(lambda d: abs(d) != 10)


@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=6),
    off_tolerance,
    off_tolerance,
    st.sampled_from([1, 7, 1 << 14]),
    st.integers(0, 2**32 - 1),
)
def test_property_lattice_accepts_exactly_unit_norm_entries(sizes, d1, d2, block, seed):
    """A lattice, checked a block of entries at a time, must accept exactly
    when every row of its expanded matrix passes the scalar per-row check,
    and else name the first row that fails."""
    d_low, d_high = sorted((d1, d2)) if math.prod(sizes) > 1 else (d1, d1)
    levels = placed(levels_with_extreme_norms(sizes, d_low, d_high, np.random.default_rng(seed)))
    ok = [scalar_row_ok(row) for row in lattice_matrix(levels)]
    # |d| = 10 sits on the tolerance, so the construction lands on one side
    assert all(ok) == (max(abs(d_low), abs(d_high)) < 10)
    with mock.patch.object(codebook_module, "_BLOCK_PRODUCTS", block):
        if all(ok):
            cbk = Codebook(levels)
            assert cbk.weight_matrix.tobytes() == lattice_matrix(levels).tobytes()
            assert (len(cbk), cbk.n_antennas) == (math.prod(sizes), len(sizes))
        else:
            with pytest.raises(ValueError, match=f"entry {ok.index(False)}: weight vector norm"):
                Codebook(levels)


def test_enhanced_codebooks_are_built_without_their_matrix():
    """An 18-antenna B=1 lattice has 131072 entries, 37.7 MB as a matrix;
    neither its codebook nor the scheme table expands it.  The table builds
    nothing, and its row searches an 18-antenna field one direction at a
    time, in a few MB."""
    import tracemalloc

    grid = bs.make_grid(90.0, 180.0)
    field = AntennaFieldMap(grid, np.ones((18, *grid.shape), dtype=complex))
    phase_lattice.cache_clear()
    tracemalloc.start()
    try:
        cbk = enh_phase_codebook(18, 1)
        codebook_peak = tracemalloc.get_traced_memory()[1]
        phase_lattice.cache_clear()
        tracemalloc.reset_peak()
        maps = scheme_maps((1,), None, 0.5, 5)
        maps_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        gains = maps["enh_phase_b1"](field)
        search_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cbk) == 2**17
    assert codebook_peak < 1 << 20
    assert maps_peak < 1 << 20
    assert search_peak < 1 << 23
    assert np.allclose(gains, 10.0 * math.log10(18))  # equal phases are an entry


class TestCodebookMatrix:
    def test_weight_matrix_is_read_only(self):
        cbk = enh_phase_codebook(3, 1)
        assert not cbk.weight_matrix.flags.writeable
        with pytest.raises(ValueError):
            cbk.weight_matrix[0, 0] = 0.0

    def test_weights_do_not_alias_the_input(self):
        columns = tuple(np.eye(3, dtype=complex))
        cbk = Codebook(columns)
        assert not any(np.shares_memory(w, c) for w, c in zip(cbk.weights, columns))
        assert all(c.flags.writeable for c in columns)
        columns[0][:] = columns[1]
        assert np.array_equal(cbk.weight_matrix, np.eye(3))

    @pytest.mark.parametrize(
        "weights, message",
        [
            # a weight that is not finite makes its entry's norm not finite
            ((np.array([1.0, 0.0]), np.array([np.nan, 1.0])), "entry 0: weight vector norm nan"),
            ((np.array([np.inf, 0.0]), np.array([0.0, 1.0])), "entry 0: weight vector norm inf"),
            ((), "weights must be"),
            ((np.zeros(0), np.zeros(0)), "weights must be"),
            ((np.ones(2), np.ones(3)), "weights must be"),
            # every entry is checked, so each non-finite weight is found
            ((np.full(1, 0.6), np.array([0.8, np.nan, -0.8])), "entry 1: weight vector norm nan"),
            ((np.full(1, 0.6), np.array([0.8, np.inf, -0.8])), "entry 1: weight vector norm inf"),
            ((np.full(1, 0.6), np.array([0.8, complex(0.8, np.nan), -0.8])), "entry 1: .* nan"),
        ],
    )
    def test_bad_weights_raise(self, weights, message):
        with pytest.raises(ValueError, match=message):
            Codebook(weights)


class TestMrcAndRealized:
    def test_optimal_gain_equal_amplitudes(self, coarse_grid):
        fld = place_vector(coarse_grid, [1.0, 1.0, 1.0, 1.0])
        gm = mrc_map(fld)
        assert gm == pytest.approx(np.full(coarse_grid.shape, 10.0 * math.log10(4.0)), abs=1e-12)

    def test_realized_never_beats_optimal(self, blocked_field, rng):
        books = [
            directional_codebook(4, None, 0.5, 5).weights,
            enh_phase_codebook(4, 2).weights,
            tuple(np.eye(4)),  # single-antenna selection
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
        w = enh_phase_codebook(4, 3).weights
        for _ in range(20):
            e = random_field_vector(rng)
            g1, k1 = searched_entry(w, e)
            rotated = e * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            g2, k2 = searched_entry(w, rotated)
            assert k1 == k2
            assert g1 == pytest.approx(g2, abs=1e-9)

    def test_tie_prefers_first_entry(self):
        # every single-antenna entry sees the same power on an equal-amplitude field
        _, k = searched_entry(tuple(np.eye(4)), np.array([1.0, 1.0j, -1.0, 1.0j]))
        assert k == 0


class TestGainMaps:
    def test_map_matches_pointwise_evaluation(self, blocked_field, coarse_grid):
        # both sides go through best_entries, so this checks routing only;
        # the naive-enumeration tests at the end of this file are the coverage
        cbk = enh_phase_codebook(4, 2)
        gm = gain_map(cbk, blocked_field)
        for theta, phi in [(90.0, 270.0), (0.0, 0.0), (175.0, 355.0), (45.0, 180.0)]:
            it, ip = cell_of(coarse_grid, theta, phi)
            g, _ = searched_entry(cbk.weights, vector_at(blocked_field, theta, phi))
            assert gm[it, ip] == g

    def test_mrc_map_matches_optimal(self, blocked_field, coarse_grid):
        gm = mrc_map(blocked_field)
        it, ip = cell_of(coarse_grid, 100.0, 240.0)
        opt = mrc_gain_db(vector_at(blocked_field, 100.0, 240.0))
        assert gm[it, ip] == pytest.approx(opt, abs=1e-12)

    def test_codebook_of_another_antenna_count_rejected(self, blocked_field):
        with pytest.raises(ValueError, match="antenna counts differ"):
            gain_map(enh_phase_codebook(3, 2), blocked_field)

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
            g, _ = searched_entry(cbk.weights, e)
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
        gap = mrc_map(fld) - gain_map(directional_codebook(4, None, 0.5, 5), fld)
        cut = gap[:, list(grid.phis).index(270.0)]
        assert cut.min() <= 0.01
        assert 3.0 <= cut.max() <= 4.2
        assert (cut >= -1e-9).all()


@given(st.integers(1, 4), st.data())
def test_property_realized_bounded_by_optimal(b, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    e = random_field_vector(rng)
    g, _ = searched_entry(enh_phase_codebook(4, b).weights, e)
    assert g <= mrc_gain_db(e) + 1e-9


# --- the search kernel against a naive per-entry enumeration -----------------


def placed(levels):
    """1-D level vectors as ``Codebook`` weights: antenna i's on axis i."""
    return tuple(np.reshape(v, (-1,) + (1,) * (len(levels) - 1 - i)) for i, v in enumerate(levels))


def lattice_matrix(levels):
    """The (entries, N) matrix of a lattice, antenna 1 the slowest digit,
    enumerated by ``itertools.product`` over its levels."""
    return np.array(list(itertools.product(*map(np.ravel, levels))), dtype=complex)


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


# (N, B) of the lattices searched: every N up to 9 at B = 1 (at most 256
# entries), so the add tree's last add is taken at every remainder N mod 4
# and after the strided accumulators of N >= 8
LATTICE_SHAPES = [(n, b) for n in range(1, 7) for b in (1, 2, 3)] + [(7, 1), (8, 1), (9, 1)]


@given(st.sampled_from(LATTICE_SHAPES), st.sampled_from([1, 7, 1 << 14]), st.data())
def test_property_search_equals_naive_enumeration(shape, block, data):
    n, b = shape
    grid = bs.make_grid(45.0, 90.0)
    fld, vectors, zero = draw_field(data, grid, n)
    cbk = enh_phase_codebook(n, b)
    u = lattice_matrix(phase_lattice(n, b))
    strengths = vectors.real * vectors.real + vectors.imag * vectors.imag
    want_phase, want_index = naive_search(cbk.weight_matrix, vectors)
    want_amp, _ = naive_search(u, np.sqrt(strengths) * vectors)
    want_phase_db = naive_db(want_phase)
    want_amp_db = naive_db(want_amp, strengths.sum(axis=1))
    assert np.isneginf(want_phase_db[zero]).all() and np.isneginf(want_amp_db[zero]).all()

    with mock.patch.object(codebook_module, "_BLOCK_PRODUCTS", block):
        power, index = best_entries(cbk.weights, vectors)
        assert power.tobytes() == want_phase.tobytes()
        assert index.tolist() == want_index.tolist()
        phase_map = gain_map(cbk, fld).reshape(-1)
        assert phase_map.tobytes() == want_phase_db.tobytes()
        amp_map = amp_gain_map(fld, b).reshape(-1)
        assert amp_map.tobytes() == want_amp_db.tobytes()
        for cell in range(0, grid.n_directions, 3):
            it, ip = divmod(cell, grid.n_phi)
            e = vector_at(fld, grid.thetas[it], grid.phis[ip])
            g, k = searched_entry(cbk.weights, e)
            assert (g, k) == (want_phase_db[cell], want_index[cell])


@given(st.integers(1, 6), st.integers(1, 9), st.sampled_from([1, 7, 1 << 14]), st.data())
def test_property_generic_search_equals_naive_enumeration(n, beams, block, data):
    grid = bs.make_grid(45.0, 90.0)
    fld, vectors, _ = draw_field(data, grid, n)
    cbk = directional_codebook(n, beams, 0.5, 5)
    for matrix in (cbk.weight_matrix, np.eye(n, dtype=complex)):
        want, want_index = naive_search(matrix, vectors)
        with mock.patch.object(codebook_module, "_BLOCK_PRODUCTS", block):
            power, index = best_entries(tuple(matrix.T), vectors)
        assert power.tobytes() == want.tobytes()
        assert index.tolist() == want_index.tolist()
    with mock.patch.object(codebook_module, "_BLOCK_PRODUCTS", block):
        got_map = gain_map(cbk, fld).reshape(-1)
    assert got_map.tobytes() == naive_db(naive_search(cbk.weight_matrix, vectors)[0]).tobytes()


# level values for the drawn lattices: signed zeros, exact zeros and
# Gaussian-integer parts (ties) as well as random doubles
LEVEL_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
)
LEVELS = st.lists(
    st.lists(st.builds(complex, LEVEL_PARTS, LEVEL_PARTS), min_size=2, max_size=8),
    min_size=1,
    max_size=6,
)


@given(LEVELS, st.sampled_from([1, 7, 1 << 14]), st.integers(0, 2**32 - 1))
def test_property_level_path_equals_matrix_path_and_naive(levels, block, seed):
    """Any lattice searches, bit for bit and with the same lowest index, as
    the columns of its expanded matrix and as the naive search.  Lattices
    above 2**12 entries are skipped to bound the naive search."""
    assume(math.prod(len(v) for v in levels) <= 1 << 12)
    levels = placed([np.array(v) for v in levels])
    matrix = lattice_matrix(levels)
    rng = np.random.default_rng(seed)
    n = len(levels)
    vectors = rng.standard_normal((40, n)) + 1j * rng.standard_normal((40, n))
    vectors[::3] = rng.integers(-1, 2, (14, n)) + 1j * rng.integers(-1, 2, (14, n))
    vectors[::7] = 0.0
    want, want_index = naive_search(matrix, vectors)
    with mock.patch.object(codebook_module, "_BLOCK_PRODUCTS", block):
        for weights in (levels, tuple(matrix.T)):
            power, index = best_entries(weights, vectors)
            assert power.tobytes() == want.tobytes()
            assert index.tolist() == want_index.tolist()


def pre_level_phase_lattice(n, b):
    """The phase lattice built directly as an (entries, N) matrix, digit by
    digit: the reference for the bytes expanded from level vectors."""
    levels = phase_levels(b)
    total = len(levels) ** (n - 1)
    idx = np.arange(total, dtype=np.int64)[:, None]
    place = len(levels) ** np.arange(n - 2, -1, -1, dtype=np.int64)[None, :]
    phases = np.zeros((total, n))
    phases[:, 1:] = levels[(idx // place) % len(levels)]
    return np.exp(1j * phases)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("b", (1, 2, 3))
def test_enhanced_weight_matrices_keep_their_bytes(n, b):
    rng = np.random.default_rng(10 * n + b)
    u = pre_level_phase_lattice(n, b)
    phase = enh_phase_codebook(n, b)
    assert phase.weight_matrix.tobytes() == (u / math.sqrt(n)).tobytes()
    assert phase.weight_matrix.tobytes() == lattice_matrix(phase.weights).tobytes()
    for sv in (np.ones(n), rng.random(n), rng.random(n) * 1e-300, np.r_[1.0, np.zeros(n - 1)]):
        amp = enh_phase_amp_codebook(n, b, sv)
        want = (np.sqrt(sv)[None, :] * u) / math.sqrt(sv.sum())
        assert amp.weight_matrix.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "weights",
    [(), (np.ones(1), np.ones(0)), (np.ones(2), np.ones(3)), (np.ones((2, 1)), np.ones((3, 2))),
     (np.ones(1),) * 65],
)
def test_malformed_weight_tuples_are_refused(weights):
    with pytest.raises(ValueError, match="weights must be 1..64 arrays"):
        best_entries(weights, np.ones((3, max(len(weights), 1))))
    with pytest.raises(ValueError, match="weights must be 1..64 arrays"):
        Codebook(weights)


def test_every_codebook_keeps_read_only_per_antenna_weights():
    cbk = enh_phase_codebook(3, 2)
    assert [v.shape for v in cbk.weights] == [(1, 1, 1), (4, 1), (4,)]
    assert all(not v.flags.writeable for v in cbk.weights)
    assert all(not v.flags.writeable for v in phase_lattice(3, 2))
    directional = directional_codebook(3, None, 0.5, 5).weights
    assert [v.shape for v in directional] == [(3,)] * 3
    assert all(not v.flags.writeable for v in directional)


def test_search_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="fields must be"):
        best_entries((np.ones(2),) * 3, np.ones((4, 2)))
    with pytest.raises(ValueError, match="weights must be"):
        best_entries((np.ones(2), np.ones(3)), np.ones((4, 2)))


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
