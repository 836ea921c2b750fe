import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import beamshadow as bs
from beamshadow.distortion import DistortionSpec, FingerSpec, gen_distortion, apply_distortion
from beamshadow.fields import AntennaFieldMap
from beamshadow.metrics import (
    NULL_GAIN_DB,
    cdf_summary,
    coverage_stats,
    elemental_gain_map,
    loss_samples,
    pair_phase_diff,
    phase_mixing,
    rect_roi,
    roi_mask,
)
from conftest import cell_of, phase_pair_field

# the paper's settings: RoI thresholds (dB), rectangle and percentiles
G1_DB, G2_DB = 7.5, 2.5
THETA_RANGE, PHI_RANGE = (0.0, 180.0), (150.0, 360.0)
PERCENTILES = (10.0, 50.0, 80.0, 90.0)


def constant_field(grid, values, n=None):
    """Field whose per-antenna samples are spatially constant."""
    values = np.asarray(values, dtype=complex)
    n = n or len(values)
    samples = np.broadcast_to(values[:, None, None], (n,) + grid.shape).copy()
    return AntennaFieldMap(grid=grid, samples=samples, label="const")


class TestElementalGain:
    def test_amplitude_two_is_six_db(self, coarse_grid):
        fld = constant_field(coarse_grid, [2.0])
        assert elemental_gain_map(fld, 0)[cell_of(coarse_grid, 90.0, 270.0)] == pytest.approx(
            10.0 * math.log10(4.0), abs=1e-12
        )

    def test_zero_field_maps_to_null_gain(self, coarse_grid):
        fld = constant_field(coarse_grid, [0.0 + 0.0j, 1.0])
        g = elemental_gain_map(fld, 0)
        assert np.isneginf(g).all()
        assert NULL_GAIN_DB == -math.inf


class TestRoi:
    def test_threshold_or_semantics(self, coarse_grid):
        # free gain 9 dB (above G1) even where blocked is deep in a fade,
        # and blocked 3 dB (above G2) where free happens to be weak
        free = constant_field(coarse_grid, [10.0 ** (9.0 / 20.0)])
        blocked = constant_field(coarse_grid, [10.0 ** (-20.0 / 20.0)])
        roi = roi_mask(free, blocked, 0, G1_DB, G2_DB)
        assert roi.mask.all()

        weak_free = constant_field(coarse_grid, [10.0 ** (0.0 / 20.0)])
        ok_blocked = constant_field(coarse_grid, [10.0 ** (3.0 / 20.0)])
        roi2 = roi_mask(weak_free, ok_blocked, 0, G1_DB, G2_DB)
        assert roi2.mask.all()

        neither = roi_mask(weak_free, blocked, 0, G1_DB, G2_DB)
        assert not neither.mask.any()
        assert neither.area_fraction == 0.0

    def test_roi_shrinks_as_thresholds_rise(self, free_field, blocked_field):
        lo = roi_mask(free_field, blocked_field, 0, g1_db=5.0, g2_db=0.0)
        hi = roi_mask(free_field, blocked_field, 0, g1_db=9.0, g2_db=4.0)
        assert (hi.mask <= lo.mask).all()
        assert hi.area_fraction <= lo.area_fraction

    def test_rect_roi_default_fraction(self, coarse_grid):
        roi = rect_roi(coarse_grid, THETA_RANGE, PHI_RANGE)
        assert roi.area_fraction == pytest.approx(210.0 / 360.0, abs=1e-15)
        # mask covers full theta, phi in [150, 360)
        sel = coarse_grid.phis >= 150.0
        assert np.array_equal(roi.mask.any(axis=0), sel)

    def test_rect_roi_band_fraction(self, coarse_grid):
        roi = rect_roi(coarse_grid, (60.0, 120.0), PHI_RANGE)
        # cos(60)-cos(120) = 1 covers half the sphere's 2 span
        assert roi.area_fraction == pytest.approx((210.0 / 360.0) / 2.0, abs=1e-15)

    def test_rect_roi_empty_is_rejected(self, coarse_grid):
        with pytest.raises(ValueError):
            rect_roi(coarse_grid, (60.0, 60.0), PHI_RANGE)


class TestLossSamples:
    def test_zero_distortion_means_zero_loss(self, free_field, coarse_grid):
        roi = rect_roi(coarse_grid, THETA_RANGE, PHI_RANGE)
        for i in range(free_field.n_antennas):
            losses = loss_samples(free_field, free_field, i, roi)
            assert losses.shape == (int(roi.mask.sum()),)
            assert (losses == 0.0).all()

    def test_uniform_amp_scale_shifts_all_samples(self, free_field, coarse_grid):
        scaled = AntennaFieldMap(
            grid=coarse_grid, samples=0.5 * free_field.samples, label="scaled"
        )
        roi = rect_roi(coarse_grid, THETA_RANGE, PHI_RANGE)
        losses = loss_samples(free_field, scaled, 1, roi)
        assert np.allclose(losses, 20.0 * math.log10(2.0), atol=1e-9)

    def test_zero_field_inside_roi_is_an_error(self, free_field, coarse_grid):
        samples = free_field.samples.copy()
        it, ip = cell_of(coarse_grid, 90.0, 270.0)
        samples[0, it, ip] = 0.0
        holed = AntennaFieldMap(grid=coarse_grid, samples=samples, label="holed")
        roi = rect_roi(coarse_grid, THETA_RANGE, PHI_RANGE)
        with pytest.raises(ValueError, match=r"antenna 0 .*theta=90.0, phi=270.0"):
            loss_samples(free_field, holed, 0, roi)

    def test_sample_order_is_theta_major(self, coarse_grid):
        free = constant_field(coarse_grid, [1.0])
        samples = free.samples.copy()
        it, ip = cell_of(coarse_grid, 0.0, 150.0)  # first RoI cell
        samples[0, it, ip] = 0.5
        blocked = AntennaFieldMap(grid=coarse_grid, samples=samples, label="b")
        losses = loss_samples(free, blocked, 0, rect_roi(coarse_grid, THETA_RANGE, PHI_RANGE))
        assert losses[0] == pytest.approx(20.0 * math.log10(2.0))
        assert np.count_nonzero(losses) == 1


class TestCdfSummary:
    def test_one_through_ten(self):
        s = cdf_summary(np.arange(1.0, 11.0), PERCENTILES)
        pct = dict(s.percentiles)
        assert pct[50.0] == 5.5
        assert pct[10.0] == pytest.approx(1.9)
        assert pct[80.0] == pytest.approx(8.2)
        assert pct[90.0] == pytest.approx(9.1)
        assert s.mean == 5.5
        assert s.std == pytest.approx(math.sqrt(8.25))
        assert (s.minimum, s.maximum) == (1.0, 10.0)
        assert s.n_samples == 10
        assert not s.weighted

    def test_step_distribution_median(self):
        s = cdf_summary([0.0, 0.0, 10.0, 10.0], percentiles=(50.0,))
        assert dict(s.percentiles)[50.0] == 5.0

    def test_weighted_quantiles_midpoint_rule(self):
        s = cdf_summary([1.0, 2.0, 3.0], percentiles=(10.0, 50.0), weights=[1.0, 1.0, 1.0])
        pct = dict(s.percentiles)
        assert pct[50.0] == 2.0
        assert pct[10.0] == 1.0  # clamped below the first midpoint
        assert s.weighted

    def test_weighted_moments_and_interp(self):
        s = cdf_summary([1.0, 2.0, 3.0], percentiles=(50.0,), weights=[1.0, 1.0, 2.0])
        assert s.mean == pytest.approx(2.25)
        assert s.std == pytest.approx(math.sqrt(0.6875))
        assert dict(s.percentiles)[50.0] == pytest.approx(2.0 + (0.5 - 0.375) / 0.375)

    def test_to_dict_uses_repr_percentile_keys(self):
        d = cdf_summary([1.0, 2.0], PERCENTILES).to_dict()
        assert set(d["percentiles"]) == {"10.0", "50.0", "80.0", "90.0"}
        assert d["n_samples"] == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            cdf_summary([], PERCENTILES)
        with pytest.raises(ValueError, match="finite"):
            cdf_summary([1.0, math.nan], PERCENTILES)
        with pytest.raises(ValueError, match="outside"):
            cdf_summary([1.0], percentiles=(120.0,))
        # to_dict keys the values by percent: a repeat would drop a row
        with pytest.raises(ValueError, match="percentiles: percentile 50.0 is repeated"):
            cdf_summary([1.0], percentiles=(50, 90, 50.0))
        with pytest.raises(ValueError, match="weights"):
            cdf_summary([1.0, 2.0], PERCENTILES, weights=[1.0])
        with pytest.raises(ValueError, match="weights"):
            cdf_summary([1.0, 2.0], PERCENTILES, weights=[-1.0, 1.0])

    @given(
        st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=40),
        st.lists(st.floats(0.0, 100.0), min_size=2, max_size=6, unique=True),
    )
    def test_percentiles_are_monotone_in_p(self, xs, ps):
        s = cdf_summary(xs, percentiles=tuple(sorted(ps)))
        vals = [v for _, v in s.percentiles]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        assert s.minimum - 1e-12 <= vals[0] and vals[-1] <= s.maximum + 1e-12


class TestCoverage:
    def test_rows_against_direct_computation(self, free_field, blocked_field):
        rows = coverage_stats(free_field, blocked_field, G1_DB, G2_DB)
        assert [r.antenna for r in rows] == list(range(free_field.n_antennas))
        for r in rows:
            gf = elemental_gain_map(free_field, r.antenna)
            assert r.max_free_gain_db == gf.max()
            roi = roi_mask(free_field, blocked_field, r.antenna, G1_DB, G2_DB)
            assert r.roi_area_pct == pytest.approx(100.0 * roi.area_fraction)
            assert 0.0 < r.roi_area_pct < 100.0


class TestPhaseDiff:
    def test_antipodal_phase_pair(self, coarse_grid):
        fld = constant_field(coarse_grid, [1.0, -1.0])
        values, valid = pair_phase_diff(fld, 0, 1)
        assert np.allclose(values, 180.0)
        assert valid.all()

    def test_freespace_pair_follows_array_phase(self, free_field, coarse_grid):
        values, _ = pair_phase_diff(free_field, 0, 1)
        it = list(coarse_grid.thetas).index(60.0)
        # adjacent antennas differ by 360*0.5*cos(theta) = 90 deg at 60 deg
        assert np.allclose(values[it], 90.0, atol=1e-9)

    def test_zero_cells_are_flagged_invalid(self, coarse_grid):
        samples = np.ones((2,) + coarse_grid.shape, dtype=complex)
        samples[0, 3, 4] = 0.0
        fld = AntennaFieldMap(grid=coarse_grid, samples=samples, label="x")
        values, valid = pair_phase_diff(fld, 0, 1)
        assert not valid[3, 4]
        assert valid.sum() == valid.size - 1
        assert values[3, 4] == 0.0


class TestPhaseMixing:
    def mixing(self, grid, values, valid=None):
        """``phase_mixing`` of the one pair of a field whose pair phase is ``values``."""
        return phase_mixing(phase_pair_field(grid, values, valid), [(0, 1)])["0-1"]

    def test_constant_map_scores_zero(self, coarse_grid):
        assert self.mixing(coarse_grid, np.full(coarse_grid.shape, 37.0)) == 0.0

    def test_theta_ramp_scores_slope(self, coarse_grid):
        t = np.arange(coarse_grid.n_theta, dtype=float)[:, None]
        mix = self.mixing(coarse_grid, np.broadcast_to(7.0 * t, coarse_grid.shape).copy())
        # 7 deg per 5-deg row == 7 deg per 5 deg of theta
        assert mix == pytest.approx(7.0, abs=1e-12)

    def test_slope_is_grid_step_invariant(self):
        for step in (2.5, 5.0, 10.0):
            grid = bs.make_grid(step, 30.0)
            t = np.arange(grid.n_theta, dtype=float)[:, None]
            vals = np.broadcast_to(1.4 * step * t, grid.shape).copy()
            # 1.4 deg of phase per degree of theta -> 7 per 5-deg reference
            assert self.mixing(grid, vals) == pytest.approx(7.0, abs=1e-9)

    def test_alternating_rows_score_180(self, coarse_grid):
        t = np.arange(coarse_grid.n_theta)[:, None]
        vals = np.broadcast_to(np.where(t % 2 == 0, 90.0, -90.0), coarse_grid.shape).copy()
        assert self.mixing(coarse_grid, vals) == pytest.approx(180.0)

    def test_constant_offset_is_ignored(self, coarse_grid, rng):
        vals = rng.uniform(-180.0, 180.0, coarse_grid.shape)
        a = self.mixing(coarse_grid, vals)
        b = self.mixing(coarse_grid, vals + 55.0)
        assert a == pytest.approx(b, abs=1e-9)

    def test_invalid_cells_are_excluded(self, coarse_grid):
        t = np.arange(coarse_grid.n_theta, dtype=float)[:, None]
        vals = np.broadcast_to(7.0 * t, coarse_grid.shape).copy()
        vals[5, :] = 1e6  # garbage that must not contribute
        valid = np.ones(coarse_grid.shape, dtype=bool)
        valid[5, :] = False
        assert self.mixing(coarse_grid, vals, valid) == pytest.approx(7.0, abs=1e-12)

    def test_blockage_raises_mixing(self, free_field, blocked_field):
        pairs = [(0, 1), (0, 2)]
        free_mix = phase_mixing(free_field, pairs)
        blocked_mix = phase_mixing(blocked_field, pairs)
        assert list(free_mix) == list(blocked_mix) == ["0-1", "0-2"]
        for key in free_mix:
            assert blocked_mix[key] > free_mix[key]

    def test_one_theta_row_is_refused_only_with_a_pair(self):
        grid = bs.make_grid(180.0, 30.0)
        assert grid.n_theta == 1
        fld = constant_field(grid, [1.0], n=1)
        assert phase_mixing(fld, []) == {}
        with pytest.raises(ValueError, match="at least two theta rows"):
            phase_mixing(constant_field(grid, [1.0, 1j]), [(0, 1)])


def test_finger_occlusion_produces_positive_losses(coarse_grid, free_field):
    spec = DistortionSpec(
        mode="finger-occlusion", fingers=(FingerSpec(90.0, 255.0, 40.0, 16.0),)
    )
    dist = gen_distortion(spec, coarse_grid, free_field.n_antennas)
    blocked = apply_distortion(free_field, dist)
    roi = rect_roi(coarse_grid, THETA_RANGE, PHI_RANGE)
    losses = loss_samples(free_field, blocked, 0, roi)
    assert losses.min() >= -1e-12  # pure attenuation can only lose gain
    assert losses.max() == pytest.approx(16.0, abs=1e-9)
