import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from beamshadow import make_grid
from beamshadow.sphere import (
    MAX_GRID_CELLS,
    SphericalGrid,
    angular_distance_deg,
    mod_2pi,
    wrap_deg,
    wrap_rad,
)

finite_angles = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def test_default_grid_shape():
    g = make_grid(5.0, 5.0)
    assert g.shape == (36, 72)
    assert g.n_directions == 2592
    assert g.thetas[0] == 0.0 and g.thetas[-1] == 175.0
    assert g.phis[0] == 0.0 and g.phis[-1] == 355.0


def test_fine_grid_shape():
    g = make_grid(1.0, 1.0)
    assert g.shape == (180, 360)


def test_step_must_divide_span():
    with pytest.raises(ValueError, match="does not evenly divide"):
        make_grid(7.0, 5.0)
    with pytest.raises(ValueError, match="does not evenly divide"):
        make_grid(5.0, 7.0)


def test_grid_cell_count_is_bounded_before_allocation():
    import tracemalloc

    assert make_grid(0.1, 0.1).n_directions == 6_480_000 <= MAX_GRID_CELLS
    with pytest.raises(ValueError, match=r"grid would have 12960000 cells \(limit 10000000\)"):
        make_grid(0.05, 0.1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cells"):
            make_grid(1e-300, 5.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_tiny_step_is_a_value_error():
    # span / step overflows to inf
    with pytest.raises(ValueError, match="does not evenly divide"):
        make_grid(1e-320, 5.0)


def test_grid_span_validation():
    with pytest.raises(ValueError):
        make_grid(5.0, 5.0, theta_span=(90.0, 90.0))
    with pytest.raises(ValueError):
        make_grid(5.0, 5.0, theta_span=(0.0, 200.0))
    with pytest.raises(ValueError):
        make_grid(-5.0, 5.0)


def test_total_solid_angle_is_full_sphere():
    for steps in [(5.0, 5.0), (1.0, 1.0), (15.0, 30.0)]:
        g = make_grid(*steps)
        assert g.total_solid_angle == pytest.approx(4.0 * math.pi, rel=1e-12)


def test_hemisphere_area_fraction_is_exactly_half():
    g = make_grid(5.0, 5.0)
    mask = np.zeros(g.shape, dtype=bool)
    mask[g.thetas < 90.0, :] = True
    # cell-integrated weights make grid-aligned caps exact up to summation rounding
    assert g.area_fraction(mask) == pytest.approx(0.5, abs=1e-15)


def test_area_fraction_everything_and_nothing():
    g = make_grid(15.0, 15.0)
    assert g.area_fraction(np.ones(g.shape, dtype=bool)) == pytest.approx(1.0)
    assert g.area_fraction(np.zeros(g.shape, dtype=bool)) == 0.0


def test_area_fraction_rejects_bad_mask():
    g = make_grid(15.0, 15.0)
    with pytest.raises(ValueError, match="boolean"):
        g.area_fraction(np.ones(g.shape))
    with pytest.raises(ValueError):
        g.area_fraction(np.ones((3, 3), dtype=bool))


def test_row_solid_angles_match_band_integrals():
    g = make_grid(10.0, 10.0)
    t0 = np.radians(g.thetas)
    t1 = np.radians(g.thetas + 10.0)
    expected = math.radians(10.0) * (np.cos(t0) - np.cos(t1))
    assert np.array_equal(g.row_solid_angles, expected)
    assert g.solid_angle_map().shape == g.shape


def test_grid_arrays_are_read_only():
    g = make_grid(5.0, 5.0)
    with pytest.raises(ValueError):
        g.thetas[0] = 1.0
    with pytest.raises(ValueError):
        g.row_solid_angles[0] = 1.0


def test_partial_spans_have_expected_counts():
    g = make_grid(5.0, 5.0, theta_span=(30.0, 60.0), phi_span=(150.0, 360.0))
    assert g.shape == (6, 42)
    assert g.thetas[0] == 30.0
    assert g.phis[-1] == 355.0


def test_wrap_deg_reference_points():
    assert wrap_deg(190.0) == -170.0
    assert wrap_deg(-190.0) == 170.0
    assert wrap_deg(180.0) == 180.0
    assert wrap_deg(-180.0) == 180.0
    assert wrap_deg(360.0) == 0.0
    assert wrap_deg(0.0) == 0.0
    assert np.array_equal(wrap_deg([540.0, -540.0]), [180.0, 180.0])


def test_wrap_rad_reference_points():
    assert wrap_rad(math.pi) == math.pi
    assert wrap_rad(-math.pi) == math.pi
    assert wrap_rad(3.0 * math.pi) == pytest.approx(math.pi)
    assert wrap_rad(0.5) == 0.5


def test_mod_2pi_reference_points():
    two_pi = 2.0 * math.pi
    assert mod_2pi(0.0) == 0.0
    assert mod_2pi(two_pi) == 0.0
    assert mod_2pi(-two_pi) == 0.0
    assert mod_2pi(3.0 * math.pi) == pytest.approx(math.pi)
    out = mod_2pi(-1e-12)
    assert 0.0 <= out < two_pi


def test_angular_distance_examples():
    assert angular_distance_deg(90.0, 0.0, 90.0, 90.0) == pytest.approx(90.0)
    assert angular_distance_deg(0.0, 0.0, 180.0, 123.0) == pytest.approx(180.0)
    # at the pole the azimuth is degenerate
    assert angular_distance_deg(0.0, 0.0, 0.0, 90.0) == pytest.approx(0.0, abs=1e-6)
    assert angular_distance_deg(90.0, 270.0, 90.0, 270.0) == 0.0


@given(finite_angles)
def test_wrap_deg_range(x):
    w = wrap_deg(x)
    assert -180.0 < w <= 180.0


@given(finite_angles)
def test_wrap_rad_range(x):
    w = wrap_rad(x)
    assert -math.pi < w <= math.pi


@given(finite_angles)
def test_mod_2pi_range(x):
    w = mod_2pi(x)
    assert 0.0 <= w < 2.0 * math.pi


@given(st.floats(min_value=-720.0, max_value=720.0), st.integers(-3, 3))
def test_wrap_deg_periodicity(x, k):
    assert wrap_deg(x + 360.0 * k) == pytest.approx(wrap_deg(x), abs=1e-9)


def test_grid_equality_and_hash():
    a = make_grid(5.0, 5.0)
    b = SphericalGrid(0.0, 180.0, 5.0, 0.0, 360.0, 5.0)
    assert a == b
    assert hash(a) == hash(b)
