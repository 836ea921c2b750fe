import math

import numpy as np
import pytest

import beamshadow as bs
from beamshadow.distortion import (
    DISTORTION_MODES,
    DistortionField,
    DistortionSpec,
    FingerSpec,
    apply_distortion,
    gen_distortion,
)
from beamshadow.sphere import wrap_rad
from conftest import cell_of


def test_mode_catalogue():
    assert DISTORTION_MODES == ("identity", "finger-occlusion", "phase-screen", "combined")


def test_spec_validation():
    with pytest.raises(ValueError, match="mode"):
        DistortionSpec(mode="nope")
    with pytest.raises(ValueError, match="radius"):
        FingerSpec(90.0, 255.0, -1.0, 10.0)
    with pytest.raises(ValueError, match="depth"):
        FingerSpec(90.0, 255.0, 30.0, -2.0)
    with pytest.raises(ValueError, match=">= 0"):
        DistortionSpec(mode="phase-screen", phase_std_deg=-1.0)
    with pytest.raises(ValueError, match="corr_length"):
        DistortionSpec(mode="phase-screen", corr_length_deg=0.0)
    with pytest.raises(ValueError, match="radius_deg must be finite"):
        FingerSpec(90.0, 255.0, float("nan"), 16.0)


def test_distortion_field_validation(coarse_grid):
    shape = (1,) + coarse_grid.shape
    with pytest.raises(ValueError, match=">= 0"):
        DistortionField(coarse_grid, -np.ones(shape), np.zeros(shape), "x")
    with pytest.raises(ValueError, match=r"\[0, 2\*pi\)"):
        DistortionField(coarse_grid, np.ones(shape), np.full(shape, 7.0), "x")


def test_identity_mode_passes_field_through(free_field, coarse_grid):
    dist = gen_distortion(DistortionSpec(mode="identity"), coarse_grid, free_field.n_antennas)
    assert (dist.amp == 1.0).all()
    assert (dist.phase == 0.0).all()
    out = apply_distortion(free_field, dist)
    assert np.array_equal(out.samples, free_field.samples)
    assert out.label == "blockage"


def test_generation_is_deterministic(coarse_grid):
    spec = DistortionSpec(mode="combined", phase_std_deg=30.0, amp_std_db=1.0, seed=42)
    a = gen_distortion(spec, coarse_grid, 4)
    b = gen_distortion(spec, coarse_grid, 4)
    assert np.array_equal(a.amp, b.amp)
    assert np.array_equal(a.phase, b.phase)


def test_seed_changes_the_screens(coarse_grid):
    base = dict(mode="phase-screen", phase_std_deg=30.0)
    a = gen_distortion(DistortionSpec(seed=1, **base), coarse_grid, 2)
    b = gen_distortion(DistortionSpec(seed=2, **base), coarse_grid, 2)
    assert not np.array_equal(a.phase, b.phase)


def test_phase_screen_std_is_rescaled_exactly(coarse_grid):
    # 10 deg std stays far from the wrap point, so the screen can be
    # recovered losslessly from its stored [0, 2*pi) representation
    spec = DistortionSpec(mode="phase-screen", phase_std_deg=10.0, seed=7)
    dist = gen_distortion(spec, coarse_grid, 3)
    for i in range(3):
        screen = wrap_rad(dist.phase[i])
        assert screen.std() == pytest.approx(math.radians(10.0), abs=1e-9)
    assert (dist.amp == 1.0).all()


def test_amp_screen_std_is_rescaled_exactly(coarse_grid):
    spec = DistortionSpec(mode="phase-screen", phase_std_deg=0.0, amp_std_db=1.5, seed=7)
    dist = gen_distortion(spec, coarse_grid, 2)
    for i in range(2):
        db = 20.0 * np.log10(dist.amp[i])
        assert db.std() == pytest.approx(1.5, abs=1e-9)
        # and comfortably inside a +/-20% band around the requested value
        assert 1.2 <= db.std() <= 1.8
    assert (dist.phase == 0.0).all()


def test_screens_differ_between_antennas(coarse_grid):
    spec = DistortionSpec(mode="phase-screen", phase_std_deg=20.0, seed=3)
    dist = gen_distortion(spec, coarse_grid, 2)
    assert not np.array_equal(dist.phase[0], dist.phase[1])


def test_longer_correlation_length_gives_smoother_screens(coarse_grid):
    rough = gen_distortion(
        DistortionSpec(mode="phase-screen", phase_std_deg=20.0, corr_length_deg=5.0, seed=5),
        coarse_grid,
        1,
    )
    smooth = gen_distortion(
        DistortionSpec(mode="phase-screen", phase_std_deg=20.0, corr_length_deg=40.0, seed=5),
        coarse_grid,
        1,
    )

    def roughness(d):
        s = wrap_rad(d.phase[0])
        return np.abs(np.diff(s, axis=0)).mean()

    assert roughness(smooth) < roughness(rough)


def test_finger_dent_values(coarse_grid):
    spec = DistortionSpec(
        mode="finger-occlusion", fingers=(FingerSpec(90.0, 255.0, 40.0, 16.0),)
    )
    dist = gen_distortion(spec, coarse_grid, 2)
    it, ip = cell_of(coarse_grid, 90.0, 255.0)
    # full depth at the centre
    assert dist.amp[0, it, ip] == pytest.approx(10.0 ** (-16.0 / 20.0), rel=1e-12)
    # half the cosine taper 20 deg out along the equator
    it2, ip2 = cell_of(coarse_grid, 90.0, 235.0)
    assert dist.amp[0, it2, ip2] == pytest.approx(10.0 ** (-8.0 / 20.0), rel=1e-12)
    # untouched outside the radius
    it3, ip3 = cell_of(coarse_grid, 90.0, 90.0)
    assert dist.amp[0, it3, ip3] == 1.0
    assert (dist.phase == 0.0).all()


def test_finger_antenna_subsets(coarse_grid):
    spec = DistortionSpec(
        mode="finger-occlusion",
        fingers=(FingerSpec(90.0, 255.0, 40.0, 16.0, antennas=(0, 2)),),
    )
    dist = gen_distortion(spec, coarse_grid, 4)
    it, ip = cell_of(coarse_grid, 90.0, 255.0)
    assert dist.amp[0, it, ip] < 1.0
    assert dist.amp[2, it, ip] < 1.0
    assert (dist.amp[1] == 1.0).all()
    assert (dist.amp[3] == 1.0).all()


def test_finger_target_out_of_range(coarse_grid):
    spec = DistortionSpec(
        mode="finger-occlusion",
        fingers=(FingerSpec(90.0, 255.0, 40.0, 16.0, antennas=(5,)),),
    )
    with pytest.raises(ValueError, match="antenna 5"):
        gen_distortion(spec, coarse_grid, 4)


def test_overlapping_fingers_accumulate_in_db(coarse_grid):
    one = DistortionSpec(mode="finger-occlusion", fingers=(FingerSpec(90.0, 255.0, 40.0, 6.0),))
    two = DistortionSpec(
        mode="finger-occlusion",
        fingers=(
            FingerSpec(90.0, 255.0, 40.0, 6.0),
            FingerSpec(90.0, 255.0, 40.0, 6.0),
        ),
    )
    it, ip = cell_of(coarse_grid, 90.0, 255.0)
    a = gen_distortion(one, coarse_grid, 1).amp[0, it, ip]
    b = gen_distortion(two, coarse_grid, 1).amp[0, it, ip]
    assert b == pytest.approx(a * a, rel=1e-12)


def test_phase_only_distortion_preserves_magnitude(free_field, coarse_grid):
    spec = DistortionSpec(mode="phase-screen", phase_std_deg=40.0, seed=9)
    dist = gen_distortion(spec, coarse_grid, free_field.n_antennas)
    out = apply_distortion(free_field, dist)
    assert np.allclose(np.abs(out.samples), np.abs(free_field.samples), rtol=1e-12)
    assert not np.array_equal(out.samples, free_field.samples)


def test_combined_mode_changes_amp_and_phase(free_field, coarse_grid):
    spec = DistortionSpec(
        mode="combined",
        fingers=(FingerSpec(90.0, 255.0, 40.0, 16.0),),
        phase_std_deg=30.0,
        amp_std_db=1.0,
        seed=11,
    )
    dist = gen_distortion(spec, coarse_grid, free_field.n_antennas)
    out = apply_distortion(free_field, dist)
    assert not np.allclose(np.abs(out.samples), np.abs(free_field.samples), rtol=1e-6)
    expected = free_field.samples * dist.amp * np.exp(1j * dist.phase)
    assert np.allclose(out.samples, expected, rtol=1e-12, atol=0.0)


def test_apply_rejects_mismatches(free_field, coarse_grid):
    other_grid = bs.make_grid(10.0, 10.0)
    dist = gen_distortion(DistortionSpec(mode="identity"), other_grid, free_field.n_antennas)
    with pytest.raises(ValueError, match="grids differ"):
        apply_distortion(free_field, dist)
    dist2 = gen_distortion(DistortionSpec(mode="identity"), coarse_grid, 2)
    with pytest.raises(ValueError):
        apply_distortion(free_field, dist2)
