import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beamshadow as bs
from beamshadow import distortion
from beamshadow.distortion import (
    DISTORTION_MODES,
    DistortionField,
    DistortionSpec,
    FingerSpec,
    apply_distortion,
    gen_distortion,
)
from beamshadow.experiment import config_to_yaml
from beamshadow.sphere import MAX_GRID_CELLS, mod_2pi, wrap_rad
from conftest import cell_of
from test_experiment import tiny_config


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


# --- the screen filter ---------------------------------------------------------

# sigma in cells: the skip threshold and its neighbour, the radius-1 step
# (4 sigma + 0.5 = 1), and a log-uniform spread whose kernels reach far wider
# than the grids below
SIGMAS = st.one_of(
    st.sampled_from([1e-20, 1e-15, math.nextafter(1e-15, 1.0), 0.125, 0.1249, 40.0]),
    st.floats(-20.0, math.log10(40.0)).map(lambda e: 10.0**e),
)


def white_screen(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def smooth(white, sigmas):
    return distortion._gaussian_smooth(
        white, tuple(distortion._gaussian_kernel(s) for s in sigmas)
    )


def loop_smooth(white, sigmas):
    """Per-element transcription of the filter's sum: theta then phi; an
    axis with sigma <= 1e-15 is skipped; each output is the center times the
    middle weight plus ``(left_j + right_j) * w_j`` for j = r..1, with theta
    indices clamped to the grid and phi indices taken modulo n_phi.  The
    weights are numpy's ``exp`` (math.exp may round differently)."""
    rows = white.tolist()
    for axis, sigma in enumerate(sigmas):
        if sigma <= 1e-15:
            continue
        r = int(4.0 * sigma + 0.5)
        w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
        w = (w / w.sum()).tolist()
        n_theta, n_phi = len(rows), len(rows[0])

        def at(i, k, d):
            if axis == 0:
                return rows[min(max(i + d, 0), n_theta - 1)][k]
            return rows[i][(k + d) % n_phi]

        new = [[0.0] * n_phi for _ in range(n_theta)]
        for i in range(n_theta):
            for k in range(n_phi):
                acc = at(i, k, 0) * w[r]
                for j in range(r, 0, -1):
                    acc += (at(i, k, -j) + at(i, k, j)) * w[r + j]
                new[i][k] = acc
        rows = new
    return np.array(rows)


@settings(max_examples=80)
@given(
    shape=st.tuples(st.integers(1, 9), st.integers(1, 12)),
    sigmas=st.tuples(SIGMAS, SIGMAS),
    seed=st.integers(0, 2**32 - 1),
)
def test_screen_filter_is_the_per_element_sum_bit_for_bit(shape, sigmas, seed):
    white = white_screen(shape, seed)
    got = smooth(white, sigmas)
    want = loop_smooth(white, sigmas)
    assert got.flags.c_contiguous and got.shape == shape
    assert got.tobytes() == want.tobytes()
    assert got.std() == want.std()


@settings(max_examples=150)
@given(
    shape=st.tuples(st.integers(1, 40), st.integers(1, 60)),
    sigmas=st.tuples(SIGMAS, SIGMAS),
    seed=st.integers(0, 2**32 - 1),
)
def test_screen_filter_matches_scipy_gaussian_filter_bit_for_bit(shape, sigmas, seed):
    ndimage = pytest.importorskip("scipy.ndimage")
    white = white_screen(shape, seed)
    got = smooth(white, sigmas)
    want = ndimage.gaussian_filter(white, sigma=sigmas, mode=("nearest", "wrap"))
    assert got.tobytes() == want.tobytes()
    assert got.std() == want.std()


def test_tiny_correlation_length_leaves_white_noise(coarse_grid):
    spec = DistortionSpec(mode="phase-screen", phase_std_deg=10.0, corr_length_deg=1e-200, seed=4)
    dist = gen_distortion(spec, coarse_grid, 1)
    white = np.random.default_rng(4).standard_normal(coarse_grid.shape)
    want = mod_2pi(white * (math.radians(10.0) / white.std()))
    assert np.array_equal(dist.phase[0], want)


@pytest.mark.parametrize("corr_length", [1e300, 1e308])
def test_oversized_screen_filter_is_refused_before_any_draw(coarse_grid, monkeypatch, corr_length):
    monkeypatch.setattr(distortion, "_smooth_screen", None)  # a draw would raise
    spec = DistortionSpec(mode="phase-screen", phase_std_deg=10.0, corr_length_deg=corr_length)
    with pytest.raises(ValueError, match="corr_length_deg"):
        gen_distortion(spec, coarse_grid, 1)


def test_screen_filter_limit_is_the_larger_padded_pass(monkeypatch):
    grid = bs.make_grid(30.0, 30.0)  # sigma 1 cell gives r = 4 on both axes
    assert grid.shape == (6, 12)
    spec = DistortionSpec(mode="phase-screen", amp_std_db=1.0, corr_length_deg=30.0)
    padded = max((6 + 2 * 4) * 12, (12 + 2 * 4) * 6)
    assert padded == 168 < MAX_GRID_CELLS
    monkeypatch.setattr(distortion, "MAX_GRID_CELLS", padded)
    gen_distortion(spec, grid, 1)
    monkeypatch.setattr(distortion, "MAX_GRID_CELLS", padded - 1)
    with pytest.raises(ValueError, match="corr_length_deg 30.0"):
        gen_distortion(spec, grid, 1)
    # a mode without screens needs no filter
    gen_distortion(DistortionSpec(mode="finger-occlusion", corr_length_deg=1e300), grid, 1)


def test_run_and_distort_load_no_scipy(tmp_path):
    """The screens are drawn without scipy: a whole run and a distort, all
    in one process, leave no scipy module loaded."""
    cfg_path = tmp_path / "cfg.yaml"
    config_to_yaml(tiny_config(2), cfg_path)
    code = f"""
import sys
from beamshadow import forked
from beamshadow.cli import main
forked.resolve_workers = lambda n=None: 1  # every scenario in this process
d = {str(tmp_path)!r}
assert main(["run", "--config", {str(cfg_path)!r}, "--out", d + "/run"]) == 0
assert main(["distort", "--field", d + "/run/free.field", "--out", d + "/b.field",
             "--dist-out", d + "/b.dist", "--phase-std", "30", "--amp-std", "1"]) == 0
print([m for m in sys.modules if m.partition(".")[0] == "scipy"])
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(bs.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "b.dist").exists()
