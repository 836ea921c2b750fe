import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import beamshadow as bs
from beamshadow.cli import main
from beamshadow.experiment import config_to_yaml
from beamshadow.fields import AntennaFieldMap
from beamshadow.metrics import elemental_gain_map
from conftest import cell_of
from test_experiment import tiny_config


def test_config_defaults():
    cfg = bs.ArrayConfig()
    assert cfg.n_antennas == 4
    assert cfg.element_spacing == 0.5
    assert (cfg.boresight_theta, cfg.boresight_phi) == (90.0, 270.0)
    assert cfg.peak_element_gain_db == 11.0


def test_config_validation():
    with pytest.raises(ValueError, match="n_antennas"):
        bs.ArrayConfig(n_antennas=0)
    with pytest.raises(ValueError, match="spacing"):
        bs.ArrayConfig(element_spacing=0.0)
    with pytest.raises(ValueError, match="exponent"):
        bs.ArrayConfig(element_exponent=-1.0)
    with pytest.raises(ValueError, match="boresight_theta"):
        bs.ArrayConfig(boresight_theta=200.0)
    with pytest.raises(ValueError, match="backlobe"):
        bs.ArrayConfig(backlobe_floor_db=0.0)


def largest_accepted_peak_gain_db():
    lo, hi = 0.0, 3000.0
    bs.ArrayConfig(peak_element_gain_db=lo)
    with pytest.raises(ValueError, match="peak_element_gain_db 3000.0 overflows"):
        bs.ArrayConfig(peak_element_gain_db=hi)
    while math.nextafter(lo, hi) != hi:
        mid = (lo + hi) / 2.0
        try:
            bs.ArrayConfig(peak_element_gain_db=mid)
            lo = mid
        except ValueError:
            hi = mid
    return lo


def test_largest_accepted_peak_gain_runs_without_overflow(tmp_path):
    """The bound is on the largest power a search squares, the amplitude-
    weighted enh-phase-amp entry's (N * 10**(gain/10))**2: at the largest
    accepted gain a whole run, with screens that only attenuate, warns of
    nothing."""
    gain = largest_accepted_peak_gain_db()
    assert 1535.0 < gain < 1536.0  # 4 antennas: (4 * 10**(g/10))**2 < 1.8e308
    config = tiny_config(2, b_values=(1, 2, 3))
    config = replace(
        config,
        array=replace(config.array, peak_element_gain_db=gain),
        scenarios={k: replace(v, amp_std_db=0.0) for k, v in config.scenarios.items()},
    )
    config_to_yaml(config, tmp_path / "cfg.yaml")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inherited by the forked scenario workers
        rc = main(["run", "--config", str(tmp_path / "cfg.yaml"), "--out", str(tmp_path / "run")])
    assert rc == 0


def test_field_map_validation(coarse_grid):
    good = np.ones((2, coarse_grid.n_theta, coarse_grid.n_phi), dtype=complex)
    bad = good.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        AntennaFieldMap(grid=coarse_grid, samples=bad, label="x")
    with pytest.raises(ValueError):
        AntennaFieldMap(grid=coarse_grid, samples=np.ones((2, 3, 4), dtype=complex), label="x")


def test_synth_is_deterministic(coarse_grid):
    a = bs.synth_freespace_field(bs.ArrayConfig(), coarse_grid)
    b = bs.synth_freespace_field(bs.ArrayConfig(), coarse_grid)
    assert np.array_equal(a.samples, b.samples)
    assert a.label == "free"


def test_peak_gain_at_boresight(free_field, coarse_grid):
    g = elemental_gain_map(free_field, 0)
    it, ip = cell_of(coarse_grid, 90.0, 270.0)
    assert g[it, ip] == pytest.approx(11.0, abs=1e-12)
    assert g.max() == pytest.approx(11.0, abs=1e-12)


def test_all_antennas_share_amplitude(free_field):
    mags = np.abs(free_field.samples)
    for i in range(1, free_field.n_antennas):
        assert np.allclose(mags[i], mags[0], rtol=1e-12, atol=0.0)


def test_backlobe_floor(free_field):
    g = elemental_gain_map(free_field, 0)
    # floor is 30 dB below the 11 dB peak
    assert g.min() == pytest.approx(-19.0, abs=1e-9)
    assert np.isfinite(free_field.samples).all()
    assert np.abs(free_field.samples).min() > 0.0


def test_progressive_phase_across_antennas(free_field, coarse_grid):
    # phase step between adjacent antennas is 2*pi*spacing*cos(theta)
    theta = 60.0
    it = list(coarse_grid.thetas).index(theta)
    expected = 2.0 * np.pi * 0.5 * np.cos(np.radians(theta))
    s = free_field.samples
    d01 = np.angle(s[1, it, :] / s[0, it, :])
    d12 = np.angle(s[2, it, :] / s[1, it, :])
    assert np.allclose(d01, expected, atol=1e-9)
    assert np.allclose(d12, expected, atol=1e-9)


def test_boresight_phases_are_zero(free_field, coarse_grid):
    it, _ = cell_of(coarse_grid, 90.0, 270.0)
    s = free_field.samples[:, it, :]
    assert np.allclose(s.imag, 0.0, atol=1e-9)
    assert (s.real > 0.0).all()


def test_gain_decreases_away_from_boresight(free_field, coarse_grid):
    g = elemental_gain_map(free_field, 0)
    ip = list(coarse_grid.phis).index(270.0)
    cut = g[:, ip]
    it = list(coarse_grid.thetas).index(90.0)
    upper = cut[it:]
    # moving off boresight along theta the gain is non-increasing
    assert (np.diff(upper) <= 1e-12).all()
    lower = cut[: it + 1]
    assert (np.diff(lower) >= -1e-12).all()


def test_single_antenna_and_many_antennas(coarse_grid):
    one = bs.synth_freespace_field(bs.ArrayConfig(n_antennas=1), coarse_grid)
    eight = bs.synth_freespace_field(bs.ArrayConfig(n_antennas=8), coarse_grid)
    assert one.n_antennas == 1
    assert eight.n_antennas == 8
    assert np.array_equal(eight.samples[:1], one.samples)
