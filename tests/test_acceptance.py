"""End-to-end acceptance checks.

One test per numbered claim the library stands behind; each prints a PASS
line with the measured quantities (visible under ``pytest -s``).  These are
intentionally heavier than the unit tests: they sweep large random ensembles
and run the full default experiment.
"""

import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import beamshadow as bs
from beamshadow.codebook import (
    Codebook,
    StrengthVector,
    amp_gain_map,
    best_entries,
    directional_codebook,
    enh_phase_amp_codebook,
    enh_phase_codebook,
    gain_map,
)
from beamshadow.distortion import DistortionSpec, gen_distortion, apply_distortion
from beamshadow.cli import main
from beamshadow.experiment import config_from_yaml, default_config, run_experiment
from beamshadow.fields import AntennaFieldMap
from beamshadow.link import (
    delta_snr_achieved,
    inequality_chain_check,
    theorem1_lb,
    theorem_trials,
)
from beamshadow.metrics import (
    loss_samples,
    phase_mixing,
    power_db,
    rect_roi,
)
from conftest import (
    mrc_gain_db,
    mrc_map,
    naive_best_entry,
    phase_pair_field,
    searched_entry,
    vector_at,
)


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """The full default experiment, run twice with identical inputs."""
    cfg = default_config()
    first = tmp_path_factory.mktemp("exp-first")
    start = time.monotonic()
    run_experiment(cfg, first, seed=None)
    elapsed = time.monotonic() - start
    second = tmp_path_factory.mktemp("exp-second")
    run_experiment(cfg, second, seed=None)
    return first, second, elapsed


def test_criterion_01_no_codebook_beats_optimal_combining():
    """Realized gain <= optimal gain (1e-9 dB) over >= 1e5 evaluations."""
    rng = np.random.default_rng(2026)
    grid = bs.make_grid(7.2, 3.6)  # 25 x 100 = 2500 directions per map
    books = [
        directional_codebook(4, 16, 0.5, 5),
        enh_phase_codebook(4, 2),
        enh_phase_codebook(4, 3),
    ]
    evaluations = 0
    worst_excess = -math.inf
    start = time.monotonic()
    for _ in range(8):
        samples = rng.standard_normal((4,) + grid.shape) + 1j * rng.standard_normal(
            (4,) + grid.shape
        )
        fld = AntennaFieldMap(grid=grid, samples=samples, label="random")
        opt = mrc_map(fld)
        # single-antenna selection: the identity's columns, searched raw
        selection, _ = best_entries(tuple(np.eye(4)), samples.reshape(4, -1).T)
        maps = [gain_map(cbk, fld) for cbk in books] + [
            power_db(selection).reshape(grid.shape),
            amp_gain_map(fld, 2),
        ]
        for gm in maps:
            excess = float((gm - opt).max())
            worst_excess = max(worst_excess, excess)
            assert excess <= 1e-9
            evaluations += gm.size
    elapsed = time.monotonic() - start
    assert evaluations >= 100_000
    assert elapsed < 30.0
    print(
        f"PASS criterion 1: {evaluations} codebook evaluations, "
        f"max excess over optimal {worst_excess:.3e} dB, {elapsed:.1f} s"
    )


def test_criterion_02_snr_improvement_lower_bound_holds():
    """10^4 random draws x B in {1,2,3}: achieved delta >= bound (1e-9)."""
    start = time.monotonic()
    res = theorem_trials(10_000, b_values=(1, 2, 3), seed=0, n_antennas=4, out=None)
    elapsed = time.monotonic() - start
    assert res.n_violations == 0
    assert res.min_margin >= -1e-9
    assert res.margin.size == 30_000

    # closed-form spot value: single dominant antenna, N=4, B=2
    assert theorem1_lb([1.0, 0.0, 0.0, 0.0], 2) == pytest.approx(0.125, abs=1e-12)
    assert theorem1_lb([3.0, 0.0, 0.0, 0.0], 2) == pytest.approx(0.125 * 9.0, rel=1e-12)
    # equal amplitudes: both codebooks share the matching entry, delta is 0
    assert delta_snr_achieved([1.0, 1.0, 1.0, 1.0], 2) == 0.0
    assert theorem1_lb([1.0, 1.0, 1.0, 1.0], 2) <= 0.0
    print(
        f"PASS criterion 2: 30000 trials, 0 violations, "
        f"min margin {res.min_margin:.3e}, {elapsed:.1f} s"
    )


def test_criterion_03_bound_derivation_chain_closes():
    """Every step of the bound's derivation holds on 1e4 random draws."""
    # draw k takes 16 doubles in the order of four rng.uniform(lo, hi, 4)
    # calls (field magnitudes, field phases, amplitudes, phases), each of
    # which is lo + (hi - lo) * double, so (10^4, 4, 4) doubles scale to them
    d = np.random.default_rng(7).random((10_000, 4, 4))
    e = (2.0 * d[:, 0]) * np.exp(1j * ((2.0 * math.pi) * d[:, 1]))
    amp, phase = 1.5 * d[:, 2], (2.0 * math.pi) * d[:, 3]
    rng = np.random.default_rng(7)  # draw 0 as the four uniform calls make it
    first = rng.uniform(0.0, 2.0, 4) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 4))
    assert first.tobytes() == e[0].tobytes()
    assert rng.uniform(0.0, 1.5, 4).tobytes() == amp[0].tobytes()
    assert rng.uniform(0.0, 2.0 * math.pi, 4).tobytes() == phase[0].tobytes()
    rows = e * amp * np.exp(1j * phase)
    worst_margin = math.inf
    start = time.monotonic()
    for b in (1, 2, 3):  # draw k has B = 1 + k % 3
        margins = inequality_chain_check(rows[b - 1::3], b)
        for name, m in margins.items():
            k = 3 * int(m.argmin()) + b - 1
            assert m.min() >= -1e-9, f"{name} failed at draw {k} (B={b})"
            worst_margin = min(worst_margin, float(m.min()))
        # every residual is within pi/2^B
        assert margins["residual-within-quantizer-halfstep"].min() >= -1e-12
    elapsed = time.monotonic() - start
    assert worst_margin >= -1e-9
    print(
        f"PASS criterion 3: 10000 chain checks, min step margin "
        f"{worst_margin:.3e}, residuals within pi/2^B, {elapsed:.1f} s"
    )


def test_criterion_04_amplitude_scheme_quantization_floor(free_field, blocked_field, rng):
    """Trained phase+amplitude entries stay within the cos(pi/2^B) floor
    of optimal at every direction."""
    opt = mrc_map(blocked_field)
    worst = {}
    for b in (2, 3):
        floor_db = 20.0 * math.log10(math.cos(math.pi / 2**b))
        am = amp_gain_map(blocked_field, b)
        shortfall = am - opt
        assert (shortfall >= floor_db - 1e-9).all()
        worst[b] = float(shortfall.min())
    assert worst[2] >= -3.02 and worst[3] >= -0.69

    # the same floor holds for raw random field vectors
    grid = bs.make_grid(90.0, 180.0)
    for _ in range(500):
        e = rng.uniform(0.1, 2.0, 4) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 4))
        samples = np.broadcast_to(e[:, None, None], (4,) + grid.shape).copy()
        fld = AntennaFieldMap(grid=grid, samples=samples, label="vec")
        v = vector_at(fld, 0.0, 0.0)
        s = StrengthVector(v.real * v.real + v.imag * v.imag)
        for b in (2, 3):
            floor_db = 20.0 * math.log10(math.cos(math.pi / 2**b))
            g, _ = searched_entry(enh_phase_amp_codebook(4, b, s).weights, v)
            assert g >= mrc_gain_db(v) + floor_db - 1e-9
    print(
        "PASS criterion 4: amp-scheme shortfall floors held "
        f"(worst B=2 {worst[2]:.3f} dB >= -3.01-eps, worst B=3 {worst[3]:.3f} dB >= -0.69-eps)"
    )


def test_criterion_05_more_phase_bits_never_hurt(free_field, blocked_field):
    """B=2 -> B=3 is pointwise nondecreasing, and the marginal gain is
    small next to what B=2 already adds over plain steering."""
    grid = blocked_field.grid
    ph2 = gain_map(enh_phase_codebook(4, 2), blocked_field)
    ph3 = gain_map(enh_phase_codebook(4, 3), blocked_field)
    am2 = amp_gain_map(blocked_field, 2)
    am3 = amp_gain_map(blocked_field, 3)
    assert (ph3 >= ph2).all()
    assert (am3 >= am2).all()

    roi = rect_roi(grid, (0.0, 180.0), (150.0, 360.0))
    direct = gain_map(directional_codebook(4, None, 0.5, 5), blocked_field)
    marginal = float(np.median((ph3 - ph2)[roi.mask]))
    b2_gain = float(np.median((ph2 - direct)[roi.mask]))
    assert 0.0 <= marginal <= b2_gain
    print(
        f"PASS criterion 5: pointwise monotone in B; median extra from B=3 "
        f"{marginal:.2f} dB vs {b2_gain:.2f} dB already gained at B=2"
    )


def test_criterion_06_search_matches_naive_enumeration(rng):
    """Vectorized winner search == entry-by-entry reference, exactly."""
    grid = bs.make_grid(90.0, 180.0)
    books = [
        directional_codebook(4, 8, 0.5, 5),
        enh_phase_codebook(4, 2),
        enh_phase_codebook(4, 3),
        Codebook(tuple(np.eye(4))),  # single-antenna selection
    ]
    for case in range(1000):
        e = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        samples = np.broadcast_to(e[:, None, None], (4,) + grid.shape).copy()
        fld = AntennaFieldMap(grid=grid, samples=samples, label="vec")
        cbk = books[case % len(books)]
        g_fast, k_fast = searched_entry(cbk.weights, vector_at(fld, 0.0, 0.0))
        g_ref, k_ref = naive_best_entry(cbk.weight_matrix, e)
        assert k_fast == k_ref
        assert g_fast == g_ref  # bit-for-bit, not approximately
    print("PASS criterion 6: 1000/1000 searches equal the naive enumeration exactly")


def test_criterion_07_codebook_cardinalities():
    assert len(enh_phase_codebook(4, 2)) == 64
    assert len(enh_phase_codebook(4, 3)) == 512
    assert len(directional_codebook(4, None, 0.5, 5)) == 4
    # the (2^B)^(N-1) law holds off the default size too
    assert len(enh_phase_codebook(3, 2)) == 16
    assert len(enh_phase_amp_codebook(4, 2, StrengthVector((1, 1, 1, 1)))) == 64
    print("PASS criterion 7: cardinalities 64 / 512 / 4 (and 16 for N=3)")


def test_criterion_08_rectangular_roi_covers_58_percent():
    grid = bs.make_grid(1.0, 1.0)
    roi = rect_roi(grid, theta_range=(0.0, 180.0), phi_range=(150.0, 360.0))
    assert roi.area_fraction == pytest.approx(210.0 / 360.0, abs=1e-12)
    assert abs(roi.area_fraction - 0.5833) <= 0.002
    print(f"PASS criterion 8: RoI area fraction {roi.area_fraction:.6f} (= 210/360)")


def test_criterion_09_metric_identities(free_field):
    grid = free_field.grid
    roi = rect_roi(grid, (0.0, 180.0), (150.0, 360.0))

    # identity distortion -> all-zero loss samples for every antenna
    ident = gen_distortion(DistortionSpec(mode="identity"), grid, free_field.n_antennas)
    same = apply_distortion(free_field, ident)
    for i in range(free_field.n_antennas):
        assert (loss_samples(free_field, same, i, roi) == 0.0).all()

    # uniform amplitude scale s shifts every sample by exactly -20 log10(s)
    for s in (0.5, 2.0):
        scaled = AntennaFieldMap(grid=grid, samples=s * free_field.samples, label="s")
        for i in range(free_field.n_antennas):
            losses = loss_samples(free_field, scaled, i, roi)
            assert np.allclose(losses, -20.0 * math.log10(s), atol=1e-9)

    # phase-only distortion leaves elemental losses at zero
    screens = gen_distortion(
        DistortionSpec(mode="phase-screen", phase_std_deg=40.0, seed=3),
        grid,
        free_field.n_antennas,
    )
    twisted = apply_distortion(free_field, screens)
    for i in range(free_field.n_antennas):
        assert np.allclose(loss_samples(free_field, twisted, i, roi), 0.0, atol=1e-9)
    # ... while scrambling the inter-antenna phase structure
    pair = [(0, 1)]
    assert phase_mixing(twisted, pair)["0-1"] > phase_mixing(free_field, pair)["0-1"]

    # phase-mixing oracle values: constants score 0, ramps score |k| * step
    const = phase_pair_field(grid, np.full(grid.shape, 12.0))
    assert phase_mixing(const, pair) == {"0-1": 0.0}
    t = np.arange(grid.n_theta, dtype=float)[:, None]
    for k in (1.3, -0.4):
        ramp = np.broadcast_to(k * grid.theta_step * t, grid.shape).copy()
        mix = phase_mixing(phase_pair_field(grid, ramp), pair)["0-1"]
        assert mix == pytest.approx(abs(k) * 5.0, abs=1e-9)
    print("PASS criterion 9: loss/scale/phase-mixing identities all hold")


def test_criterion_10_default_experiment_is_fast_and_reproducible(default_run):
    first, second, elapsed = default_run
    assert elapsed < 300.0

    rel_files = sorted(p.relative_to(first) for p in Path(first).rglob("*") if p.is_file())
    assert rel_files == sorted(
        p.relative_to(second) for p in Path(second).rglob("*") if p.is_file()
    )
    assert Path(first, "report.json") in [first / r for r in rel_files]
    for rel in rel_files:
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel

    report = json.loads((first / "report.json").read_text())
    assert len(report["scenarios"]) == 4
    assert report["grid"] == {
        "n_theta": 36,
        "n_phi": 72,
        "theta_step_deg": 5.0,
        "phi_step_deg": 5.0,
    }
    print(
        f"PASS criterion 10: default run {elapsed:.1f} s (< 300 s), "
        f"{len(rel_files)} output files byte-identical on rerun"
    )


PHASE_SWEEP = Path(__file__).parents[1] / "examples" / "phase_sweep.yaml"


def test_criterion_11_phase_distortion_degrades_directional_not_enhanced(tmp_path):
    """The paper's headline trend on phase screens alone (10-degree grid,
    seeds 0-3): the directional codebook's weighted-median loss to optimal
    rises strictly as the phase std grows from 0 to 60 degrees, while the
    B=3 enhanced codebooks stay within 0.15 dB of optimal at every std."""
    specs = config_from_yaml(PHASE_SWEEP).scenarios
    stds = {name: spec.phase_std_deg for name, spec in specs.items()}
    assert sorted(stds.values()) == [0.0, 15.0, 30.0, 45.0, 60.0, 90.0, 120.0]
    ordered = sorted(stds, key=stds.get)
    worst_gap, top_loss = 0.0, []
    for seed in range(4):
        out = tmp_path / f"seed{seed}"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(["run", "--config", str(PHASE_SWEEP), "--out", str(out), "--seed", str(seed)])
        assert rc == 0
        scenarios = json.loads((out / "report.json").read_text())["scenarios"]

        def median(name, key):
            cdf = scenarios[name]["beamforming_cdfs_db"][key]["solid_angle_weighted"]
            return cdf["percentiles"]["50.0"]

        losses = [
            median(name, "loss_directional_vs_optimal_blocked_db")
            for name in ordered
            if stds[name] <= 60.0
        ]
        assert all(a < b for a, b in zip(losses, losses[1:])), (seed, losses)
        top_loss.append(losses[-1])
        for name in ordered:
            for scheme in ("enh_phase_b3", "enh_phase_amp_b3"):
                gap = median(name, f"gap_{scheme}_to_optimal_db")
                assert gap <= 0.15, (seed, name, scheme, gap)
                worst_gap = max(worst_gap, gap)
    print(
        f"PASS criterion 11: directional loss rises over 0-60 deg phase std to "
        f"{min(top_loss):.2f}-{max(top_loss):.2f} dB; B=3 gap <= {worst_gap:.2f} dB"
    )


def test_scheme_ordering_medians_in_default_scenarios(default_run):
    """Extra structural check beyond the numbered criteria: in every default
    scenario the median realized gains order as
    optimal >= phase+amp >= phase-only >= directional, for each B."""
    first, _, _ = default_run
    report = json.loads((first / "report.json").read_text())

    def median(scen, key):
        return report["scenarios"][scen]["beamforming_cdfs_db"][key]["unweighted"][
            "percentiles"
        ]["50.0"]

    for scen in report["scenarios"]:
        opt = median(scen, "optimal_gain_blocked_dbi")
        direct = median(scen, "gain_directional_dbi")
        for b in (2, 3):
            ph = median(scen, f"gain_enh_phase_b{b}_dbi")
            am = median(scen, f"gain_enh_phase_amp_b{b}_dbi")
            assert opt >= am >= ph >= direct, (scen, b)
    print("PASS ordering: optimal >= phase+amp >= phase >= directional in all scenarios")
