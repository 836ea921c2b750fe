import argparse
import contextlib
import errno
import io
import json
import multiprocessing
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import beamshadow.experiment
from beamshadow import fileio, forked, link
from beamshadow.cli import _build_parser, main
from beamshadow.distortion import DistortionSpec, FingerSpec
from beamshadow.experiment import ExperimentConfig, config_to_yaml
from beamshadow.fields import AntennaFieldMap, ArrayConfig
from beamshadow.fileio import read_field_file
from beamshadow.link import theorem_trials
from beamshadow.metrics import cdf_summary, loss_samples, roi_mask
from test_experiment import (
    NON_INTEGERS,
    config_dict_with,
    fail_in_child,
    kill_in_child,
    needs_fork,
    tiny_config,
)


def config_file(path: Path, **keys) -> str:
    """Write a config YAML at path, the defaults on a 15 degree grid updated
    by keys, and return the path as an argument."""
    path.write_text(yaml.safe_dump({"theta_step_deg": 15.0, "phi_step_deg": 15.0, **keys}))
    return str(path)


@pytest.fixture(scope="session")
def coarse_config(tmp_path_factory):
    """The defaults on a 15 degree grid, kept out of each test's tmp_path."""
    return config_file(tmp_path_factory.mktemp("config") / "coarse.yaml")


@pytest.fixture()
def free_file(tmp_path, coarse_config):
    path = tmp_path / "free.field"
    assert main(["synth", "--config", coarse_config, "--out", str(path)]) == 0
    return path


def test_synth_writes_a_readable_field(tmp_path, capsys, coarse_config):
    path = tmp_path / "free.field"
    assert main(["synth", "--config", coarse_config, "--out", str(path)]) == 0
    assert "4-antenna field" in capsys.readouterr().out
    fld = read_field_file(path)
    assert fld.n_antennas == 4
    assert fld.grid.shape == (12, 24)
    assert fld.label == "free"


def test_distort_a_phase_screen_scenario_of_the_config(free_file, tmp_path, capsys):
    out = tmp_path / "blocked.field"
    dist = tmp_path / "screens.dist"
    cfg = config_file(
        tmp_path / "cfg.yaml", scenarios={"screen": {"mode": "phase-screen", "phase_std_deg": 25.0}}
    )
    rc = main(["distort", "--config", cfg, "--scenario", "screen", "--field", str(free_file),
               "--out", str(out), "--dist-out", str(dist), "--seed", "5"])
    assert rc == 0
    blocked = read_field_file(out)
    free = read_field_file(free_file)
    assert np.allclose(np.abs(blocked.samples), np.abs(free.samples), rtol=1e-12)
    assert not np.array_equal(blocked.samples, free.samples)
    assert dist.exists()


def test_distort_named_scenario(free_file, tmp_path):
    out = tmp_path / "blocked.field"
    rc = main(
        ["distort", "--field", str(free_file), "--out", str(out),
         "--scenario", "tight-grip-one-finger"]
    )
    assert rc == 0
    assert out.exists()


def test_distort_unknown_scenario_fails(free_file, tmp_path, capsys):
    rc = main(
        ["distort", "--field", str(free_file), "--out", str(tmp_path / "b.field"),
         "--scenario", "no-such-grip"]
    )
    assert rc == 1
    assert "no-such-grip" in capsys.readouterr().err


def test_metrics_tables(free_file, tmp_path, capsys):
    blocked = tmp_path / "blocked.field"
    main(["distort", "--field", str(free_file), "--out", str(blocked),
          "--scenario", "loose-grip-one-finger"])
    out_dir = tmp_path / "metrics"
    rc = main(["metrics", "--free", str(free_file), "--blocked", str(blocked),
               "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "coverage.csv").exists()
    for i in range(4):
        assert (out_dir / f"cdf_loss_antenna{i}.csv").exists()
    stdout = capsys.readouterr().out
    assert "antenna" in stdout


def test_metrics_prints_the_mean_as_the_mean(free_file, tmp_path, capsys):
    """Without the 50th percentile the summary line names the mean it prints."""
    blocked = tmp_path / "blocked.field"
    main(["distort", "--field", str(free_file), "--out", str(blocked),
          "--scenario", "loose-grip-one-finger"])
    capsys.readouterr()
    cfg = config_file(tmp_path / "cfg.yaml", percentiles=[10.0, 90.0])
    rc = main(["metrics", "--config", cfg, "--free", str(free_file), "--blocked", str(blocked),
               "--out", str(tmp_path / "metrics")])
    assert rc == 0
    free, blk = read_field_file(free_file), read_field_file(blocked)
    roi = roi_mask(free, blk, 0, 7.5, 2.5)
    mean = cdf_summary(loss_samples(free, blk, 0, roi), (10.0, 90.0)).mean
    line = capsys.readouterr().out.splitlines()[0]
    assert line == f"antenna 0: roi={100 * roi.area_fraction:.1f}% mean_loss={mean:.2f} dB"


def test_failed_metrics_leaves_no_output(tmp_path, capsys):
    """A finger deep enough to zero the field inside the RoI fails the
    command before anything is written."""
    free, blocked, out = tmp_path / "free.field", tmp_path / "blocked.field", tmp_path / "m"
    finger = {"center_theta": 90, "center_phi": 270, "radius_deg": 30, "depth_db": 8000}
    config = config_file(
        tmp_path / "deep.yaml", theta_step_deg=10.0, phi_step_deg=10.0,
        scenarios={"deep": {"mode": "finger-occlusion", "fingers": [finger]}},
    )
    assert main(["synth", "--config", config, "--out", str(free)]) == 0
    assert main(["distort", "--field", str(free), "--out", str(blocked),
                 "--config", config, "--scenario", "deep"]) == 0
    capsys.readouterr()
    rc = main(["metrics", "--free", str(free), "--blocked", str(blocked), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "antenna 0 has a zero field inside the RoI" in err and "Traceback" not in err
    assert not out.exists()


def test_metrics_names_the_file_whose_phase_mixing_fails(tmp_path, capsys):
    """A field with one theta row has no adjacent rows to mix; the error
    names the file, and nothing is written."""
    free, blocked, out = tmp_path / "free.field", tmp_path / "blocked.field", tmp_path / "m"
    cfg = config_file(tmp_path / "cfg.yaml", theta_step_deg=180.0, g1_db=-100.0, g2_db=-100.0)
    assert main(["synth", "--config", cfg, "--out", str(free)]) == 0
    assert main(["distort", "--config", cfg, "--field", str(free), "--out", str(blocked),
                 "--scenario", "tight-grip-one-finger"]) == 0
    capsys.readouterr()
    rc = main(["metrics", "--config", cfg, "--free", str(free), "--blocked", str(blocked),
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"error: {free}: phase mixing needs at least two theta rows" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_each_stage_reproduces_its_part_of_a_run(tmp_path, capsys):
    """With a run's config, ``synth`` writes its ``free.field``; ``distort``,
    given a scenario and the run's ``--seed``, that scenario's ``blocked.field``
    and ``distortion.dist``; ``evaluate --scheme <name>`` on that
    ``blocked.field`` each ``gain_map_<name>.csv``; and ``metrics`` each
    antenna's elemental loss table and line, and each adjacent pair's mixing,
    as ``report.json`` holds them.  The config sets every setting these
    commands read away from its default."""
    config = tiny_config(
        2, array=ArrayConfig(element_spacing=0.7), n_beams=3, steer_quant_bits=3,
        b_values=(1, 3), g1_db=6.0, g2_db=1.5, percentiles=(20.0, 50.0, 95.0),
    )
    seed, cfg_path, run_dir = 4, tmp_path / "cfg.yaml", tmp_path / "run"
    config_to_yaml(config, cfg_path)
    cfg = ["--config", str(cfg_path)]
    assert main(["run", *cfg, "--out", str(run_dir), "--seed", str(seed)]) == 0
    report = json.loads((run_dir / "report.json").read_text())
    free = run_dir / "free.field"
    assert main(["synth", *cfg, "--out", str(tmp_path / "free.field")]) == 0
    assert (tmp_path / "free.field").read_bytes() == free.read_bytes()
    n = config.array.n_antennas
    for scenario in config.scenarios:
        sdir, mine = run_dir / scenario, tmp_path / scenario
        mine.mkdir()
        assert main(["distort", *cfg, "--scenario", scenario, "--seed", str(seed),
                     "--field", str(free), "--out", str(mine / "blocked.field"),
                     "--dist-out", str(mine / "distortion.dist")]) == 0
        for name in ("blocked.field", "distortion.dist"):
            assert (mine / name).read_bytes() == (sdir / name).read_bytes(), (scenario, name)
        blocked = sdir / "blocked.field"
        names = [p.name.removeprefix("gain_map_").removesuffix(".csv")
                 for p in sorted(sdir.glob("gain_map_*.csv"))]
        assert len(names) == 2 + 2 * len(config.b_values)
        for name in names:
            out = mine / f"gain_map_{name}.csv"
            assert main(["evaluate", *cfg, "--field", str(blocked), "--out", str(out),
                         "--scheme", name]) == 0
            assert out.read_bytes() == (sdir / out.name).read_bytes(), (scenario, name)
        capsys.readouterr()
        assert main(["metrics", *cfg, "--free", str(free), "--blocked", str(blocked),
                     "--out", str(mine / "metrics")]) == 0
        lines = capsys.readouterr().out.splitlines()
        data = report["scenarios"][scenario]
        for i in range(n):
            elemental = data["elemental_loss_cdfs_db"][str(i)]
            header, *rows = (mine / "metrics" / f"cdf_loss_antenna{i}.csv").read_text().splitlines()
            assert header == "percentile,value_db"
            table = {p: float(v) for p, v in (row.split(",") for row in rows)}
            assert table == elemental["percentiles"], (scenario, i)
            assert lines[i] == (
                f"antenna {i}: roi={100 * elemental['roi_area_fraction']:.1f}% "
                f"median_loss={elemental['percentiles']['50.0']:.2f} dB"
            )
        mixing = data["phase_mixing_deg_per_5deg"]
        assert lines[n:-1] == [
            f"pair {i}-{i + 1}: phase mixing free={mixing['free'][f'{i}-{i + 1}']:.1f} "
            f"blocked={mixing['blocked'][f'{i}-{i + 1}']:.1f} deg/5deg"
            for i in range(n - 1)
        ]


@pytest.mark.parametrize("dist_out", ["nodir/x.dist", ".", ""])
def test_distort_refuses_a_dist_out_it_cannot_write_before_writing(
    free_file, tmp_path, monkeypatch, capsys, dist_out
):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "blocked.field"
    dist = str(tmp_path / dist_out) if dist_out else dist_out
    rc = main(["distort", "--field", str(free_file), "--out", str(out),
               "--dist-out", dist, "--scenario", "tight-grip-one-finger"])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"error: cannot write {dist!r}: it must be a file in an existing directory" in err
    assert "Traceback" not in err
    assert not out.exists() and not Path(dist).is_file()
    if not dist_out:
        assert "cannot write ''" in err


@pytest.mark.parametrize("dist_name", ["same.field", "./same.field"])
def test_distort_refuses_one_path_for_out_and_dist_out(free_file, tmp_path, monkeypatch, capsys,
                                                        dist_name):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("beamshadow.cli.read_field_file", _no_work)
    rc = main(["distort", "--field", str(free_file), "--out", str(tmp_path / "same.field"),
               "--dist-out", dist_name, "--scenario", "tight-grip-one-finger"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: --out {tmp_path / 'same.field'} and --dist-out {dist_name} are the same file\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["free.field"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["evaluate", "--scheme", "mrc", "--out", "./free.field"], "--out ./free.field"),
        (["distort", "--scenario", "tight-grip-one-finger", "--out", "free.field"],
         "--out free.field"),
        (["distort", "--scenario", "tight-grip-one-finger", "--out", "blocked.field",
          "--dist-out", "free.field"], "--dist-out free.field"),
    ],
)
def test_an_output_onto_the_input_field_is_refused_before_the_read(
    free_file, tmp_path, monkeypatch, capsys, argv, message
):
    """``--out`` or ``--dist-out`` naming the ``--field`` file would replace
    the input: refused before the read, naming both flags, the field kept."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("beamshadow.cli.read_field_file", _no_work)
    before = free_file.read_bytes()
    assert main([*argv, "--field", str(free_file)]) == 1
    assert capsys.readouterr().err == (
        f"error: --field {free_file} and {message} are the same file\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["free.field"]
    assert free_file.read_bytes() == before


def test_distort_draws_from_the_config_seed_as_run_does(tmp_path):
    """Without ``--seed``, a config ``seed`` gives ``distort`` the scenario
    seed ``run`` derives from it, so their files agree byte for byte."""
    cfg_path, run_dir = tmp_path / "cfg.yaml", tmp_path / "run"
    config_to_yaml(tiny_config(2, seed=7), cfg_path)
    cfg = ["--config", str(cfg_path)]
    assert main(["run", *cfg, "--out", str(run_dir)]) == 0
    for scenario in ("grip-a", "grip-b"):
        mine = tmp_path / scenario
        mine.mkdir()
        assert main(["distort", *cfg, "--scenario", scenario, "--field",
                     str(run_dir / "free.field"), "--out", str(mine / "blocked.field"),
                     "--dist-out", str(mine / "distortion.dist")]) == 0
        for name in ("blocked.field", "distortion.dist"):
            assert (mine / name).read_bytes() == (run_dir / scenario / name).read_bytes()


def test_evaluate_all_schemes(free_file, tmp_path):
    """Every name of the default config's table: mrc, directional and an
    enhanced pair per B."""
    names = ["mrc", "directional", "enh_phase_b2", "enh_phase_amp_b2",
             "enh_phase_b3", "enh_phase_amp_b3"]
    for scheme in names:
        out = tmp_path / f"{scheme}.csv"
        rc = main(["evaluate", "--field", str(free_file), "--out", str(out),
                   "--scheme", scheme])
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert header == "theta_deg,phi_deg,gain_db"


def test_evaluate_mrc_builds_no_enhanced_codebook(tmp_path, capsys):
    """A 12-antenna field has no enhanced codebook under the size limit, but
    ``evaluate --scheme mrc`` and ``directional`` need none."""
    field = tmp_path / "free12.field"
    cfg = config_file(tmp_path / "cfg.yaml", array={"n_antennas": 12})
    assert main(["synth", "--config", cfg, "--out", str(field)]) == 0
    for scheme in ("mrc", "directional"):
        out = tmp_path / f"{scheme}.csv"
        assert main(["evaluate", "--field", str(field), "--out", str(out),
                     "--scheme", scheme]) == 0
        assert len(out.read_text().splitlines()) == 1 + 12 * 24
    out = tmp_path / "enh.csv"
    capsys.readouterr()
    assert main(["evaluate", "--field", str(field), "--out", str(out),
                 "--scheme", "enh_phase_b2"]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {field}: --scheme enh_phase_b2 with 12 antennas: enhanced codebook would have "
        "4194304 entries"
    )
    assert not out.exists()


@pytest.mark.parametrize("scheme", ["zap", "enh-phase-amp", "enh_phase_b4"])
def test_evaluate_rejects_unknown_scheme(tmp_path, monkeypatch, capsys, scheme):
    """A name outside the config's table, the old ``enh-phase-amp`` spelling
    and a B the config lacks included, is refused before the field is read,
    listing the table's names."""
    monkeypatch.setattr("beamshadow.cli.read_field_file", _no_work)
    out = tmp_path / "x.csv"
    rc = main(["evaluate", "--field", "f.field", "--out", str(out), "--scheme", scheme])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: --scheme {scheme}: no such scheme; available: mrc, directional, "
        "enh_phase_b2, enh_phase_amp_b2, enh_phase_b3, enh_phase_amp_b3\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_evaluate_refuses_a_field_whose_power_overflows_the_search(tmp_path, capsys):
    """1535 dB passes ArrayConfig for 4 antennas, but a grip's amplitude
    ripple lifts the blocked field past what the search can square."""
    free, blocked, out = tmp_path / "free.field", tmp_path / "blocked.field", tmp_path / "g.csv"
    cfg = config_file(tmp_path / "cfg.yaml", array={"peak_element_gain_db": 1535.0})
    assert main(["synth", "--config", cfg, "--out", str(free)]) == 0
    assert main(["distort", "--field", str(free), "--out", str(blocked),
                 "--scenario", "loose-grip-one-finger"]) == 0
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["evaluate", "--field", str(blocked), "--out", str(out),
                   "--scheme", "enh_phase_amp_b2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"error: {blocked}: its field power overflows the beamformed search" in err
    assert "Traceback" not in err and "Warning" not in err and not caught
    assert not out.exists()


def test_theorem_check_writes_rows(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    rc = main(["theorem-check", "--trials", "25", "--B", "2,3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,B,var_blockage,lower_bound,delta_achieved,margin"
    assert len(lines) == 1 + 25 * 2
    stdout = capsys.readouterr().out.splitlines()
    assert "violations=0" in stdout[1]
    # one summary line per B, from the same margins the CSV holds
    result = theorem_trials(25, b_values=(2, 3), seed=0, n_antennas=4, out=None)
    margins = {b: [float(r.split(",")[5]) for r in lines[1:] if r.split(",")[1] == str(b)]
               for b in (2, 3)}
    for j, b in enumerate((2, 3)):
        assert margins[b] == result.margin[:, j].tolist()
    assert stdout[2:] == [
        f"B={b}: violations=0 min_margin={min(margins[b]):.3e} "
        f"median_margin={np.median(result.margin[:, j]):.3e} "
        f"max_margin={max(result.margin[:, j]):.3e}"
        for j, b in enumerate((2, 3))
    ]


@pytest.mark.parametrize(
    "argv, message",
    [(["--trials", "0"], "--trials 0: n_trials must be in 1..2**32"),
     (["--n-antennas", "0"], "--B 1 with --n-antennas 0: n_antennas must be >= 1"),
     (["--B", "2,2"], "--B 2,2: b_values repeats bit width 2"),
     (["--B", "0"], "--B 0: b_values must be a non-empty list of bit widths >= 1"),
     (["--B", "17"], "--B 17 with --n-antennas 4: b_bits must be in 1..16"),
     (["--n-antennas", "70", "--B", "1"],
      "--B 1 with --n-antennas 70: enhanced codebook would have 590295810358705651712 "
      "entries (limit 1000000); reduce B or the antenna count"),
     # refused from the exponent B*(N-1), the count named as a power
     (["--n-antennas", "1000000000", "--B", "2"],
      "--B 2 with --n-antennas 1000000000: enhanced codebook would have 2**1999999998 "
      "entries (limit 1000000); reduce B or the antenna count")],
)
def test_theorem_check_refusals_name_the_flag_without_output(tmp_path, capsys, argv, message):
    out = tmp_path / "rows.csv"
    rc = main(["theorem-check", "--trials", "10", "--out", str(out), *argv])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["distort", "theorem-check", "run"])
def test_a_negative_seed_flag_is_a_usage_error(free_file, tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = {
        "distort": ["--field", str(free_file), "--out", str(out), "--scenario", "grip-a"],
        "theorem-check": ["--trials", "3", "--out", str(out)],
        "run": ["--out", str(out)],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, "--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: expected a non-negative integer, got '-1'" in err
    assert [p.name for p in tmp_path.iterdir()] == ["free.field"]


@pytest.mark.parametrize(
    "error, line",
    [(MemoryError("Unable to allocate 7.45 GiB for an array"),
      "error: Unable to allocate 7.45 GiB for an array\n"),
     (MemoryError(), "error: MemoryError\n")],
)
def test_running_out_of_memory_is_an_error_line_without_output(
    tmp_path, capsys, monkeypatch, error, line
):
    def exhausted(*args):
        raise error

    monkeypatch.setattr(link, "_trial_field", exhausted)
    out = tmp_path / "rows.csv"
    assert main(["theorem-check", "--trials", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == line
    assert list(tmp_path.iterdir()) == []


def test_theorem_check_names_the_out_path_it_cannot_write(tmp_path, capsys):
    out = tmp_path / "missing" / "rows.csv"
    rc = main(["theorem-check", "--trials", "3", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"cannot write {str(out)!r}: it must be a file in an existing directory" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def _no_work(*args, **kwargs):
    raise AssertionError("work started")


@pytest.mark.parametrize("out", ["missing/x.out", "taken", ""])
@pytest.mark.parametrize(
    "argv, work",
    [(["synth"], "cli.synth_freespace_field"),
     (["distort", "--field", "f.field", "--scenario", "tight-grip-one-finger"],
      "cli.read_field_file"),
     (["evaluate", "--field", "f.field", "--scheme", "mrc"], "cli.read_field_file"),
     (["theorem-check", "--trials", "100000"], "link._trial_field")],
)
def test_unwritable_out_is_refused_before_any_work(tmp_path, monkeypatch, capsys, argv, work,
                                                   out):
    """A directory (``""`` is the current one), or a path in a missing one,
    fails before the command's first step and leaves no file."""
    monkeypatch.setattr(f"beamshadow.{work}", _no_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").mkdir()
    out = str(tmp_path / out) if out else out
    rc = main([*argv, "--out", out])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"error: cannot write {out!r}: it must be a file in an existing directory" in err
    assert "Traceback" not in err
    if not out:
        assert "cannot write ''" in err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list((tmp_path / "taken").iterdir()) == []


def _tree(root: Path) -> dict:
    """Every path under root, hidden ones included, with its bytes (None for
    a directory)."""
    return {p: None if p.is_dir() else p.read_bytes() for p in root.rglob("*")}


@pytest.mark.parametrize("out", ["free.field", "taken", ""])
def test_metrics_refuses_a_file_or_non_empty_out_before_reading(
    free_file, tmp_path, monkeypatch, capsys, out
):
    """An existing file, a non-empty directory or ``""`` (the current one)
    fails before either field is read and changes nothing."""
    monkeypatch.setattr("beamshadow.cli.read_field_files", _no_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").mkdir()
    (tmp_path / "taken" / "keep.txt").write_text("kept")
    out = str(tmp_path / out) if out else out
    before = _tree(tmp_path)
    rc = main(["metrics", "--free", str(free_file), "--blocked", str(free_file), "--out", out])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"error: output path {out!r} exists and is not an empty directory" in err
    assert "Traceback" not in err
    if not out:
        assert "output path ''" in err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize(
    "command, failing",
    [("synth", 0), ("evaluate", 0), ("metrics", 0), ("metrics", 2), ("distort", 0),
     ("distort", 1)],
)
def test_a_write_that_fails_midway_leaves_no_output(
    metrics_inputs, tmp_path, monkeypatch, capsys, coarse_config, command, failing
):
    """A table write that fails after its first chunk, in the command's
    first write (0) or a later one, leaves no --out, no --dist-out and no
    hidden sibling; for ``distort`` write 1 is --dist-out's."""
    free, blocked = metrics_inputs
    out, dist = tmp_path / "out", tmp_path / "screens.dist"
    argv = {
        "synth": ["synth", "--config", coarse_config],
        "evaluate": ["evaluate", "--field", str(free), "--scheme", "mrc"],
        "metrics": ["metrics", "--free", str(free), "--blocked", str(blocked)],
        "distort": ["distort", "--field", str(free), "--dist-out", str(dist),
                    "--scenario", "tight-grip-one-finger"],
    }[command]
    real, writes = fileio._table_chunks, []

    def chunks(*args):
        rows = real(*args)
        yield next(rows)
        writes.append(args)
        if len(writes) > failing:
            raise OSError(errno.ENOSPC, "No space left on device")
        yield from rows

    monkeypatch.setattr(fileio, "_table_chunks", chunks)
    before = _tree(tmp_path)
    rc = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "No space left on device" in err and "Traceback" not in err
    assert len(writes) == failing + 1
    assert _tree(tmp_path) == before


def test_each_command_names_its_out_as_given(
    metrics_inputs, tmp_path, monkeypatch, capsys, coarse_config
):
    """The last stdout line names --out exactly as typed, never the hidden
    sibling the output was written in."""
    free, blocked = metrics_inputs
    monkeypatch.chdir(tmp_path)
    commands = [
        (["synth", "--config", coarse_config], "./s.field",
         "wrote 4-antenna field on 12x24 grid to ./s.field"),
        (["distort", "--field", str(free), "--scenario", "tight-grip-one-finger", "--seed", "3"],
         "b.field", "wrote blocked field to b.field (mode=combined, seed=3027)"),
        (["evaluate", "--field", str(free), "--scheme", "mrc"], "./g.csv",
         "wrote mrc gain map to ./g.csv"),
        (["metrics", "--free", str(free), "--blocked", str(blocked)], "m/",
         "wrote metrics tables to m/"),
    ]
    for argv, out, last in commands:
        capsys.readouterr()
        assert main([*argv, "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert stdout.splitlines()[-1] == last
        assert ".partial" not in stdout
    assert not [p for p in tmp_path.rglob("*") if p.name.startswith(".")]


@needs_fork
def test_run_metrics_and_theorem_check_each_split_once(metrics_inputs, tmp_path, monkeypatch):
    """Each command forks its work in one ``forked.split``, whatever binding
    of it the package calls."""
    real, calls = forked.split, []

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "beamshadow":
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    monkeypatch.setattr(forked, "resolve_workers", lambda n=None: 2)
    cfg_path = tmp_path / "cfg.yaml"
    config_to_yaml(tiny_config(2), cfg_path)
    free, blocked = metrics_inputs
    commands = [
        ["run", "--config", str(cfg_path), "--out", str(tmp_path / "run")],
        ["metrics", "--free", str(free), "--blocked", str(blocked), "--out", str(tmp_path / "m")],
        ["theorem-check", "--trials", "20", "--out", str(tmp_path / "trials.csv")],
    ]
    for argv in commands:
        calls.clear()
        assert main(argv) == 0
        assert len(calls) == 1, argv[0]
    assert not multiprocessing.active_children()


@settings(max_examples=100)
@given(
    trials=st.integers(-3, 50),
    b_values=st.lists(st.integers(0, 17), min_size=1, max_size=4),
    n_antennas=st.integers(0, 9),
    seed=st.integers(-2, 2**130),
)
def test_theorem_check_exits_cleanly_on_any_arguments(trials, b_values, n_antennas, seed):
    """Exit 0, 1 or 2 and never a traceback; the CSV exists only after a
    completed audit (exit 0, or 1 for a bound violation)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "rows.csv"
        argv = ["theorem-check", "--trials", str(trials), "--B", ",".join(map(str, b_values)),
                "--n-antennas", str(n_antennas), "--seed", str(seed), "--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
        assert rc in (0, 1, 2)
        assert "Traceback" not in stderr.getvalue()
        completed = rc == 0 or (rc == 1 and "bound violated" in stderr.getvalue())
        assert out.exists() == completed
        assert [p.name for p in Path(tmp).iterdir()] == (["rows.csv"] if completed else [])
    assert not multiprocessing.active_children()


def crossover_cut(config: str, out: Path) -> list[list[str]]:
    """The cells of the crossover script's CSV for a config, header first."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "directional_crossover.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--config", config, "--out", str(out)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(fileio.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    return [row.split(",") for row in out.read_text().splitlines()]


def test_crossover_script_writes_float_cells(tmp_path):
    header, *rows = crossover_cut(config_file(tmp_path / "cfg.yaml", theta_step_deg=30.0),
                                  tmp_path / "cut.csv")
    assert header == ["theta_deg", "optimal_db", "directional_db", "gap_db"]
    cells = [[float(cell) for cell in row] for row in rows]
    assert [row[0] for row in cells] == [0.0, 30.0, 60.0, 90.0, 120.0, 150.0]
    assert {len(row) for row in cells} == {4}


def test_crossover_script_directional_column_matches_evaluate(tmp_path):
    """The script takes the array, beams and steering bits from the config:
    its directional column is, bit for bit, evaluate's on that config."""
    config = config_file(tmp_path / "cfg.yaml", array={"element_spacing": 0.7})
    field, gains = tmp_path / "free.field", tmp_path / "directional.csv"
    assert main(["synth", "--config", config, "--out", str(field)]) == 0
    assert main(["evaluate", "--config", config, "--field", str(field), "--out", str(gains),
                 "--scheme", "directional"]) == 0
    _, *rows = crossover_cut(config, tmp_path / "cut.csv")
    _, *cells = (line.split(",") for line in gains.read_text().splitlines())
    cut = [gain for theta, phi, gain in cells if float(phi) == 270.0]
    assert [row[2] for row in rows] == cut
    # a 0.5-wavelength array gives another cut
    default_rows = crossover_cut(config_file(tmp_path / "half.yaml"), tmp_path / "half.csv")[1:]
    assert [row[2] for row in default_rows] != cut


# the columns of run's table for tiny_config's B values, in print order
RUN_COLUMNS = (
    "loss_optimal_blocked_vs_optimal_free_db",
    "loss_directional_vs_optimal_blocked_db",
    "gap_enh_phase_b2_to_optimal_db",
    "gap_enh_phase_amp_b2_to_optimal_db",
)


@pytest.mark.parametrize(
    "overrides, stat",
    [({}, "median"), ({"array": {"n_antennas": 1}}, "median"),
     ({"percentiles": (10.0, 90.0)}, "mean")],
    ids=["default", "one-antenna", "no-50th-percentile"],
)
def test_run_subcommand(tmp_path, capsys, overrides, stat):
    """Every printed cell is the .2f of the solid-angle-weighted median in
    report.json, or of the weighted mean when 50 is not a percentile; each
    mixing line is the mean over antenna pairs, and one antenna prints none."""
    cfg_path = tmp_path / "cfg.yaml"
    config_to_yaml(tiny_config(2, **overrides), cfg_path)
    out_dir = tmp_path / "out"
    rc = main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert set(report["scenarios"]) == {"grip-a", "grip-b"}
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        f"ran 2 scenario(s) -> {out_dir / 'report.json'}",
        f"RoI covers {100.0 * report['roi']['area_fraction']:.1f}% of the sphere",
    ]
    header = lines.index("") + 1
    assert lines[header].split()[0] == "scenario"
    assert lines[header].endswith(f"(weighted {stat} dB vs optimal)")
    cells = {row.split()[0]: row.split()[1:] for row in lines[header + 1:header + 3]}
    mixing = {row.split()[0]: row.split()[1:] for row in lines if row.startswith("  ")}
    expected_mixing = {}
    for name, data in report["scenarios"].items():
        expected = []
        for key in RUN_COLUMNS:
            weighted = data["beamforming_cdfs_db"][key]["solid_angle_weighted"]
            expected.append(weighted["mean"] if stat == "mean" else weighted["percentiles"]["50.0"])
        assert cells[name] == [f"{v:.2f}" for v in expected]
        pairs = data["phase_mixing_deg_per_5deg"]
        if pairs["free"]:
            free, blocked = (sum(pairs[k].values()) / len(pairs[k]) for k in ("free", "blocked"))
            expected_mixing[name] = ["free", f"{free:.2f}", "blocked", f"{blocked:.2f}"]
    assert mixing == expected_mixing
    assert bool(mixing) == ("array" not in overrides)
    assert any("phase mixing" in line for line in lines) == bool(mixing)


@pytest.mark.parametrize("command", ["metrics", "run"])
def test_an_empty_elemental_roi_fails_naming_the_antenna(
    free_file, tmp_path, capsys, monkeypatch, command
):
    """No direction reaches g1 free or g2 blocked: exit 1 naming both
    thresholds and the antenna (and the scenario), with no output or partial
    tree left."""
    cfg_path = tmp_path / "cfg.yaml"
    config_to_yaml(tiny_config(1, g1_db=100.0, g2_db=100.0), cfg_path)
    argv = [command, "--config", str(cfg_path)]
    if command == "metrics":
        argv += ["--free", str(free_file), "--blocked", str(free_file)]
    where = "scenarios.grip-a: " if command == "run" else ""
    before = sorted(tmp_path.iterdir())
    written = []
    for writer in ("write_distortion_file", "write_gain_map_csv"):
        # one scenario runs in this process, so a spy sees every scenario write
        monkeypatch.setattr(
            beamshadow.experiment, writer, lambda *args, writer=writer: written.append(writer)
        )
    rc = main([*argv, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    refusal = "g1_db 100.0 and g2_db 100.0: antenna 0 has no direction inside the RoI"
    assert f"error: {where}{refusal}" in err
    assert "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before
    assert written == []


RUN_WRITERS = (
    "write_field_file",
    "write_distortion_file",
    "write_gain_map_csv",
    "write_cdf_csv",
    "write_coverage_csv",
)


def _nan_enhanced_map(monkeypatch):
    """Make the first enhanced scheme's gain map NaN at every direction."""
    real = beamshadow.experiment.scheme_maps

    def scheme_maps(*args):
        maps = real(*args)
        name = list(maps)[2]
        maps[name] = lambda field, inner=maps[name]: inner(field) * np.nan
        return maps

    monkeypatch.setattr(beamshadow.experiment, "scheme_maps", scheme_maps)


@pytest.mark.parametrize(
    "overrides, patch, message",
    [
        *(
            # a finger at (90, 180), outside every elemental RoI but inside
            # the rect RoI: at 10000 dB its amplitude is exactly 0 on every
            # antenna, at 3400 dB every antenna's power underflows, and at
            # 2000 dB only the strength-weighted field's power does
            (
                {"scenarios": {"null": DistortionSpec(
                    mode="finger-occlusion", fingers=(FingerSpec(90.0, 180.0, 20.0, depth),)
                )}},
                None,
                "error: scenarios.null: no power survives the blockage inside the RoI "
                f"at theta=90.0, phi=180.0: gain_map_{scheme} is -inf there",
            )
            for depth, scheme in ((10000.0, "mrc"), (3400.0, "mrc"), (2000.0, "enh_phase_amp_b2"))
        ),
        (
            {},
            _nan_enhanced_map,
            "error: scenario grip-a: gain decomposition drifted by nan dB",
        ),
        (
            # two scenarios: the second would run in a forked child
            {"scenarios": tiny_config(2).scenarios, "theta_step_deg": 180.0,
             "g1_db": -100.0, "g2_db": -100.0},
            None,
            "error: config key 'theta_step_deg' 180.0: phase mixing needs at least two theta rows",
        ),
        (
            # synth and metrics build no codebook, so only run refuses this
            {"array": ArrayConfig(n_antennas=9), "b_values": (3,)},
            None,
            "error: b_values [3] and array.n_antennas 9: enhanced codebook would have 16777216 "
            "entries (limit 1000000)",
        ),
    ],
    ids=["zero-field", "underflowing-field", "underflowing-weighted-field", "nan-decomposition",
         "one-theta-row", "oversized-lattice"],
)
def test_run_fails_before_any_write(tmp_path, capsys, monkeypatch, overrides, patch, message):
    """A field, gain map or grid the run cannot summarize fails with exit 1,
    a message naming its cause, no numpy warning, and no writer called."""
    cfg_path = tmp_path / "cfg.yaml"
    config_to_yaml(tiny_config(1, **overrides), cfg_path)
    if patch is not None:
        patch(monkeypatch)
    written = []
    for writer in RUN_WRITERS:
        monkeypatch.setattr(
            beamshadow.experiment, writer, lambda *args, writer=writer: written.append(writer)
        )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert message in err and "Traceback" not in err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert written == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path, value, key", NON_INTEGERS)
def test_run_rejects_non_integer_config_integers_without_output(
    tmp_path, capsys, path, value, key
):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(config_dict_with(path, value)))
    out_dir = tmp_path / "out"
    rc = main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert key in err and "must be an integer" in err and "Traceback" not in err
    assert not out_dir.exists()


_SPEC = tiny_config(1).to_dict()["scenarios"]["grip-a"]

# (path into config.to_dict(), malformed value, key path the error names);
# the empty path writes the bytes as the whole file, whose name the error names
MALFORMED = [
    ((), b"a: [\n", None),
    ((), b"a: \x01\n", None),
    ((), b"a: \xff\n", None),
    (("b_values",), 3, "'b_values'"),
    (("scenarios", "grip-a", "fingers", 0, "antennas"), 3, "scenarios.grip-a.fingers[0].antennas"),
    (("percentiles",), 50, "'percentiles'"),
    (("array",), 3, "'array'"),
    (("scenarios",), ["a", "b"], "'scenarios'"),
    (("scenarios",), {"s": None}, "scenarios.s"),
    (("scenarios", "grip-a", "fingers", 0), {"center_theta": 90.0}, "scenarios.grip-a.fingers[0]"),
    (("scenarios",), {1: _SPEC}, "'scenarios'"),
    (("scenarios", "grip-a", "fingers"), 3, "scenarios.grip-a.fingers"),
    (("scenarios", "grip-a", "fingers"), [3], "scenarios.grip-a.fingers[0]"),
    (("g1_db",), "abc", "'g1_db'"),
    (("theta_step_deg",), "5", "theta_step_deg"),
    (("g1_db",), True, "'g1_db'"),
    (("roi_theta_range",), [0, 90, 180], "roi_theta_range"),
    (("g1_db",), None, "'g1_db'"),
    (("scenarios", "grip-a", "fingers", 0, "radius_deg"), -1, "scenarios.grip-a.fingers[0]"),
    (("array", "n_antennas"), 0, "'array'"),
    (("array", "n_antennas"), 65, "error: config key 'array': n_antennas must be in 1..64, got 65"),
    (("array", "element_spacing"), 1e308, "element_spacing"),
    (("array", "backlobe_floor_db"), -1700.0, "backlobe_floor_db -1700.0 at peak_element_gain_db"),
    (("seed",), -3, "error: seed must be >= 0, got -3"),
    (("scenarios", "grip-a", "seed"), -3, "'scenarios.grip-a': seed must be >= 0, got -3"),
    (("b_values",), [2, 2], "error: b_values must be distinct bit widths in 1..16, got [2, 2]"),
    (("b_values",), [0], "error: b_values must be distinct bit widths in 1..16, got [0]"),
    (("steer_quant_bits",), 0, "error: steer_quant_bits must be in 1..16, got 0"),
    (("n_beams",), 0, "error: n_beams must be >= 1, got 0"),
    (("n_beams",), 1_000_001, "error: n_beams must be <= 1000000, got 1000001"),
    (("percentiles",), [50, 90, 50], "error: percentiles: percentile 50.0 is repeated"),
    (("roi_theta_range",), [10.0, 5.0], "error: roi_theta_range must satisfy lo < hi"),
    (("roi_phi_range",), [200.0, 200.0], "error: roi_phi_range must satisfy lo < hi"),
    (("steer_quant_bits",), 17, "error: steer_quant_bits must be in 1..16, got 17"),
    (("steer_quant_bits",), 64, "error: steer_quant_bits must be in 1..16, got 64"),
    (("percentiles",), [10, 120], "error: percentiles: percentile 120.0 outside [0, 100]"),
    (("theta_step_deg",), 7, "error: theta_step_deg 7.0 and phi_step_deg 15.0: theta step 7.0 "
     "does not evenly divide"),
    (("theta_step_deg",), 1e-320, "error: theta_step_deg 1e-320 and phi_step_deg 15.0: theta "
     "step 1e-320 does not evenly divide"),
    (("theta_step_deg",), 1e-300, "error: theta_step_deg 1e-300 and phi_step_deg 15.0: grid "
     "would have"),
    (("phi_step_deg",), 0.0001, "error: theta_step_deg 15.0 and phi_step_deg 0.0001: grid would "
     "have 43200000 cells (limit 10000000)"),
    (("roi_theta_range",), [1, 2], "error: roi_theta_range [1.0, 2.0] and roi_phi_range "
     "[150.0, 360.0] on theta_step_deg 15.0 and phi_step_deg 15.0: rectangle selects no grid"),
]


@pytest.mark.parametrize("path, value, key", MALFORMED)
def test_every_command_refuses_a_malformed_config_alike(tmp_path, capsys, path, value, key):
    """synth, distort, metrics, evaluate and run read the config one way:
    each exits 1 with the same error line, naming the key path or the file,
    before it reads a field (these are absent) or creates anything."""
    cfg_path = tmp_path / "cfg.yaml"
    data = config_dict_with(path, value)
    cfg_path.write_bytes(data if isinstance(data, bytes) else yaml.safe_dump(data).encode())
    field = str(tmp_path / "absent.field")
    errors = {}
    for argv in (
        ["synth"],
        ["distort", "--field", field, "--scenario", "grip-a"],
        ["metrics", "--free", field, "--blocked", field],
        ["evaluate", "--field", field, "--scheme", "enh_phase_amp_b2"],
        ["run"],
    ):
        assert main([*argv, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        errors[argv[0]] = capsys.readouterr().err
    assert len(set(errors.values())) == 1, errors
    err = errors["run"]
    assert err.startswith("error: ") and (key or str(cfg_path)) in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.yaml"]  # no output, partial or not


@pytest.mark.parametrize(
    "text, line, problem",
    [
        ("phi_step_deg: 30\ntheta_step_deg: 30\ntheta_step_deg: 45\n", 3,
         "repeated key 'theta_step_deg'"),
        ("array:\n  n_antennas: 2\n  n_antennas: 3\n", 3, "repeated key 'n_antennas'"),
        ("scenarios:\n  a: {mode: identity}\n  a: {mode: identity}\n", 3, "repeated key 'a'"),
        ("g1_db: 7.0\n? [1, 2]\n: 3\n", 2, "found unhashable key"),
    ],
)
def test_a_repeated_or_unhashable_yaml_key_is_refused(tmp_path, capsys, text, line, problem):
    """A key repeated in any mapping of the config is a YAML error naming its
    line, as an unhashable key is, with exit 1 and no output."""
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(text)
    for command in ("synth", "run"):
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {cfg_path}:{line}: not a valid YAML file: {problem}\n"
        assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.yaml"]


NAN, INF = float("nan"), float("inf")

# (command, config change, key the error names): NaN and infinities, a peak
# gain whose power overflows a search, and a correlation length whose screen
# filter no array can hold
NON_FINITE = [
    ("run", (("g1_db",), NAN), "'g1_db'"),
    ("run", (("array", "peak_element_gain_db"), -INF), "array.peak_element_gain_db"),
    ("run", (("array", "peak_element_gain_db"), 1e308), "peak_element_gain_db"),
    ("run", (("scenarios", "grip-a", "corr_length_deg"), INF), "grip-a.corr_length_deg"),
    ("run", (("scenarios", "grip-a", "fingers", 0, "radius_deg"), NAN), "fingers[0].radius_deg"),
    ("synth", (("array", "element_exponent"), NAN), "array.element_exponent"),
    ("synth", (("array", "element_spacing"), INF), "array.element_spacing"),
    ("synth", (("array", "peak_element_gain_db"), 1e308), "peak_element_gain_db"),
    ("distort", (("scenarios", "grip-a", "phase_std_deg"), NAN), "grip-a.phase_std_deg"),
    ("distort", (("scenarios", "grip-a", "corr_length_deg"), NAN), "grip-a.corr_length_deg"),
    ("distort", (("scenarios", "grip-a", "corr_length_deg"), INF), "grip-a.corr_length_deg"),
    ("metrics", (("g1_db",), NAN), "'g1_db'"),
    ("metrics", (("g2_db",), NAN), "'g2_db'"),
    ("metrics", (("g1_db",), -INF), "'g1_db'"),
    ("run", (("array", "peak_element_gain_db"), 3000.0), "peak_element_gain_db"),
    ("synth", (("array", "peak_element_gain_db"), 3000.0), "peak_element_gain_db"),
    ("run", (("scenarios", "grip-a", "corr_length_deg"), 1e300), "grip-a: corr_length_deg"),
    ("distort", (("scenarios", "grip-a", "corr_length_deg"), 1e300), "corr_length_deg 1e+300"),
    # distort names the scenario's key, with run's message
    ("distort", (("scenarios", "grip-a", "corr_length_deg"), 1e300),
     "error: scenarios.grip-a: corr_length_deg 1e+300 needs a screen filter wider than"),
]


@pytest.mark.parametrize("command, change, key", NON_FINITE)
def test_non_finite_or_overflowing_floats_are_refused_without_output(
    tmp_path, capsys, free_file, command, change, key
):
    out, cfg_path = tmp_path / "out", tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(config_dict_with(*change)))
    argv = {
        "run": [],
        "synth": [],
        "distort": ["--field", str(free_file), "--scenario", "grip-a"],
        "metrics": ["--free", str(free_file), "--blocked", str(free_file)],
    }[command]
    capsys.readouterr()
    rc = main([command, *argv, "--config", str(cfg_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert key in err and "Traceback" not in err
    assert not out.exists()
    assert {p.name for p in tmp_path.iterdir()} <= {"cfg.yaml", "free.field"}  # no temporary tree


def test_run_refuses_amplitude_ripple_that_overflows_the_search(tmp_path, capsys):
    """1535 dB passes ArrayConfig for 4 antennas, but the default scenarios'
    amplitude ripple lifts the blocked power past what a search can square."""
    data = beamshadow.experiment.default_config().to_dict()
    data["array"]["peak_element_gain_db"] = 1535.0
    data["theta_step_deg"] = data["phi_step_deg"] = 30.0
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(data))
    out = tmp_path / "out"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["run", "--config", str(cfg_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert re.search(r"scenarios\.[a-z-]+: ", err) and "array.peak_element_gain_db" in err
    assert "Traceback" not in err and "Warning" not in err and not caught
    assert list(tmp_path.iterdir()) == [cfg_path]  # no tree, partial or temporary


@needs_fork
@pytest.mark.parametrize(
    "in_child, message",
    [(fail_in_child, "apply_distortion failed in process"),
     (kill_in_child, "scenarios grip-b process exited with code -9")],
)
def test_run_reports_a_worker_failure_without_traceback(tmp_path, capsys, monkeypatch, in_child,
                                                         message):
    monkeypatch.setattr(forked, "resolve_workers", lambda n=None: 2)
    monkeypatch.setattr(beamshadow.experiment, "apply_distortion", in_child(os.getpid()))
    cfg_path = tmp_path / "cfg.yaml"
    config_to_yaml(tiny_config(2), cfg_path)
    rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not multiprocessing.active_children()
    assert list(tmp_path.iterdir()) == [cfg_path]  # no tree, partial or temporary


def test_run_refuses_a_non_empty_out_before_any_work(tmp_path, capsys, monkeypatch):
    """A non-empty directory, a file or ``""`` (the current directory)."""
    # loading the config builds the grid and the RoI; the run's next step would raise
    monkeypatch.setattr(beamshadow.experiment, "phase_lattice", None)
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.yaml"
    config_to_yaml(tiny_config(1), cfg_path)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "keep.txt").write_text("kept")
    for out in (str(out_dir), str(cfg_path), ""):
        rc = main(["run", "--config", str(cfg_path), "--out", out])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"output path {out!r} exists and is not an empty directory" in err
    assert "output path ''" in err
    assert [p.name for p in out_dir.iterdir()] == ["keep.txt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml", "out"]


def test_missing_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_missing_input_file_is_reported(tmp_path, capsys):
    rc = main(["evaluate", "--field", str(tmp_path / "absent.field"),
               "--out", str(tmp_path / "x.csv"), "--scheme", "mrc"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# each subcommand's options, in order: a setting of the experiment is a
# config key, not a flag
CLI_OPTIONS = {
    "synth": ["--config", "--out"],
    "distort": ["--config", "--scenario", "--field", "--out", "--dist-out", "--seed"],
    "metrics": ["--config", "--free", "--blocked", "--out"],
    "evaluate": ["--config", "--field", "--out", "--scheme"],
    "theorem-check": ["--trials", "--seed", "--B", "--n-antennas", "--out"],
    "run": ["--config", "--out", "--seed"],
}


def test_the_cli_surface_is_pinned():
    """Every option of every subcommand, against CLI_OPTIONS.  Besides a
    seed override, only theorem-check, which audits without a config, has a
    flag whose destination is a config key."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: [o for a in parser._actions for o in a.option_strings if o not in ("-h", "--help")]
        for name, parser in sub.choices.items()
    }
    assert surface == CLI_OPTIONS
    keys = {
        f.name for kind in (ExperimentConfig, ArrayConfig, DistortionSpec, FingerSpec)
        for f in fields(kind)
    } - {"seed"}
    settings = {
        name: {a.dest for a in parser._actions} & keys for name, parser in sub.choices.items()
    }
    assert settings == {name: set() for name in CLI_OPTIONS} | {
        "theorem-check": {"b_values", "n_antennas"}
    }


def test_every_readme_command_parses():
    """Each ``beamshadow ...`` line of README's ``sh`` blocks, its ``\\``
    continuations joined, parses with the CLI's own parser, and together
    they show every subcommand."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```sh\n(.*?)^```", readme.read_text(), re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True)[1:] for line in lines
                if line.startswith("beamshadow ")]
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in commands} == set(sub.choices)
    for argv in commands:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README: beamshadow {shlex.join(argv)}: {err.getvalue()}")


def test_console_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "beamshadow", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    for name in ("synth", "distort", "metrics", "evaluate", "theorem-check", "run"):
        assert name in proc.stdout


def test_distort_accepts_a_vanishing_correlation_length(free_file, tmp_path, capsys):
    out = tmp_path / "b.field"
    spec = {"mode": "phase-screen", "phase_std_deg": 10.0, "corr_length_deg": 1e-200}
    cfg = config_file(tmp_path / "cfg.yaml", scenarios={"fine": spec})
    rc = main(["distort", "--config", cfg, "--scenario", "fine", "--field", str(free_file),
               "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    assert read_field_file(out).n_antennas == 4


@pytest.fixture()
def metrics_inputs(free_file, tmp_path):
    blocked = tmp_path / "blocked.field"
    assert main(["distort", "--field", str(free_file), "--out", str(blocked),
                 "--scenario", "loose-grip-one-finger"]) == 0
    return free_file, blocked


def run_metrics(monkeypatch, capfd, workers, free, blocked, out):
    """(exit status, stdout, stderr) of ``metrics`` with the reader's worker
    count fixed; checks that no reader process or traceback is left over."""
    monkeypatch.setattr(forked, "resolve_workers", lambda n=None: workers)
    capfd.readouterr()
    rc = main(["metrics", "--free", str(free), "--blocked", str(blocked), "--out", str(out)])
    captured = capfd.readouterr()
    assert not multiprocessing.active_children()
    assert "Traceback" not in captured.err
    lines = captured.out.splitlines()
    assert len(lines) == len(set(lines))  # nothing printed twice
    return rc, captured.out, captured.err


@needs_fork
def test_metrics_concurrent_read_is_byte_identical_to_serial(
    metrics_inputs, tmp_path, monkeypatch, capfd
):
    out_dir = tmp_path / "metrics"
    results = {}
    for workers in (1, 2):
        rc, stdout, err = run_metrics(monkeypatch, capfd, workers, *metrics_inputs, out_dir)
        assert rc == 0 and not err
        tree = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        results[workers] = stdout, tree
        shutil.rmtree(out_dir)
    # exactly coverage.csv and one CDF table per antenna
    assert sorted(results[1][1]) == sorted(
        ["coverage.csv", *(f"cdf_loss_antenna{i}.csv" for i in range(4))]
    )
    assert results[1] == results[2]


def _corrupt(path, kind):
    lines = path.read_text().splitlines(keepends=True)
    if kind == "header":
        lines[0] = lines[0].replace("beamshadow-field v1", "beamshadow-feld v1")
    elif kind == "row":
        lines[40] = lines[40].replace(",", ",x", 1)
    else:
        path.unlink()
        return
    path.write_text("".join(lines))


@needs_fork
@pytest.mark.parametrize("kind", ["header", "row", "missing"])
@pytest.mark.parametrize("bad", [("free",), ("blocked",), ("free", "blocked")])
def test_metrics_concurrent_read_errors_match_serial(
    metrics_inputs, tmp_path, monkeypatch, capfd, kind, bad
):
    paths = dict(zip(("free", "blocked"), metrics_inputs))
    for name in bad:
        _corrupt(paths[name], kind)
    out_dir = tmp_path / "metrics"
    serial = run_metrics(monkeypatch, capfd, 1, *paths.values(), out_dir)
    assert serial == run_metrics(monkeypatch, capfd, 2, *paths.values(), out_dir)
    rc, stdout, err = serial
    assert rc == 1 and not stdout
    assert str(paths[bad[0]]) in err  # the first path's error wins
    assert not out_dir.exists()


@needs_fork
def test_metrics_reader_process_that_dies_is_an_error(
    metrics_inputs, tmp_path, monkeypatch, capfd
):
    read_range, parent = fileio._read_range, os.getpid()

    def die_in_child(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return read_range(*args, **kwargs)

    monkeypatch.setattr(fileio, "_read_range", die_in_child)
    out_dir = tmp_path / "metrics"
    rc, stdout, err = run_metrics(monkeypatch, capfd, 2, *metrics_inputs, out_dir)
    message = f"{metrics_inputs[1]}: reader process exited with code 3"
    assert rc == 1 and not stdout
    assert f"error: {message}" in err
    assert not out_dir.exists()
    with pytest.raises(RuntimeError, match=message):
        fileio.read_field_files(metrics_inputs)
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("differs", ["antennas", "grid"])
def test_metrics_refuses_a_pair_that_differs(free_file, tmp_path, capsys, differs):
    """A --free/--blocked pair of other antenna counts or grids is refused,
    naming both paths and each file's N and grid, before any output."""
    blocked = tmp_path / "blocked.field"
    if differs == "antennas":
        free = read_field_file(free_file)
        fileio.write_field_file(AntennaFieldMap(free.grid, free.samples[:2], "b"), blocked)
        sides = "(N=4, 12 x 24 grid) vs", "(N=2, 12 x 24 grid)"
    else:
        cfg = config_file(tmp_path / "cfg.yaml", theta_step_deg=30.0)
        assert main(["synth", "--config", cfg, "--out", str(blocked)]) == 0
        sides = "(N=4, 12 x 24 grid) vs", "(N=4, 6 x 24 grid)"
    out = tmp_path / "metrics"
    capsys.readouterr()
    rc = main(["metrics", "--free", str(free_file), "--blocked", str(blocked), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1 and not captured.out
    message = f"the --free and --blocked fields differ: {free_file} {sides[0]} {blocked} {sides[1]}"
    assert captured.err == f"error: {message}\n"
    assert not out.exists() and not list(tmp_path.glob(".*.partial"))
