import contextlib
import io
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import beamshadow.experiment
from beamshadow import fileio, forked
from beamshadow.cli import main
from beamshadow.experiment import config_to_yaml
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


@pytest.fixture()
def free_file(tmp_path):
    path = tmp_path / "free.field"
    assert main(["synth", "--out", str(path), "--theta-step", "15", "--phi-step", "15"]) == 0
    return path


def test_synth_writes_a_readable_field(tmp_path, capsys):
    path = tmp_path / "free.field"
    assert main(["synth", "--out", str(path), "--theta-step", "15", "--phi-step", "15"]) == 0
    assert "4-antenna field" in capsys.readouterr().out
    fld = read_field_file(path)
    assert fld.n_antennas == 4
    assert fld.grid.shape == (12, 24)
    assert fld.label == "free"


def test_synth_rejects_bad_grid(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "x.field"), "--theta-step", "7"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("step, message", [("1e-320", "does not evenly divide"), ("1e-300", "cells")])
def test_synth_rejects_degenerate_steps_without_traceback(tmp_path, capsys, step, message):
    out = tmp_path / "x.field"
    rc = main(["synth", "--out", str(out), "--theta-step", step])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error:" in err and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_distort_ad_hoc_mode(free_file, tmp_path, capsys):
    out = tmp_path / "blocked.field"
    dist = tmp_path / "screens.dist"
    rc = main(
        [
            "distort",
            "--field", str(free_file),
            "--out", str(out),
            "--dist-out", str(dist),
            "--mode", "phase-screen",
            "--phase-std", "25",
            "--seed", "5",
        ]
    )
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
    rc = main(["metrics", "--free", str(free_file), "--blocked", str(blocked),
               "--out", str(tmp_path / "metrics"), "--percentiles", "10,90"])
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
    config = tmp_path / "deep.yaml"
    finger = {"center_theta": 90, "center_phi": 270, "radius_deg": 30, "depth_db": 8000}
    config.write_text(yaml.safe_dump(
        {"scenarios": {"deep": {"mode": "finger-occlusion", "fingers": [finger]}}}
    ))
    assert main(["synth", "--out", str(free), "--theta-step", "10", "--phi-step", "10"]) == 0
    assert main(["distort", "--field", str(free), "--out", str(blocked),
                 "--config", str(config), "--scenario", "deep"]) == 0
    capsys.readouterr()
    rc = main(["metrics", "--free", str(free), "--blocked", str(blocked), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "antenna 0 has a zero field inside the RoI" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("dist_out", ["nodir/x.dist", "."])
def test_distort_refuses_a_dist_out_it_cannot_write_before_writing(
    free_file, tmp_path, capsys, dist_out
):
    out, dist = tmp_path / "blocked.field", tmp_path / dist_out
    rc = main(["distort", "--field", str(free_file), "--out", str(out),
               "--dist-out", str(dist), "--scenario", "tight-grip-one-finger"])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"error: cannot write {dist}" in err and "Traceback" not in err
    assert not out.exists() and not dist.is_file()


def test_evaluate_all_schemes(free_file, tmp_path):
    for scheme in ("mrc", "directional", "enh-phase", "enh-phase-amp"):
        out = tmp_path / f"{scheme}.csv"
        rc = main(["evaluate", "--field", str(free_file), "--out", str(out),
                   "--scheme", scheme, "--B", "2"])
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert header == "theta_deg,phi_deg,gain_db"


def test_evaluate_rejects_unknown_scheme(free_file, tmp_path):
    with pytest.raises(SystemExit):  # argparse choices
        main(["evaluate", "--field", str(free_file), "--out", str(tmp_path / "x.csv"),
              "--scheme", "zap"])


@pytest.mark.parametrize("bits", ["0", "17", "64"])
def test_evaluate_rejects_bad_quant_bits_without_output(free_file, tmp_path, capsys, bits):
    out = tmp_path / "dir.csv"
    rc = main(["evaluate", "--field", str(free_file), "--out", str(out),
               "--scheme", "directional", "--quant-bits", bits])
    assert rc == 1
    err = capsys.readouterr().err
    assert "quant_bits must be in 1..16" in err and "Traceback" not in err
    assert not out.exists()


def test_evaluate_refuses_a_field_whose_power_overflows_the_search(tmp_path, capsys):
    """1535 dB passes ArrayConfig for 4 antennas, but a grip's amplitude
    ripple lifts the blocked field past what the search can square."""
    free, blocked, out = tmp_path / "free.field", tmp_path / "blocked.field", tmp_path / "g.csv"
    assert main(["synth", "--out", str(free), "--peak-gain", "1535",
                 "--theta-step", "15", "--phi-step", "15"]) == 0
    assert main(["distort", "--field", str(free), "--out", str(blocked),
                 "--scenario", "loose-grip-one-finger"]) == 0
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["evaluate", "--field", str(blocked), "--out", str(out),
                   "--scheme", "enh-phase-amp", "--B", "2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"error: {blocked}: " in err
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
    [(["--n-antennas", "0"], "n_antennas must be >= 1"),
     (["--n-antennas", "40"], "enhanced codebook would have"),
     (["--seed", "-1"], "expected non-negative integer"),
     (["--n-antennas", "1", "--B", "40"], "b_bits must be in 1..16"),
     (["--B", "2,2"], "b_values repeats bit width 2")],
)
def test_theorem_check_rejects_bad_arguments_without_output(tmp_path, capsys, argv, message):
    out = tmp_path / "rows.csv"
    rc = main(["theorem-check", "--trials", "10", "--out", str(out), *argv])
    assert rc == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_theorem_check_names_the_out_path_it_cannot_write(tmp_path, capsys):
    out = tmp_path / "missing" / "rows.csv"
    rc = main(["theorem-check", "--trials", "3", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"cannot write {out}: --out must name a file in an existing directory" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def _no_work(*args, **kwargs):
    raise AssertionError("work started")


@pytest.mark.parametrize("out", ["missing/x.out", "taken"])
@pytest.mark.parametrize(
    "argv, work",
    [(["synth"], "synth_freespace_field"),
     (["distort", "--field", "f.field", "--scenario", "tight-grip-one-finger"], "read_field_file"),
     (["evaluate", "--field", "f.field", "--scheme", "mrc"], "read_field_file"),
     (["theorem-check", "--trials", "100000"], "theorem_trials")],
)
def test_unwritable_out_is_refused_before_any_work(tmp_path, monkeypatch, capsys, argv, work,
                                                   out):
    """A directory, or a path in a missing one, fails before the command's
    first step and leaves no file."""
    monkeypatch.setattr(f"beamshadow.cli.{work}", _no_work)
    (tmp_path / "taken").mkdir()
    out = tmp_path / out
    rc = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"error: cannot write {out}: --out must name a file in an existing directory" in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list((tmp_path / "taken").iterdir()) == []


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


def test_crossover_script_writes_float_cells(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "directional_crossover.py"
    out = tmp_path / "cut.csv"
    proc = subprocess.run(
        [sys.executable, str(script), "--theta-step", "30", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(fileio.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = out.read_text().splitlines()
    assert header == "theta_deg,optimal_db,directional_db,gap_db"
    cells = [[float(cell) for cell in row.split(",")] for row in rows]
    assert [row[0] for row in cells] == [0.0, 30.0, 60.0, 90.0, 120.0, 150.0]
    assert {len(row) for row in cells} == {4}


def test_run_subcommand(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    config_to_yaml(tiny_config(1), cfg_path)
    out_dir = tmp_path / "out"
    rc = main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert set(report["scenarios"]) == {"grip-a"}
    stdout = capsys.readouterr().out
    assert "median optimal-gain loss" in stdout


def test_run_rejects_bad_quant_bits_without_output(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    config_to_yaml(tiny_config(1, steer_quant_bits=64), cfg_path)
    out_dir = tmp_path / "out"
    rc = main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "quant_bits must be in 1..16" in err and "Traceback" not in err
    assert not out_dir.exists()


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
]


@pytest.mark.parametrize("path, value, key", MALFORMED)
def test_run_rejects_malformed_config_without_output(tmp_path, capsys, path, value, key):
    cfg_path = tmp_path / "cfg.yaml"
    data = config_dict_with(path, value)
    cfg_path.write_bytes(data if isinstance(data, bytes) else yaml.safe_dump(data).encode())
    out_dir = tmp_path / "out"
    rc = main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert (key or str(cfg_path)) in err and "Traceback" not in err
    assert not out_dir.exists()


NAN, INF = float("nan"), float("inf")

# (command, config change or extra flags, key the error names): NaN and
# infinities, a peak gain whose power overflows a search, and a correlation
# length whose screen filter no array can hold
NON_FINITE = [
    ("run", (("g1_db",), NAN), "'g1_db'"),
    ("run", (("array", "peak_element_gain_db"), -INF), "array.peak_element_gain_db"),
    ("run", (("array", "peak_element_gain_db"), 1e308), "peak_element_gain_db"),
    ("run", (("scenarios", "grip-a", "corr_length_deg"), INF), "grip-a.corr_length_deg"),
    ("run", (("scenarios", "grip-a", "fingers", 0, "radius_deg"), NAN), "fingers[0].radius_deg"),
    ("synth", ["--exponent", "nan"], "element_exponent"),
    ("synth", ["--spacing", "inf"], "element_spacing"),
    ("synth", ["--peak-gain", "1e308"], "peak_element_gain_db"),
    ("distort", ["--phase-std", "nan"], "phase_std_deg"),
    ("distort", ["--phase-std", "10", "--corr-length", "nan"], "corr_length_deg"),
    ("distort", ["--phase-std", "10", "--corr-length", "inf"], "corr_length_deg"),
    ("run", (("array", "peak_element_gain_db"), 3000.0), "peak_element_gain_db"),
    ("synth", ["--peak-gain", "3000"], "peak_element_gain_db"),
    ("run", (("scenarios", "grip-a", "corr_length_deg"), 1e300), "grip-a: corr_length_deg"),
    ("distort", ["--phase-std", "10", "--corr-length", "1e300"], "corr_length_deg"),
]


@pytest.mark.parametrize("command, change, key", NON_FINITE)
def test_non_finite_or_overflowing_floats_are_refused_without_output(
    tmp_path, capsys, free_file, command, change, key
):
    out = tmp_path / "out"
    if command == "run":
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(config_dict_with(*change)))
        argv = ["run", "--config", str(cfg_path), "--out", str(out)]
    elif command == "synth":
        argv = ["synth", "--out", str(out), "--theta-step", "15", "--phi-step", "15", *change]
    else:
        argv = ["distort", "--field", str(free_file), "--out", str(out), *change]
    capsys.readouterr()
    rc = main(argv)
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
    monkeypatch.setattr(beamshadow.experiment, "make_grid", None)  # any work would raise
    cfg_path = tmp_path / "cfg.yaml"
    config_to_yaml(tiny_config(1), cfg_path)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "keep.txt").write_text("kept")
    for out in (out_dir, cfg_path):
        rc = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"output path {out} exists and is not an empty directory" in err
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


def test_metrics_rejects_bad_percentiles_before_writing(free_file, tmp_path, capsys):
    out_dir = tmp_path / "metrics"
    rc = main(["metrics", "--free", str(free_file), "--blocked", str(free_file),
               "--out", str(out_dir), "--percentiles", "50,150"])
    assert rc == 1
    assert "percentile 150.0" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("flag, value", [("--g1", "nan"), ("--g2", "nan"), ("--g1", "-inf")])
def test_metrics_refuses_non_finite_thresholds_before_reading(tmp_path, capsys, flag, value):
    out_dir = tmp_path / "metrics"
    absent = str(tmp_path / "absent.field")  # any read would fail on this name
    rc = main(["metrics", "--free", absent, "--blocked", absent, "--out", str(out_dir),
               f"{flag}={value}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{flag} must be finite" in err and "absent" not in err and "Traceback" not in err
    assert not out_dir.exists()


def test_distort_accepts_a_vanishing_correlation_length(free_file, tmp_path, capsys):
    out = tmp_path / "b.field"
    rc = main(["distort", "--field", str(free_file), "--out", str(out),
               "--phase-std", "10", "--corr-length", "1e-200"])
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
    assert len(results[1][1]) == 5  # coverage.csv and one CDF table per antenna
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
    read_table, parent = fileio._read_table, os.getpid()

    def die_in_child(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return read_table(*args, **kwargs)

    monkeypatch.setattr(fileio, "_read_table", die_in_child)
    out_dir = tmp_path / "metrics"
    rc, stdout, err = run_metrics(monkeypatch, capfd, 2, *metrics_inputs, out_dir)
    message = f"{metrics_inputs[1]}: reader process exited with code 3"
    assert rc == 1 and not stdout
    assert f"error: {message}" in err
    assert not out_dir.exists()
    with pytest.raises(RuntimeError, match=message):
        fileio.read_field_files(metrics_inputs)
    assert not multiprocessing.active_children()
