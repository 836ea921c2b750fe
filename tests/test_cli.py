import json
import subprocess
import sys

import numpy as np
import pytest

from beamshadow.cli import main
from beamshadow.experiment import config_to_yaml
from beamshadow.fileio import read_field_file
from test_experiment import tiny_config


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


def test_theorem_check_writes_rows(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    rc = main(["theorem-check", "--trials", "25", "--B", "2,3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,B,var_blockage,lower_bound,delta_achieved,margin"
    assert len(lines) == 1 + 25 * 2
    stdout = capsys.readouterr().out
    assert "violations=0" in stdout


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
