import copy
import json
import multiprocessing
import os
import re
import signal
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import beamshadow as bs
from beamshadow import experiment, forked
from beamshadow.distortion import DistortionSpec, FingerSpec
from beamshadow.experiment import (
    ExperimentConfig,
    config_from_dict,
    config_from_yaml,
    config_to_yaml,
    default_config,
    default_scenarios,
    resolve_workers,
    run_experiment,
)


def tiny_config(n_scenarios=1, **overrides):
    scen = {
        "grip-a": DistortionSpec(
            mode="combined",
            fingers=(FingerSpec(90.0, 255.0, 40.0, 12.0),),
            phase_std_deg=35.0,
            amp_std_db=1.0,
            corr_length_deg=20.0,
            seed=21,
        ),
        "grip-b": DistortionSpec(
            mode="phase-screen",
            phase_std_deg=50.0,
            amp_std_db=1.5,
            corr_length_deg=15.0,
            seed=22,
        ),
    }
    names = list(scen)[:n_scenarios]
    kwargs = dict(
        theta_step_deg=15.0,
        phi_step_deg=15.0,
        b_values=(2,),
        scenarios={k: scen[k] for k in names},
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def all_files(root):
    return sorted(p.relative_to(root) for p in Path(root).rglob("*") if p.is_file())


class TestScenarioCatalogue:
    def test_default_scenarios(self):
        scen = default_scenarios()
        assert set(scen) == {
            "tight-grip-one-finger",
            "tight-grip-two-finger",
            "loose-grip-one-finger",
            "loose-grip-two-finger",
        }
        for spec in scen.values():
            assert spec.mode == "combined"
        # tight grips press harder than loose ones
        assert (
            scen["tight-grip-one-finger"].fingers[0].depth_db
            > scen["loose-grip-one-finger"].fingers[0].depth_db
        )
        assert len(scen["tight-grip-two-finger"].fingers) == 2

    def test_default_config_uses_them(self):
        cfg = default_config()
        assert set(cfg.scenarios) == set(default_scenarios())
        assert cfg.b_values == (2, 3)


class TestConfigValidation:
    def test_scenario_names_must_be_path_safe(self):
        with pytest.raises(ValueError, match="directory name"):
            tiny_config(scenarios={"bad name!": DistortionSpec(mode="identity")})

    def test_b_values_required(self):
        with pytest.raises(ValueError, match="b_values"):
            tiny_config(b_values=())

    def test_needs_scenarios(self):
        with pytest.raises(ValueError, match="scenario"):
            tiny_config(scenarios={})

    def test_unknown_top_level_key_rejected(self):
        data = tiny_config().to_dict()
        data["zap"] = 1
        with pytest.raises(ValueError, match="zap"):
            config_from_dict(data)

    def test_unknown_nested_keys_rejected(self):
        data = tiny_config().to_dict()
        data["array"]["zap"] = 1
        with pytest.raises(ValueError, match="zap"):
            config_from_dict(data)
        data = tiny_config().to_dict()
        data["scenarios"]["grip-a"]["zap"] = 1
        with pytest.raises(ValueError, match="zap"):
            config_from_dict(data)

    def test_null_only_for_nullable_keys(self):
        data = tiny_config().to_dict()
        data["seed"] = None
        data["n_beams"] = None
        config_from_dict(data)  # fine
        data["g1_db"] = None
        with pytest.raises(ValueError, match="g1_db"):
            config_from_dict(data)


class TestConfigSerialization:
    def test_dict_round_trip(self):
        cfg = tiny_config(2, seed=9, n_beams=8)
        assert config_from_dict(cfg.to_dict()) == cfg

    def test_yaml_round_trip(self, tmp_path):
        cfg = tiny_config(2)
        path = tmp_path / "cfg.yaml"
        config_to_yaml(cfg, path)
        assert config_from_yaml(path) == cfg

    def test_float_keys_are_stored_as_floats(self):
        data = tiny_config().to_dict()
        data["g1_db"] = 7
        data["array"]["element_spacing"] = 1
        echo = config_from_dict(data).to_dict()
        assert type(echo["g1_db"]) is float and echo["g1_db"] == 7.0
        assert type(echo["array"]["element_spacing"]) is float

    def test_yaml_of_default_config_round_trips(self, tmp_path):
        cfg = default_config()
        path = tmp_path / "cfg.yaml"
        config_to_yaml(cfg, path)
        assert config_from_yaml(path) == cfg


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    report = run_experiment(tiny_config(2), out)
    return out, report


class TestRunExperiment:
    def test_expected_files_exist(self, run_dir):
        out, _ = run_dir
        names = {str(p) for p in all_files(out)}
        assert "report.json" in names
        assert "free.field" in names
        for scen in ("grip-a", "grip-b"):
            assert f"{scen}/blocked.field" in names
            assert f"{scen}/distortion.dist" in names
            assert f"{scen}/gain_map_mrc.csv" in names
            assert f"{scen}/gain_map_directional.csv" in names
            assert f"{scen}/gain_map_enh_phase_b2.csv" in names
            assert f"{scen}/gain_map_enh_phase_amp_b2.csv" in names
            assert f"{scen}/coverage.csv" in names
            assert f"{scen}/cdf_optimal_gain_blocked_dbi.csv" in names

    def test_report_structure(self, run_dir):
        out, _ = run_dir
        data = json.loads((out / "report.json").read_text())
        assert data["format"] == "beamshadow-report v1"
        assert data["roi"]["area_fraction"] == pytest.approx(210.0 / 360.0, abs=1e-12)
        assert data["grid"] == {
            "n_theta": 12,
            "n_phi": 24,
            "theta_step_deg": 15.0,
            "phi_step_deg": 15.0,
        }
        assert set(data["scenarios"]) == {"grip-a", "grip-b"}

    def test_improvement_plus_gap_closes_to_loss(self, run_dir):
        out, _ = run_dir
        data = json.loads((out / "report.json").read_text())
        for scen in data["scenarios"].values():
            assert scen["consistency_max_abs_residual_db"] <= 1e-9

    def test_sample_counts_cover_the_roi(self, run_dir):
        out, _ = run_dir
        data = json.loads((out / "report.json").read_text())
        n_roi = data["roi"]["n_directions"]
        for scen in data["scenarios"].values():
            for cdf in scen["beamforming_cdfs_db"].values():
                assert cdf["unweighted"]["n_samples"] == n_roi

    def test_percentile_keys_are_stable_strings(self, run_dir):
        out, _ = run_dir
        data = json.loads((out / "report.json").read_text())
        cdf = data["scenarios"]["grip-a"]["beamforming_cdfs_db"]["optimal_gain_blocked_dbi"]
        assert set(cdf["unweighted"]["percentiles"]) == {"10.0", "50.0", "80.0", "90.0"}

    def test_phase_mixing_section(self, run_dir):
        out, _ = run_dir
        data = json.loads((out / "report.json").read_text())
        mixing = data["scenarios"]["grip-a"]["phase_mixing_deg_per_5deg"]
        assert set(mixing) == {"free", "blocked"}
        assert set(mixing["free"]) == {"0-1", "0-2", "0-3", "1-2", "1-3", "2-3"}

    def test_rerun_is_byte_identical(self, run_dir, tmp_path):
        out, _ = run_dir
        again = tmp_path / "again"
        run_experiment(tiny_config(2), again)
        assert all_files(out) == all_files(again)
        for rel in all_files(out):
            assert (out / rel).read_bytes() == (again / rel).read_bytes(), rel


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"percentiles": (50.0, 150.0)}, "percentile 150.0"),
        ({"b_values": (2, 12)}, "enhanced codebook would have"),
        ({"steer_quant_bits": 64}, "quant_bits must be in 1..16"),
        ({"steer_quant_bits": 0}, "quant_bits must be in 1..16"),
        (
            {
                "scenarios": {
                    "grip-a": DistortionSpec(
                        fingers=(FingerSpec(90.0, 255.0, 40.0, 12.0, antennas=(7,)),)
                    )
                }
            },
            "scenarios.grip-a: finger targets antenna 7 outside 0..3",
        ),
        (
            {"scenarios": {"grip-a": DistortionSpec(phase_std_deg=10.0, corr_length_deg=1e300)}},
            "scenarios.grip-a: corr_length_deg 1e[+]300 needs a screen filter wider than",
        ),
    ],
)
def test_bad_config_fails_before_any_write(tmp_path, overrides, message):
    out = tmp_path / "run"
    with pytest.raises(ValueError, match=message):
        run_experiment(tiny_config(1, **overrides), out)
    assert not out.exists()


# (path into config.to_dict(), non-integer value, key named in the error)
NON_INTEGERS = [
    (("steer_quant_bits",), 5.5, "steer_quant_bits"),
    (("n_beams",), 2.5, "n_beams"),
    (("b_values",), [2.7, True], "b_values"),
    (("b_values",), [2, True], "b_values"),
    (("seed",), 1.5, "seed"),
    (("array", "n_antennas"), 4.0, "array.n_antennas"),
    (("scenarios", "grip-a", "seed"), 21.5, "scenarios.grip-a.seed"),
    (("scenarios", "grip-a", "fingers", 0, "antennas"), [1.0], "scenarios.grip-a.fingers[0]"),
    (("scenarios", "grip-a", "fingers", 0, "antennas"), [True], "scenarios.grip-a.fingers[0]"),
    (("n_beams",), True, "n_beams"),
    (("seed",), "1", "seed"),
    (("array", "n_antennas"), "4", "array.n_antennas"),
    (("steer_quant_bits",), 5.0, "steer_quant_bits"),
    (("scenarios", "grip-a", "fingers", 0, "antennas"), [0, "1"], "fingers[0].antennas[1]"),
]


def config_dict_with(path, value, data=None) -> dict:
    """``data`` (default: the one-scenario ``tiny_config`` dict) with the
    value at ``path`` replaced; an empty path replaces the whole dict."""
    data = tiny_config(1).to_dict() if data is None else data
    if not path:
        return value
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@pytest.mark.parametrize("path, value, key", NON_INTEGERS)
def test_non_integer_config_integers_refused(path, value, key):
    with pytest.raises(ValueError, match=rf"{re.escape(key)}.* must be an integer"):
        config_from_dict(config_dict_with(path, value))


@pytest.mark.parametrize(
    "overrides", [{"steer_quant_bits": 5.5}, {"n_beams": 2.5}, {"b_values": (2.7, True)}]
)
def test_non_integer_config_integers_refused_by_constructor(overrides):
    with pytest.raises(ValueError, match="must be an integer"):
        tiny_config(1, **overrides)


def key_paths(node, prefix=()):
    """Every path into a nested dict/list, the empty root path included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from key_paths(child, prefix + (key,))


PROPERTY_BASE = tiny_config(2, seed=9, n_beams=8).to_dict()
PROPERTY_BASE["scenarios"]["grip-a"]["fingers"][0]["antennas"] = [0, 2]
JSON_LIKE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6) | st.integers(), inner, max_size=3),
    max_leaves=6,
)


@given(
    path=st.sampled_from(list(key_paths(PROPERTY_BASE))),
    new_key=st.none() | st.text(max_size=6),
    value=st.integers(0, 4) | st.floats(0.5, 90.0) | JSON_LIKE,
)
def test_config_from_dict_refuses_only_by_value_error_and_round_trips(path, new_key, value):
    """Any JSON-like value at any key path (or under a new key of a mapping)
    either fails with ``ValueError`` or gives a config that dict and YAML
    round-trip."""
    data = copy.deepcopy(PROPERTY_BASE)
    node = data
    for key in path:
        node = node[key]
    if new_key is not None and isinstance(node, dict):
        node[new_key] = value
    else:
        data = config_dict_with(path, value, data)
    try:
        cfg = config_from_dict(data)
    except ValueError:
        return
    assert config_from_dict(cfg.to_dict()) == cfg
    with tempfile.TemporaryDirectory() as tmp:
        config_to_yaml(cfg, Path(tmp) / "cfg.yaml")
        assert config_from_yaml(Path(tmp) / "cfg.yaml") == cfg


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)


@needs_fork
def test_resolve_workers_is_usable_cpus_capped_at_tasks():
    cpus = len(os.sched_getaffinity(0))
    assert resolve_workers(None) == cpus
    for n in (1, 2, 3, 4, 64):
        assert resolve_workers(n) == min(n, cpus)
    assert resolve_workers(0) == 1  # never zero ranges to split into


def split_config(n_scenarios):
    """``tiny_config(2)``'s two scenarios, repeated to n_scenarios."""
    specs = list(tiny_config(2).scenarios.values())
    return tiny_config(scenarios={f"grip-{i}": specs[i % 2] for i in range(n_scenarios)})


def workers_patched(monkeypatch, workers):
    """``resolve_workers`` as on a machine with ``workers`` usable CPUs."""
    monkeypatch.setattr(forked, "resolve_workers", lambda n=None: min(n, workers))


@needs_fork
@pytest.mark.parametrize("n_scenarios", [1, 3, 5])
def test_split_run_is_byte_identical_to_in_process_run(tmp_path, monkeypatch, n_scenarios):
    """Any split of the scenarios, uneven ranges included, writes the tree
    that one process writes."""
    trees = {}
    for workers in (1, 2, 3):
        workers_patched(monkeypatch, workers)
        out = tmp_path / f"workers{workers}"
        run_experiment(split_config(n_scenarios), out, seed=5)
        trees[workers] = {rel: (out / rel).read_bytes() for rel in all_files(out)}
        assert not multiprocessing.active_children()
    assert len(trees[1]) == 2 + n_scenarios * 18  # free.field, report.json, 18 per scenario
    assert trees[1] == trees[2] == trees[3]


def fail_in_child(parent):
    """An ``apply_distortion`` that raises in any process but ``parent``."""
    real = experiment.apply_distortion

    def apply(field, distortion):
        if os.getpid() == parent:
            return real(field, distortion)
        raise RuntimeError(f"apply_distortion failed in process {os.getpid()}")

    return apply


@needs_fork
def test_worker_exception_reaches_caller_as_its_type(tmp_path, monkeypatch):
    workers_patched(monkeypatch, 2)
    monkeypatch.setattr(experiment, "apply_distortion", fail_in_child(os.getpid()))
    with pytest.raises(RuntimeError, match="apply_distortion failed in process") as info:
        run_experiment(tiny_config(2), tmp_path / "run")
    # raised in a forked worker, not in this process
    assert str(info.value) != f"apply_distortion failed in process {os.getpid()}"
    assert not multiprocessing.active_children()
    assert list(tmp_path.iterdir()) == []  # no tree, no build directory


def kill_in_child(parent):
    """An ``apply_distortion`` that SIGKILLs any process but ``parent``."""
    real = experiment.apply_distortion

    def apply(field, distortion):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(field, distortion)

    return apply


@needs_fork
def test_child_killed_by_a_signal_is_a_runtime_error(tmp_path, monkeypatch):
    workers_patched(monkeypatch, 2)
    monkeypatch.setattr(experiment, "apply_distortion", kill_in_child(os.getpid()))
    with pytest.raises(RuntimeError, match="scenarios grip-b process exited with code -9"):
        run_experiment(tiny_config(2), tmp_path / "run")
    assert not multiprocessing.active_children()
    assert list(tmp_path.iterdir()) == []  # no tree, no build directory


class TestSeedOverride:
    def test_override_shifts_scenario_seeds(self, tmp_path):
        out = tmp_path / "seeded"
        run_experiment(tiny_config(2), out, seed=7)
        data = json.loads((out / "report.json").read_text())
        assert data["effective_seed"] == 7
        seeds = [data["scenarios"][n]["seed"] for n in ("grip-a", "grip-b")]
        assert seeds == [7 * 1009, 7 * 1009 + 1]

    def test_no_override_keeps_scenario_seeds(self, tmp_path):
        out = tmp_path / "plain"
        run_experiment(tiny_config(2), out)
        data = json.loads((out / "report.json").read_text())
        assert data["scenarios"]["grip-a"]["seed"] == 21
        assert data["scenarios"]["grip-b"]["seed"] == 22

    def test_different_seeds_change_results(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_experiment(tiny_config(1), a, seed=1)
        run_experiment(tiny_config(1), b, seed=2)
        assert (a / "grip-a/blocked.field").read_bytes() != (
            b / "grip-a/blocked.field"
        ).read_bytes()
