"""End-to-end experiment pipeline: synthesize a free-space field, distort it
per scenario, evaluate every beamforming scheme, and summarize losses.

Outputs under the chosen directory::

    free.field                      free-space field map
    report.json                     all summaries + config echo (sorted keys)
    <scenario>/blocked.field        distorted field map
    <scenario>/distortion.dist      the screens that produced it
    <scenario>/gain_map_*.csv       per-scheme realized-gain maps
    <scenario>/cdf_*.csv            percentile tables (one row per percentile)
    <scenario>/coverage.csv         per-antenna peaks and RoI areas

Reruns with the same config and seed are byte-identical: derived per-trial
seeds, ordered writes, repr float formatting, no timestamps.  Every
distortion is drawn before the first write; the scenarios then run in worker
processes forked from the caller, one per usable CPU (see
``resolve_workers``), each writing only its own directory, while the caller
writes ``free.field`` and, once every scenario has returned, ``report.json``.
"""

from __future__ import annotations

import json
import numbers
import os
import re
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from .codebook import (
    Codebook,
    amp_gain_map,
    directional_codebook,
    enh_phase_codebook,
    gain_map,
)
from .distortion import (
    DistortionField,
    DistortionSpec,
    FingerSpec,
    apply_distortion,
    gen_distortion,
)
from .fields import AntennaFieldMap, ArrayConfig, synth_freespace_field
from .fileio import (
    write_cdf_csv,
    write_coverage_csv,
    write_distortion_file,
    write_field_file,
    write_gain_map_csv,
)
from .metrics import (
    cdf_summary,
    check_percentiles,
    coverage_stats,
    loss_samples,
    pair_phase_diff,
    phase_mixing,
    rect_roi,
    roi_mask,
)
from .sphere import make_grid

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "default_scenarios",
    "default_config",
    "config_from_yaml",
    "config_to_yaml",
    "run_experiment",
    "resolve_workers",
]

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def resolve_workers(n_tasks: int | None = None) -> int:
    """Scenario worker count: the usable CPUs, capped at ``n_tasks``.

    1 where the ``fork`` start method is missing; the scenarios then run in
    the calling process.
    """
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cpus = cpus or 1
    return cpus if n_tasks is None else min(n_tasks, cpus)


def _integer(value, key: str):
    """Refuse a float, bool or string where the config needs an integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"config key {key!r} must be an integer, got {value!r}")
    return value


def default_scenarios() -> dict[str, DistortionSpec]:
    """Four grip scenarios: tight/loose grip, one/two occluding fingers.

    Tight grips press harder (deeper dents, stronger phase screens) than
    loose grips; two-finger variants add a second dent offset from the
    first.  Centers sit near the default boresight (theta 90, phi 270).
    """
    return {
        "tight-grip-one-finger": DistortionSpec(
            mode="combined",
            fingers=(FingerSpec(90.0, 255.0, 40.0, 16.0),),
            phase_std_deg=45.0,
            amp_std_db=1.5,
            corr_length_deg=15.0,
            seed=101,
        ),
        "tight-grip-two-finger": DistortionSpec(
            mode="combined",
            fingers=(
                FingerSpec(90.0, 245.0, 34.0, 18.0),
                FingerSpec(70.0, 290.0, 28.0, 13.0),
            ),
            phase_std_deg=55.0,
            amp_std_db=2.0,
            corr_length_deg=12.0,
            seed=102,
        ),
        "loose-grip-one-finger": DistortionSpec(
            mode="combined",
            fingers=(FingerSpec(90.0, 255.0, 32.0, 9.0),),
            phase_std_deg=30.0,
            amp_std_db=1.0,
            corr_length_deg=18.0,
            seed=103,
        ),
        "loose-grip-two-finger": DistortionSpec(
            mode="combined",
            fingers=(
                FingerSpec(90.0, 245.0, 28.0, 11.0),
                FingerSpec(70.0, 290.0, 24.0, 8.0),
            ),
            phase_std_deg=40.0,
            amp_std_db=1.5,
            corr_length_deg=15.0,
            seed=104,
        ),
    }


@dataclass
class ExperimentConfig:
    """Everything a run needs; YAML round-trippable."""

    array: ArrayConfig = field(default_factory=ArrayConfig)
    theta_step_deg: float = 5.0
    phi_step_deg: float = 5.0
    roi_theta_range: tuple[float, float] = (0.0, 180.0)
    roi_phi_range: tuple[float, float] = (150.0, 360.0)
    g1_db: float = 7.5
    g2_db: float = 2.5
    n_beams: int | None = None
    steer_quant_bits: int = 5
    b_values: tuple[int, ...] = (2, 3)
    percentiles: tuple[float, ...] = (10.0, 50.0, 80.0, 90.0)
    seed: int | None = None
    scenarios: dict[str, DistortionSpec] = field(default_factory=default_scenarios)

    def __post_init__(self):
        self.b_values = tuple(int(_integer(b, "b_values")) for b in self.b_values)
        _integer(self.steer_quant_bits, "steer_quant_bits")
        for key in ("n_beams", "seed"):
            if getattr(self, key) is not None:
                _integer(getattr(self, key), key)
        _integer(self.array.n_antennas, "array.n_antennas")
        for name, spec in self.scenarios.items():
            _integer(spec.seed, f"scenarios.{name}.seed")
            for k, finger in enumerate(spec.fingers):
                for a in finger.antennas or ():
                    _integer(a, f"scenarios.{name}.fingers[{k}].antennas")
        self.percentiles = tuple(float(p) for p in self.percentiles)
        self.roi_theta_range = tuple(float(v) for v in self.roi_theta_range)
        self.roi_phi_range = tuple(float(v) for v in self.roi_phi_range)
        if not self.b_values:
            raise ValueError("b_values must not be empty")
        if not self.scenarios:
            raise ValueError("config needs at least one scenario")
        for name in self.scenarios:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(
                    f"scenario name {name!r} must match {_NAME_RE.pattern} "
                    "(it becomes a directory name)"
                )

    def to_dict(self) -> dict:
        return {
            "array": asdict(self.array),
            "theta_step_deg": self.theta_step_deg,
            "phi_step_deg": self.phi_step_deg,
            "roi_theta_range": list(self.roi_theta_range),
            "roi_phi_range": list(self.roi_phi_range),
            "g1_db": self.g1_db,
            "g2_db": self.g2_db,
            "n_beams": self.n_beams,
            "steer_quant_bits": self.steer_quant_bits,
            "b_values": list(self.b_values),
            "percentiles": list(self.percentiles),
            "seed": self.seed,
            "scenarios": {
                name: _spec_to_dict(spec) for name, spec in self.scenarios.items()
            },
        }


def _spec_to_dict(spec: DistortionSpec) -> dict:
    d = asdict(spec)
    d["fingers"] = [asdict(f) for f in spec.fingers]
    for f in d["fingers"]:
        if f["antennas"] is not None:
            f["antennas"] = list(f["antennas"])
    return d


def _spec_from_dict(data: dict, where: str) -> DistortionSpec:
    allowed = {"mode", "fingers", "phase_std_deg", "amp_std_db", "corr_length_deg", "seed"}
    _reject_unknown(data, allowed, where)
    fingers = []
    for k, f in enumerate(data.get("fingers", ()) or ()):
        f_allowed = {"center_theta", "center_phi", "radius_deg", "depth_db", "antennas"}
        _reject_unknown(f, f_allowed, f"{where}.fingers[{k}]")
        ants = f.get("antennas")
        fingers.append(
            FingerSpec(
                center_theta=float(f["center_theta"]),
                center_phi=float(f["center_phi"]),
                radius_deg=float(f["radius_deg"]),
                depth_db=float(f["depth_db"]),
                antennas=None if ants is None else tuple(ants),
            )
        )
    return DistortionSpec(
        mode=data.get("mode", "combined"),
        fingers=tuple(fingers),
        phase_std_deg=float(data.get("phase_std_deg", 0.0)),
        amp_std_db=float(data.get("amp_std_db", 0.0)),
        corr_length_deg=float(data.get("corr_length_deg", 20.0)),
        seed=data.get("seed", 0),
    )


def _reject_unknown(data: dict, allowed: set[str], where: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown keys in {where}: {sorted(unknown)}")


def config_from_dict(data: dict) -> ExperimentConfig:
    allowed = {
        "array",
        "theta_step_deg",
        "phi_step_deg",
        "roi_theta_range",
        "roi_phi_range",
        "g1_db",
        "g2_db",
        "n_beams",
        "steer_quant_bits",
        "b_values",
        "percentiles",
        "seed",
        "scenarios",
    }
    _reject_unknown(data, allowed, "config")
    kwargs: dict = {}
    if "array" in data:
        arr = data["array"]
        _reject_unknown(arr, {f.name for f in ArrayConfig.__dataclass_fields__.values()}, "array")
        kwargs["array"] = ArrayConfig(**arr)
    if "scenarios" in data:
        kwargs["scenarios"] = {
            name: _spec_from_dict(spec, f"scenarios.{name}")
            for name, spec in data["scenarios"].items()
        }
    nullable = {"n_beams", "seed"}
    for key in allowed - {"array", "scenarios"}:
        if key not in data:
            continue
        if data[key] is None and key not in nullable:
            raise ValueError(f"config key {key!r} must not be null")
        kwargs[key] = data[key]
    return ExperimentConfig(**kwargs)


def config_from_yaml(path) -> ExperimentConfig:
    with open(path) as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a mapping")
    return config_from_dict(data)


def config_to_yaml(config: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(config.to_dict(), fh, sort_keys=False)


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


@dataclass(eq=False)
class ExperimentReport:
    config: ExperimentConfig
    effective_seed: int | None
    grid_info: dict
    roi_info: dict
    free_field: dict
    scenarios: dict[str, dict]

    def to_dict(self) -> dict:
        return {
            "format": "beamshadow-report v1",
            "config": self.config.to_dict(),
            "effective_seed": self.effective_seed,
            "grid": self.grid_info,
            "roi": self.roi_info,
            "free_field": self.free_field,
            "scenarios": self.scenarios,
        }


def _both_summaries(samples: np.ndarray, weights: np.ndarray, percentiles) -> tuple:
    """The unweighted ``CdfSummary`` (for ``cdf_*.csv``) and the report.json
    dict of it and the solid-angle-weighted one."""
    unweighted = cdf_summary(samples, percentiles)
    return unweighted, {
        "unweighted": unweighted.to_dict(),
        "solid_angle_weighted": cdf_summary(samples, percentiles, weights=weights).to_dict(),
    }


def _run_scenario(
    name: str,
    spec: DistortionSpec,
    dist: DistortionField,
    config: ExperimentConfig,
    free: AntennaFieldMap,
    rect,
    dir_cbk: Codebook,
    phase_cbks: dict[int, Codebook],
    g_opt_free: np.ndarray,
    roi_weights: np.ndarray,
    out: Path,
) -> dict:
    grid = free.grid
    sdir = out / name
    sdir.mkdir(parents=True, exist_ok=True)
    blocked = apply_distortion(free, dist)
    write_field_file(blocked, sdir / "blocked.field")
    write_distortion_file(dist, sdir / "distortion.dist")

    g_opt_blk = gain_map("mrc", blocked)
    g_dir = gain_map(dir_cbk, blocked)
    g_phase = {b: gain_map(cbk, blocked) for b, cbk in phase_cbks.items()}
    g_amp = {b: amp_gain_map(blocked, b) for b in config.b_values}

    write_gain_map_csv(grid, g_opt_blk, sdir / "gain_map_mrc.csv")
    write_gain_map_csv(grid, g_dir, sdir / "gain_map_directional.csv")
    for b in config.b_values:
        write_gain_map_csv(grid, g_phase[b], sdir / f"gain_map_enh_phase_b{b}.csv")
        write_gain_map_csv(grid, g_amp[b], sdir / f"gain_map_enh_phase_amp_b{b}.csv")

    m = rect.mask
    dir_loss = (g_opt_blk - g_dir)[m]
    samples: dict[str, np.ndarray] = {
        "optimal_gain_blocked_dbi": g_opt_blk[m],
        "gain_directional_dbi": g_dir[m],
        "loss_optimal_blocked_vs_optimal_free_db": (g_opt_free - g_opt_blk)[m],
        "loss_directional_vs_optimal_blocked_db": dir_loss,
        "loss_directional_vs_optimal_free_db": (g_opt_free - g_dir)[m],
    }
    consistency = 0.0
    for b in config.b_values:
        for label, gmap in (("enh_phase", g_phase[b]), ("enh_phase_amp", g_amp[b])):
            improvement = (gmap - g_dir)[m]
            gap = (g_opt_blk - gmap)[m]
            samples[f"gain_{label}_b{b}_dbi"] = gmap[m]
            samples[f"improvement_{label}_b{b}_over_directional_db"] = improvement
            samples[f"gap_{label}_b{b}_to_optimal_db"] = gap
            # improvement-over-directional + gap-to-optimal must telescope to
            # the directional loss at every direction, up to float reassociation
            consistency = max(
                consistency, float(np.abs((improvement + gap) - dir_loss).max())
            )
    if consistency > 1e-9:
        raise RuntimeError(
            f"scenario {name}: gain decomposition drifted by {consistency} dB"
        )
    for key, arr in samples.items():
        if arr.size != rect.n_directions:
            raise RuntimeError(f"scenario {name}: {key} lost samples inside the RoI")

    cdfs = {}
    for key, arr in samples.items():
        unweighted, cdfs[key] = _both_summaries(arr, roi_weights, config.percentiles)
        write_cdf_csv(unweighted, sdir / f"cdf_{key}.csv")

    elemental = {}
    for i in range(free.n_antennas):
        roi_i = roi_mask(free, blocked, i, config.g1_db, config.g2_db)
        losses = loss_samples(free, blocked, i, roi_i)
        elemental[str(i)] = cdf_summary(losses, config.percentiles).to_dict()
        elemental[str(i)]["roi_area_fraction"] = roi_i.area_fraction

    coverage = coverage_stats(free, blocked, config.g1_db, config.g2_db)
    write_coverage_csv(coverage, sdir / "coverage.csv")

    mixing_free, mixing_blocked = {}, {}
    for i in range(free.n_antennas):
        for j in range(i + 1, free.n_antennas):
            key = f"{i}-{j}"
            mixing_free[key] = phase_mixing(pair_phase_diff(free, i, j))
            mixing_blocked[key] = phase_mixing(pair_phase_diff(blocked, i, j))

    return {
        "seed": spec.seed,
        "distortion": _spec_to_dict(spec),
        "beamforming_cdfs_db": cdfs,
        "elemental_loss_cdfs_db": elemental,
        "coverage": [row.to_dict() for row in coverage],
        "phase_mixing_deg_per_5deg": {"free": mixing_free, "blocked": mixing_blocked},
        "consistency_max_abs_residual_db": consistency,
    }


def run_experiment(
    config: ExperimentConfig,
    out_dir,
    seed: int | None = None,
) -> ExperimentReport:
    """Run every scenario and write the full report tree under out_dir.

    ``seed`` overrides the config seed; when set, scenario seeds derive from
    it (seed * 1009 + scenario index) instead of the per-spec seeds.
    Scenarios run in ``resolve_workers(n_scenarios)`` forked processes, or
    in this one when that is 1; the output is the same either way.
    """
    grid = make_grid(
        config.theta_step_deg,
        config.phi_step_deg,
    )
    # everything a bad config can trip on is built before the first write
    check_percentiles(config.percentiles)
    rect = rect_roi(grid, config.roi_theta_range, config.roi_phi_range)
    dir_cbk = directional_codebook(
        config.array.n_antennas,
        config.n_beams,
        config.array.element_spacing,
        config.steer_quant_bits,
    )
    phase_cbks = {b: enh_phase_codebook(config.array.n_antennas, b) for b in config.b_values}

    effective_seed = config.seed if seed is None else int(seed)
    names = list(config.scenarios)
    specs = []
    for idx, name in enumerate(names):
        spec = config.scenarios[name]
        if effective_seed is not None:
            spec = replace(spec, seed=effective_seed * 1009 + idx)
        specs.append(spec)
    dists = [gen_distortion(spec, grid, config.array.n_antennas) for spec in specs]
    free = synth_freespace_field(config.array, grid)
    g_opt_free = gain_map("mrc", free)
    roi_weights = grid.solid_angle_map()[rect.mask]

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [
        (name, spec, dist, config, free, rect, dir_cbk, phase_cbks, g_opt_free, roi_weights, out)
        for name, spec, dist in zip(names, specs, dists)
    ]

    workers = resolve_workers(len(tasks))
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: workers inherit the imported numpy/scipy and the
        # codebook caches instead of importing them again on every run.  The
        # executor forks all of its workers before it starts its own thread.
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            futures = [pool.submit(_run_scenario, *task) for task in tasks]
            try:
                write_field_file(free, out / "free.field")
                results = [f.result() for f in futures]
            finally:
                for f in futures:
                    f.cancel()  # no-op for a finished scenario
    else:
        write_field_file(free, out / "free.field")
        results = [_run_scenario(*task) for task in tasks]

    report = ExperimentReport(
        config=config,
        effective_seed=effective_seed,
        grid_info={
            "theta_step_deg": config.theta_step_deg,
            "phi_step_deg": config.phi_step_deg,
            "n_theta": grid.n_theta,
            "n_phi": grid.n_phi,
        },
        roi_info={
            "theta_range": list(config.roi_theta_range),
            "phi_range": list(config.roi_phi_range),
            "area_fraction": rect.area_fraction,
            "n_directions": rect.n_directions,
        },
        free_field={
            "optimal_gain_dbi": _both_summaries(
                g_opt_free[rect.mask], roi_weights, config.percentiles
            )[1]
        },
        scenarios=dict(zip(names, results)),
    )
    with (out / "report.json").open("w") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return report
