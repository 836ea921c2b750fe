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
distortion is drawn before the first write; the scenarios are then split into
contiguous ranges by ``forked.split``, which decides the worker count.  A
child forked per range after the first runs its scenarios, each writing only
its own directory, while the caller writes ``free.field`` and runs the first
range; the results are joined in scenario order before ``report.json``.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import re
import shutil
import types
import typing
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .codebook import (
    Codebook,
    amp_gain_map,
    directional_codebook,
    enh_phase_codebook,
    gain_map,
    search_power_overflows,
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
# resolve_workers is re-exported because bench/worker.py imports it from here
from .forked import resolve_workers, split
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
_SCALARS = {  # annotation -> (accepted type, noun for the error)
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a number"),
    str: (str, "a string"),
}


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
        hints = typing.get_type_hints(ExperimentConfig)
        for f in fields(self):
            setattr(self, f.name, _typed(hints[f.name], getattr(self, f.name), f.name))
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
        return _plain(asdict(self))


def _plain(value):
    """``asdict`` output with every tuple turned into a list (YAML/JSON ready)."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _typed(hint, value, key: str):
    """``value`` checked against the annotation ``hint``; the config
    dataclasses' fields are the whole schema.  A dataclass is built from a
    mapping or rebuilt from an instance, so both routes run the same checks.
    Null passes only under ``X | None``; ``int`` refuses floats and booleans,
    ``float`` booleans, strings, NaN and infinities.  Every error is a
    ``ValueError`` naming the key path, such as
    ``scenarios.x.fingers[0].antennas``."""
    where = f"config key {key!r}" if key else "config"
    args = typing.get_args(hint)
    if value is None:
        if type(None) in args:
            return None
        raise ValueError(f"{where} must not be null")
    if typing.get_origin(hint) is types.UnionType:
        return _typed(args[0], value, key)  # X | None
    if is_dataclass(hint):
        if isinstance(value, hint):
            value = {f.name: getattr(value, f.name) for f in fields(hint)}
        if not isinstance(value, dict):
            raise ValueError(f"{where} must be a mapping, got {value!r}")
        unknown = set(value) - {f.name for f in fields(hint)}
        if unknown:
            raise ValueError(f"unknown keys in {key or 'config'}: {sorted(map(str, unknown))}")
        required = {f.name for f in fields(hint) if f.default is f.default_factory is MISSING}
        missing = sorted(required - set(value))
        if missing:
            raise ValueError(f"{where} is missing required keys {missing}")
        hints = typing.get_type_hints(hint)
        kwargs = {
            name: _typed(hints[name], v, f"{key}.{name}" if key else name)
            for name, v in value.items()
        }
        try:
            return hint(**kwargs)
        except ValueError as exc:  # a range check in the dataclass's __post_init__
            if not key:
                raise  # the top-level checks name their own keys
            raise ValueError(f"{where}: {exc}") from None
    if typing.get_origin(hint) is dict:
        if not isinstance(value, dict):
            raise ValueError(f"{where} must be a mapping, got {value!r}")
        for name in value:
            if not isinstance(name, str):
                raise ValueError(f"{where} needs string keys, got {name!r}")
        return {name: _typed(args[1], v, f"{key}.{name}") for name, v in value.items()}
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{where} must be a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ValueError(f"{where} must have {len(args)} items, got {len(value)}")
        return tuple(_typed(a, v, f"{key}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    kind, noun = _SCALARS[hint]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{where} must be {noun}, got {value!r}")
    if hint is float and not -math.inf < value < math.inf:  # NaN compares false
        raise ValueError(f"{where} must be finite, got {value!r}")
    try:
        return hint(value)
    except OverflowError:
        raise ValueError(f"{where} is out of range, got {value!r}") from None


def config_from_dict(data: dict) -> ExperimentConfig:
    return _typed(ExperimentConfig, data, "")


def config_from_yaml(path) -> ExperimentConfig:
    import yaml

    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark else f"{path}"
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise ValueError(f"{where}: not a valid YAML file: {problem}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a mapping")
    return config_from_dict(data)


def config_to_yaml(config: ExperimentConfig, path) -> None:
    import yaml

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
        "distortion": _plain(asdict(spec)),
        "beamforming_cdfs_db": cdfs,
        "elemental_loss_cdfs_db": elemental,
        "coverage": [row.to_dict() for row in coverage],
        "phase_mixing_deg_per_5deg": {"free": mixing_free, "blocked": mixing_blocked},
        "consistency_max_abs_residual_db": consistency,
    }


def _run_scenarios(tasks, start: int, stop: int) -> tuple:
    """``_run_scenario`` of tasks start..stop-1, in order (a tuple, which a
    forked child sends back whole)."""
    return tuple(_run_scenario(*task) for task in tasks[start:stop])


@contextmanager
def _built_in_place_of(out: Path):
    """A new directory beside out, renamed onto it when the block succeeds
    and removed when it fails.  rename(2) replaces an empty directory."""
    out = Path(os.path.abspath(out))
    out.parent.mkdir(parents=True, exist_ok=True)
    build = out.parent / f".{out.name}.{os.getpid()}.partial"
    build.mkdir()
    try:
        yield build
        os.replace(build, out)
    except BaseException:
        shutil.rmtree(build, ignore_errors=True)
        raise


def run_experiment(config: ExperimentConfig, out_dir, seed: int | None) -> ExperimentReport:
    """Run every scenario and write the full report tree under out_dir.

    ``seed`` overrides the config seed unless None; when set, scenario seeds
    derive from it (seed * 1009 + scenario index) instead of the per-spec seeds.
    The scenarios are split by ``forked.split``; the output is the same for
    any split.  out_dir must be absent or an empty directory; the tree is
    built beside it and renamed onto it, so a run that fails leaves no tree.
    """
    out = Path(out_dir)
    if out.exists() and not (out.is_dir() and not any(out.iterdir())):
        raise ValueError(f"output path {out} exists and is not an empty directory")
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
    dists = []
    for name, spec in zip(names, specs):
        try:
            dists.append(gen_distortion(spec, grid, config.array.n_antennas))
        except ValueError as exc:
            raise ValueError(f"scenarios.{name}: {exc}") from None
    free = synth_freespace_field(config.array, grid)
    # ArrayConfig bounds the free field's search power; a scenario's amplitude
    # ripple lifts it by max(amp)**4
    peak = float(np.abs(free.samples).max())
    for name, dist in zip(names, dists):
        if search_power_overflows(config.array.n_antennas, peak * float(dist.amp.max())):
            raise ValueError(
                f"scenarios.{name}: its amplitude ripple overflows the beamformed power "
                f"at array.peak_element_gain_db {config.array.peak_element_gain_db!r}"
            )
    g_opt_free = gain_map("mrc", free)
    roi_weights = grid.solid_angle_map()[rect.mask]

    with _built_in_place_of(out) as build:
        tasks = [
            (name, spec, dist, config, free, rect, dir_cbk, phase_cbks, g_opt_free, roi_weights,
             build)
            for name, spec, dist in zip(names, specs, dists)
        ]

        with split(
            len(tasks),
            lambda lo, hi: f"scenarios {', '.join(names[lo:hi])}",
            _run_scenarios,
            tasks,
        ) as (own, replies):
            write_field_file(free, build / "free.field")
            results = list(_run_scenarios(tasks, *own))
            for reply in replies:
                results.extend(reply)

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
        with (build / "report.json").open("w") as fh:
            json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
    return report
