"""End-to-end experiment pipeline: synthesize a free-space field, distort it
per scenario, evaluate every beamforming scheme, and summarize losses.
``ExperimentConfig`` is checked like every config dataclass (see ``fields``);
``config_from_dict`` reads a mapping through ``fields.typed``.

The output directory holds ``free.field``, ``report.json`` (all summaries and
the config echo, sorted keys) and one directory per scenario, whose files are
named in one place: the files table that ``_run_scenario`` returns, which
``fileio.write_files`` writes in order.

Reruns with the same config and seed are byte-identical: derived per-trial
seeds, ordered writes, repr float formatting, no timestamps.  Every
distortion is drawn before the first write; the scenarios are then split into
contiguous ranges by ``forked.split``, which decides the worker count.  Each
range computes and writes its scenarios' tables and yields only their report
entries, joined in scenario order before ``report.json``; this process runs
the first, then writes ``free.field`` while the children still run.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field, replace
from itertools import combinations

import numpy as np

from .codebook import MAX_ENH_ENTRIES, MAX_PHASE_BITS, phase_lattice, scheme_maps
from .distortion import (
    DistortionField,
    DistortionSpec,
    FingerSpec,
    apply_distortion,
    gen_distortion,
)
from .fields import AntennaFieldMap, ArrayConfig, prefixed, search_power_overflows
from .fields import synth_freespace_field, typed, typed_fields
from .fileio import (
    published,
    write_cdf_csv,
    write_coverage_csv,
    write_distortion_file,
    write_field_file,
    write_files,
    write_gain_map_csv,
)
# resolve_workers is re-exported because bench/worker.py imports it from here
from .forked import resolve_workers, split
from .metrics import (
    cdf_summary,
    check_percentiles,
    coverage_stats,
    elemental_summaries,
    phase_mixing,
    rect_roi,
)
from .sphere import make_grid

__all__ = [
    "ExperimentConfig",
    "default_scenarios",
    "default_config",
    "config_from_yaml",
    "config_to_yaml",
    "scenario_specs",
    "run_experiment",
    "resolve_workers",
]

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def default_scenarios() -> dict[str, DistortionSpec]:
    """Four grip scenarios: tight/loose grip, one/two occluding fingers.

    Tight grips press harder (deeper dents, stronger phase screens) than
    loose grips; two-finger variants add a second dent offset from the
    first.  Centers sit near the default boresight (theta 90, phi 270).
    """
    # name, fingers (center theta, center phi, radius, depth), phase std, amp std, corr length
    grips = [
        ("tight-grip-one-finger", [(90.0, 255.0, 40.0, 16.0)], 45.0, 1.5, 15.0),
        ("tight-grip-two-finger", [(90.0, 245.0, 34.0, 18.0), (70.0, 290.0, 28.0, 13.0)],
         55.0, 2.0, 12.0),
        ("loose-grip-one-finger", [(90.0, 255.0, 32.0, 9.0)], 30.0, 1.0, 18.0),
        ("loose-grip-two-finger", [(90.0, 245.0, 28.0, 11.0), (70.0, 290.0, 24.0, 8.0)],
         40.0, 1.5, 15.0),
    ]
    return {  # seeds 101..104
        name: DistortionSpec("combined", [FingerSpec(*f) for f in fingers], phase, amp, corr, seed)
        for seed, (name, fingers, phase, amp, corr) in enumerate(grips, start=101)
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
        typed_fields(self)
        bits, top = self.b_values, MAX_PHASE_BITS
        if not bits or len(set(bits)) < len(bits) or not all(1 <= b <= top for b in bits):
            raise ValueError(f"b_values must be distinct bit widths in 1..{top}, got {list(bits)}")
        if not 1 <= self.steer_quant_bits <= top:
            raise ValueError(f"steer_quant_bits must be in 1..{top}, got {self.steer_quant_bits}")
        if self.n_beams is not None and self.n_beams < 1:
            raise ValueError(f"n_beams must be >= 1, got {self.n_beams}")
        if self.n_beams is not None and self.n_beams > MAX_ENH_ENTRIES:
            raise ValueError(f"n_beams must be <= {MAX_ENH_ENTRIES}, got {self.n_beams}")
        for key in ("roi_theta_range", "roi_phi_range"):
            lo, hi = getattr(self, key)
            if not lo < hi:
                raise ValueError(f"{key} must satisfy lo < hi, got {[lo, hi]}")
        check_percentiles(self.percentiles)
        steps = f"theta_step_deg {self.theta_step_deg!r} and phi_step_deg {self.phi_step_deg!r}"
        with prefixed(steps):
            grid = make_grid(self.theta_step_deg, self.phi_step_deg)
        theta, phi = list(self.roi_theta_range), list(self.roi_phi_range)
        with prefixed(f"roi_theta_range {theta} and roi_phi_range {phi} on {steps}"):
            rect_roi(grid, self.roi_theta_range, self.roi_phi_range)
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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


def config_from_dict(data: dict) -> ExperimentConfig:
    return typed(ExperimentConfig, data)


def config_from_yaml(path) -> ExperimentConfig:
    import yaml

    class Loader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            seen = set()  # scalar keys; the safe loader refuses an unhashable one
            for k in [k for k, _ in node.value if isinstance(k, yaml.ScalarNode)]:
                if (k.tag, k.value) in seen:
                    raise yaml.MarkedYAMLError(
                        problem=f"repeated key {k.value!r}", problem_mark=k.start_mark
                    )
                seen.add((k.tag, k.value))
            return super().construct_mapping(node, deep)

    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader)
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
    schemes: dict,
    g_opt_free: np.ndarray,
    roi_weights: np.ndarray,
    mixing_free: dict,
) -> tuple[dict, list]:
    """The scenario's report entry, and its directory's ``(name, writer, value)`` rows."""
    grid = free.grid
    blocked = apply_distortion(free, dist)
    elemental = {
        str(i): {**summary.to_dict(), "roi_area_fraction": roi.area_fraction}
        for i, (roi, summary) in enumerate(
            elemental_summaries(free, blocked, config.g1_db, config.g2_db, config.percentiles)
        )
    }

    gains = {scheme: map_of(blocked) for scheme, map_of in schemes.items()}
    m = rect.mask
    for scheme, gmap in gains.items():
        # an exact null, or a power that underflows, has no loss to summarize
        null = m & np.isneginf(gmap)
        if null.any():
            it, ip = np.argwhere(null)[0]
            raise ValueError(
                f"no power survives the blockage inside the RoI at theta={grid.thetas[it]}, "
                f"phi={grid.phis[ip]}: gain_map_{scheme} is -inf there"
            )
    g_opt_blk, g_dir = gains["mrc"], gains["directional"]
    dir_loss = (g_opt_blk - g_dir)[m]
    samples: dict[str, np.ndarray] = {
        "optimal_gain_blocked_dbi": g_opt_blk[m],
        "gain_directional_dbi": g_dir[m],
        "loss_optimal_blocked_vs_optimal_free_db": (g_opt_free - g_opt_blk)[m],
        "loss_directional_vs_optimal_blocked_db": dir_loss,
        "loss_directional_vs_optimal_free_db": (g_opt_free - g_dir)[m],
    }
    residuals = []
    for scheme, gmap in list(gains.items())[2:]:  # the enhanced schemes
        improvement = (gmap - g_dir)[m]
        gap = (g_opt_blk - gmap)[m]
        samples[f"gain_{scheme}_dbi"] = gmap[m]
        samples[f"improvement_{scheme}_over_directional_db"] = improvement
        samples[f"gap_{scheme}_to_optimal_db"] = gap
        # improvement-over-directional + gap-to-optimal must telescope to
        # the directional loss at every direction, up to float reassociation
        residuals.append(float(np.abs((improvement + gap) - dir_loss).max()))
    consistency = float(np.max(residuals))  # a NaN residual stays NaN
    if not consistency <= 1e-9:
        raise RuntimeError(
            f"scenario {name}: gain decomposition drifted by {consistency} dB"
        )

    cdfs, tables = {}, {}
    for key, arr in samples.items():
        tables[key], cdfs[key] = _both_summaries(arr, roi_weights, config.percentiles)
    coverage = coverage_stats(free, blocked, config.g1_db, config.g2_db)
    mixing_blocked = phase_mixing(blocked, combinations(range(blocked.n_antennas), 2))

    files = [
        ("blocked.field", write_field_file, blocked),
        ("distortion.dist", write_distortion_file, dist),
        *((f"gain_map_{scheme}.csv", lambda g, path: write_gain_map_csv(grid, g, path), gmap)
          for scheme, gmap in gains.items()),
        *((f"cdf_{key}.csv", write_cdf_csv, table) for key, table in tables.items()),
        ("coverage.csv", write_coverage_csv, coverage),
    ]
    return {
        "seed": spec.seed,
        "distortion": _plain(asdict(spec)),
        "beamforming_cdfs_db": cdfs,
        "elemental_loss_cdfs_db": elemental,
        "coverage": [asdict(row) for row in coverage],
        "phase_mixing_deg_per_5deg": {"free": mixing_free, "blocked": mixing_blocked},
        "consistency_max_abs_residual_db": consistency,
    }, files


def _run_scenarios(tasks, out, start: int, stop: int) -> tuple:
    """Run tasks start..stop-1 in order, each writing its files table under
    ``out/<name>``; returns their report entries (a tuple, which a forked
    child sends back whole).  A ``ValueError`` names its scenario."""
    results = []
    for task in tasks[start:stop]:
        with prefixed(f"scenarios.{task[0]}"):
            entry, files = _run_scenario(*task)
            write_files(out / task[0], files)
        results.append(entry)
    return tuple(results)


def scenario_specs(config: ExperimentConfig, seed: int | None) -> dict[str, DistortionSpec]:
    """Each scenario's spec as ``run`` draws it: when ``seed``, or else the
    config seed, is set, scenario i draws from ``seed * 1009 + i``."""
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    seed = config.seed if seed is None else int(seed)
    return {
        name: spec if seed is None else replace(spec, seed=seed * 1009 + i)
        for i, (name, spec) in enumerate(config.scenarios.items())
    }


def run_experiment(config: ExperimentConfig, out_dir, seed: int | None) -> dict:
    """Run every scenario, write the full report tree under out_dir, and
    return the dict that its ``report.json`` holds.

    ``seed`` overrides the config seed unless None, as ``scenario_specs`` says.
    The scenarios are split by ``forked.split``; the output is the same for
    any split.  out_dir must be absent or an empty directory; the tree is
    built in the sibling ``fileio.published`` yields, once nothing a bad
    config can trip on is left, so a run that fails leaves no tree.
    """
    with published(out_dir, True) as build:
        grid = make_grid(config.theta_step_deg, config.phi_step_deg)
        rect = rect_roi(grid, config.roi_theta_range, config.roi_phi_range)
        # ExperimentConfig checked those two; a bad config can still trip on the largest lattice
        array = config.array
        with prefixed(f"b_values {list(config.b_values)} and array.n_antennas {array.n_antennas}"):
            phase_lattice(array.n_antennas, max(config.b_values))
        schemes = scheme_maps(
            config.b_values, config.n_beams, array.element_spacing, config.steer_quant_bits
        )

        specs = scenario_specs(config, seed)
        dists = []
        for name, spec in specs.items():
            with prefixed(f"scenarios.{name}"):
                dists.append(gen_distortion(spec, grid, array.n_antennas))
        free = synth_freespace_field(array, grid)
        # ArrayConfig bounds the free field's search power; a scenario's amplitude
        # ripple lifts it by max(amp)**4
        peak = float(np.abs(free.samples).max())
        for name, dist in zip(specs, dists):
            if search_power_overflows(array.n_antennas, peak * float(dist.amp.max())):
                raise ValueError(
                    f"scenarios.{name}: its amplitude ripple overflows the beamformed power "
                    f"at array.peak_element_gain_db {array.peak_element_gain_db!r}"
                )
        g_opt_free = schemes["mrc"](free)
        roi_weights = grid.solid_angle_map()[rect.mask]
        # every scenario's free mixing; one theta row fails before any write
        with prefixed(f"config key 'theta_step_deg' {config.theta_step_deg!r}"):
            mixing_free = phase_mixing(free, combinations(range(array.n_antennas), 2))

        tasks = [
            (name, spec, dist, config, free, rect, schemes, g_opt_free, roi_weights, mixing_free)
            for (name, spec), dist in zip(specs.items(), dists)
        ]

        with split(
            len(tasks),
            lambda lo, hi: f"scenarios {', '.join(list(specs)[lo:hi])}",
            _run_scenarios,
            tasks,
            build,
        ) as ranges:
            results = list(next(ranges))
            # written while the children still run
            write_files(build, [("free.field", write_field_file, free)])
            for entries in ranges:
                results.extend(entries)

        report = {
            "format": "beamshadow-report v1",
            "config": config.to_dict(),
            "effective_seed": config.seed if seed is None else int(seed),
            "grid": {
                "theta_step_deg": config.theta_step_deg,
                "phi_step_deg": config.phi_step_deg,
                "n_theta": grid.n_theta,
                "n_phi": grid.n_phi,
            },
            "roi": {
                "theta_range": list(config.roi_theta_range),
                "phi_range": list(config.roi_phi_range),
                "area_fraction": rect.area_fraction,
                "n_directions": rect.n_directions,
            },
            "free_field": {
                "optimal_gain_dbi": _both_summaries(
                    g_opt_free[rect.mask], roi_weights, config.percentiles
                )[1]
            },
            "scenarios": dict(zip(specs, results)),
        }
        with (build / "report.json").open("w") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return report
