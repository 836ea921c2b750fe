"""Command-line front end.

Subcommands: synth, distort, metrics, evaluate, theorem-check, run.
Exit status is 0 on success, 1 with a diagnostic on stderr for data or
bound-check failures, 2 for usage errors (argparse).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .codebook import (
    amp_gain_map,
    directional_codebook,
    enh_phase_codebook,
    gain_map,
    search_power_overflows,
)
from .distortion import DistortionSpec, apply_distortion, gen_distortion
from .experiment import ExperimentConfig, config_from_yaml, default_config, run_experiment
from .fields import ArrayConfig, synth_freespace_field
from .fileio import (
    read_field_file,
    read_field_files,
    write_cdf_csv,
    write_coverage_csv,
    write_distortion_file,
    write_field_file,
    write_gain_map_csv,
)
from .link import theorem_trials
from .metrics import (
    cdf_summary,
    check_percentiles,
    coverage_stats,
    loss_samples,
    pair_phase_diff,
    phase_mixing,
    roi_mask,
)
from .sphere import make_grid


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _refuse_unwritable(flag: str, path: str | None) -> None:
    """Refuse, before any work, an output path that is a directory or lies in a missing one."""
    if path and (Path(path).is_dir() or not Path(path).parent.is_dir()):
        raise ValueError(f"cannot write {path}: {flag} must name a file in an existing directory")


def _cmd_synth(args) -> int:
    _refuse_unwritable("--out", args.out)
    grid = make_grid(args.theta_step, args.phi_step)
    config = ArrayConfig(
        n_antennas=args.n_antennas,
        element_spacing=args.spacing,
        boresight_theta=args.boresight_theta,
        boresight_phi=args.boresight_phi,
        element_exponent=args.exponent,
        peak_element_gain_db=args.peak_gain,
    )
    field = synth_freespace_field(config, grid)
    write_field_file(field, args.out)
    print(f"wrote {field.n_antennas}-antenna field on {grid.n_theta}x{grid.n_phi} grid to {args.out}")
    return 0


def _scenario_spec(args) -> DistortionSpec:
    if args.scenario is not None:
        config = config_from_yaml(args.config) if args.config else default_config()
        if args.scenario not in config.scenarios:
            raise ValueError(
                f"scenario {args.scenario!r} not found; available: "
                f"{', '.join(config.scenarios)}"
            )
        spec = config.scenarios[args.scenario]
    else:
        spec = DistortionSpec(
            mode=args.mode,
            phase_std_deg=args.phase_std,
            amp_std_db=args.amp_std,
            corr_length_deg=args.corr_length,
        )
    if args.seed is not None:
        from dataclasses import replace

        spec = replace(spec, seed=args.seed)
    return spec


def _cmd_distort(args) -> int:
    # refused before the first write, so that a bad --dist-out leaves no --out
    _refuse_unwritable("--out", args.out)
    _refuse_unwritable("--dist-out", args.dist_out)
    field = read_field_file(args.field)
    spec = _scenario_spec(args)
    dist = gen_distortion(spec, field.grid, field.n_antennas)
    blocked = apply_distortion(field, dist)
    write_field_file(blocked, args.out)
    if args.dist_out:
        write_distortion_file(dist, args.dist_out)
    print(f"wrote blocked field to {args.out} (mode={spec.mode}, seed={spec.seed})")
    return 0


def _cmd_metrics(args) -> int:
    check_percentiles(args.percentiles)
    for flag, value in (("--g1", args.g1), ("--g2", args.g2)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value!r}")
    free, blocked = read_field_files([args.free, args.blocked])
    # every table and line is computed before the first write, so that a
    # failure leaves no --out
    coverage = coverage_stats(free, blocked, args.g1, args.g2)
    summaries, summary_lines = [], []
    for i in range(free.n_antennas):
        roi = roi_mask(free, blocked, i, args.g1, args.g2)
        s = cdf_summary(loss_samples(free, blocked, i, roi), args.percentiles)
        summaries.append(s)
        median = dict(s.percentiles).get(50.0)
        loss = f"mean_loss={s.mean:.2f}" if median is None else f"median_loss={median:.2f}"
        summary_lines.append(f"antenna {i}: roi={100 * roi.area_fraction:.1f}% {loss} dB")
    for i in range(free.n_antennas - 1):
        mix_f = phase_mixing(pair_phase_diff(free, i, i + 1))
        mix_b = phase_mixing(pair_phase_diff(blocked, i, i + 1))
        summary_lines.append(
            f"pair {i}-{i + 1}: phase mixing free={mix_f:.1f} blocked={mix_b:.1f} deg/5deg"
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_coverage_csv(coverage, out / "coverage.csv")
    for i, s in enumerate(summaries):
        write_cdf_csv(s, out / f"cdf_loss_antenna{i}.csv")
    print("\n".join(summary_lines))
    print(f"wrote metrics tables to {out}")
    return 0


def _cmd_evaluate(args) -> int:
    _refuse_unwritable("--out", args.out)
    field = read_field_file(args.field)
    n = field.n_antennas
    if search_power_overflows(n, float(abs(field.samples).max())):
        raise ValueError(f"{args.field}: its field power overflows the beamformed search")
    if args.scheme == "mrc":
        gmap = gain_map("mrc", field)
    elif args.scheme == "directional":
        cbk = directional_codebook(n, args.beams, ArrayConfig.element_spacing, args.quant_bits)
        gmap = gain_map(cbk, field)
    elif args.scheme == "enh-phase":
        gmap = gain_map(enh_phase_codebook(n, args.b_bits), field)
    elif args.scheme == "enh-phase-amp":
        gmap = amp_gain_map(field, args.b_bits)
    else:  # argparse choices guard this
        raise ValueError(f"unknown scheme {args.scheme!r}")
    write_gain_map_csv(field.grid, gmap, args.out)
    print(f"wrote {args.scheme} gain map to {args.out}")
    return 0


def _cmd_theorem_check(args) -> int:
    import statistics

    _refuse_unwritable("--out", args.out)
    result = theorem_trials(
        args.trials, args.b_values, args.seed, args.n_antennas, args.out or None
    )
    print(
        f"theorem-check: trials={result.n_trials} B={list(result.b_values)} "
        f"antennas={result.n_antennas} seed={result.seed}"
    )
    print(f"violations={result.n_violations} min_margin={result.min_margin:.3e}")
    for b, k, m in zip(result.b_values, result.violations_by_b, result.margin.T):
        print(
            f"B={b}: violations={k} min_margin={m.min():.3e} "
            f"median_margin={statistics.median(m.tolist()):.3e} max_margin={m.max():.3e}"
        )
    if result.n_violations:
        print("bound violated", file=sys.stderr)
        return 1
    return 0


def _cmd_run(args) -> int:
    config = config_from_yaml(args.config) if args.config else default_config()
    report = run_experiment(config, args.out, seed=args.seed)
    print(f"ran {len(report.scenarios)} scenario(s) -> {Path(args.out) / 'report.json'}")
    for name, data in report.scenarios.items():
        med = data["beamforming_cdfs_db"]["loss_optimal_blocked_vs_optimal_free_db"]
        med = med["unweighted"]["percentiles"].get("50.0")
        if med is not None:
            print(f"  {name}: median optimal-gain loss {med:.2f} dB")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamshadow",
        description="Synthetic hand-blockage beamforming experiments on spherical field maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a free-space field map")
    p.add_argument("--out", required=True, help="output field file")
    p.add_argument("--theta-step", type=float, default=ExperimentConfig.theta_step_deg)
    p.add_argument("--phi-step", type=float, default=ExperimentConfig.phi_step_deg)
    p.add_argument("--n-antennas", type=int, default=ArrayConfig.n_antennas)
    p.add_argument(
        "--spacing",
        type=float,
        default=ArrayConfig.element_spacing,
        help="element spacing, wavelengths",
    )
    p.add_argument("--boresight-theta", type=float, default=ArrayConfig.boresight_theta)
    p.add_argument("--boresight-phi", type=float, default=ArrayConfig.boresight_phi)
    p.add_argument(
        "--exponent",
        type=float,
        default=ArrayConfig.element_exponent,
        help="cos^q envelope exponent",
    )
    p.add_argument(
        "--peak-gain",
        type=float,
        default=ArrayConfig.peak_element_gain_db,
        help="peak elemental gain, dB",
    )
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("distort", help="apply a blockage scenario to a field file")
    p.add_argument("--field", required=True, help="input field file")
    p.add_argument("--out", required=True, help="output (blocked) field file")
    p.add_argument("--dist-out", help="also write the distortion screens here")
    p.add_argument("--config", help="experiment config YAML with scenarios")
    p.add_argument("--scenario", help="scenario name from the config (or a default one)")
    p.add_argument("--mode", default="phase-screen", help="ad-hoc mode when no scenario given")
    p.add_argument("--phase-std", type=float, default=30.0)
    p.add_argument("--amp-std", type=float, default=DistortionSpec.amp_std_db)
    p.add_argument("--corr-length", type=float, default=DistortionSpec.corr_length_deg)
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.set_defaults(func=_cmd_distort)

    p = sub.add_parser("metrics", help="RoI/CDF/coverage tables from two field files")
    p.add_argument("--free", required=True)
    p.add_argument("--blocked", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--g1", type=float, default=ExperimentConfig.g1_db, help="free-gain RoI threshold, dB"
    )
    p.add_argument(
        "--g2", type=float, default=ExperimentConfig.g2_db, help="blocked-gain RoI threshold, dB"
    )
    p.add_argument("--percentiles", type=_float_list, default=ExperimentConfig.percentiles)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("evaluate", help="realized-gain map for one scheme")
    p.add_argument("--field", required=True)
    p.add_argument("--out", required=True, help="output gain-map CSV")
    p.add_argument(
        "--scheme",
        required=True,
        choices=("mrc", "directional", "enh-phase", "enh-phase-amp"),
    )
    p.add_argument("--B", dest="b_bits", type=int, default=2, help="phase bits for enhanced schemes")
    p.add_argument(
        "--beams",
        type=int,
        default=ExperimentConfig.n_beams,
        help="directional beam count (default: N)",
    )
    p.add_argument("--quant-bits", type=int, default=ExperimentConfig.steer_quant_bits)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("theorem-check", help="Monte-Carlo audit of the improvement bound")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--B", dest="b_values", type=_int_list, default=(1, 2, 3))
    p.add_argument("--n-antennas", type=int, default=4)
    p.add_argument("--out", help="optional CSV of per-trial rows")
    p.set_defaults(func=_cmd_theorem_check)

    p = sub.add_parser("run", help="full experiment: all scenarios of a config")
    p.add_argument("--config", help="experiment config YAML (default: built-in)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override config/scenario seeds")
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
