"""Command-line front end.

Subcommands: synth, distort, metrics, evaluate, theorem-check, run.  Every
setting of the experiment comes from one config: synth, distort, metrics,
evaluate and run read it with ``--config PATH`` (the built-in default when
absent), and their flags only name files, a scenario, a scheme of the
config's table, or a seed that overrides the config's as in ``run``.  The
field file decides the grid and the antenna count of distort, metrics and
evaluate.  theorem-check has flags of its own, none a config key.  Exit
status is 0 on success, 1 with a diagnostic on stderr for config, data or
bound-check failures, 2 for usage errors (argparse).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from itertools import combinations
from pathlib import Path

from .codebook import scheme_maps
from .distortion import apply_distortion, gen_distortion
from .experiment import ExperimentConfig, config_from_yaml, run_experiment, scenario_specs
from .fields import ArrayConfig, prefixed, search_power_overflows, synth_freespace_field
from .fileio import (
    published,
    read_field_file,
    read_field_files,
    write_cdf_csv,
    write_coverage_csv,
    write_distortion_file,
    write_field_file,
    write_files,
    write_gain_map_csv,
)
from .link import theorem_trials
from .metrics import coverage_stats, elemental_summaries, phase_mixing
from .sphere import make_grid


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def _config(args) -> ExperimentConfig:
    """The run's config: the ``--config`` YAML, or the built-in default."""
    return config_from_yaml(args.config) if args.config else ExperimentConfig()


def _distinct_files(*flags: tuple[str, str | None]) -> None:
    """Refuse two ``(flag, path)`` pairs, unset paths skipped, that name one
    file: an output must not replace an input or another output."""
    named = [(flag, path) for flag, path in flags if path is not None]
    for (flag1, path1), (flag2, path2) in combinations(named, 2):
        if Path(path1).resolve() == Path(path2).resolve():
            raise ValueError(f"{flag1} {path1} and {flag2} {path2} are the same file")


def _cmd_synth(args) -> int:
    config = _config(args)
    with published(args.out, False) as out:
        grid = make_grid(config.theta_step_deg, config.phi_step_deg)
        field = synth_freespace_field(config.array, grid)
        write_field_file(field, out)
    print(f"wrote {field.n_antennas}-antenna field on {grid.n_theta}x{grid.n_phi} grid to {args.out}")
    return 0


def _cmd_distort(args) -> int:
    config = _config(args)
    specs = scenario_specs(config, args.seed)
    if args.scenario not in specs:
        raise ValueError(f"scenario {args.scenario!r} not found; available: {', '.join(specs)}")
    spec = specs[args.scenario]
    _distinct_files(("--field", args.field), ("--out", args.out), ("--dist-out", args.dist_out))
    # both are checked before the read and published only when both are written
    with published(args.out, False) as out, (
        nullcontext() if args.dist_out is None else published(args.dist_out, False)
    ) as dist_out:
        field = read_field_file(args.field)
        with prefixed(f"scenarios.{args.scenario}"):
            dist = gen_distortion(spec, field.grid, field.n_antennas)
        blocked = apply_distortion(field, dist)
        write_field_file(blocked, out)
        if dist_out is not None:
            write_distortion_file(dist, dist_out)
    print(f"wrote blocked field to {args.out} (mode={spec.mode}, seed={spec.seed})")
    return 0


def _cmd_metrics(args) -> int:
    config = _config(args)
    g1, g2 = config.g1_db, config.g2_db
    with published(args.out, True) as out:
        free, blocked = read_field_files([args.free, args.blocked])
        if (free.n_antennas, free.grid) != (blocked.n_antennas, blocked.grid):
            raise ValueError("the --free and --blocked fields differ: " + " vs ".join(
                f"{path} (N={f.n_antennas}, {f.grid.n_theta} x {f.grid.n_phi} grid)"
                for path, f in ((args.free, free), (args.blocked, blocked))
            ))
        # every table and line is computed before the tree, or a missing parent, is created
        coverage = coverage_stats(free, blocked, g1, g2)
        summaries = elemental_summaries(free, blocked, g1, g2, config.percentiles)
        summary_lines, files = [], [("coverage.csv", write_coverage_csv, coverage)]
        for i, (roi, s) in enumerate(summaries):
            median = dict(s.percentiles).get(50.0)
            loss = f"mean_loss={s.mean:.2f}" if median is None else f"median_loss={median:.2f}"
            summary_lines.append(f"antenna {i}: roi={100 * roi.area_fraction:.1f}% {loss} dB")
            files.append((f"cdf_loss_antenna{i}.csv", write_cdf_csv, s))
        mixing, pairs = [], [(i, i + 1) for i in range(free.n_antennas - 1)]
        for path, field in ((args.free, free), (args.blocked, blocked)):
            with prefixed(str(path)):
                mixing.append(phase_mixing(field, pairs))
        for (pair, mix_f), mix_b in zip(mixing[0].items(), mixing[1].values()):
            summary_lines.append(
                f"pair {pair}: phase mixing free={mix_f:.1f} blocked={mix_b:.1f} deg/5deg"
            )
        write_files(out, files)
    print("\n".join(summary_lines))
    print(f"wrote metrics tables to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    config = _config(args)
    schemes = scheme_maps(
        config.b_values, config.n_beams, config.array.element_spacing, config.steer_quant_bits
    )
    if args.scheme not in schemes:
        raise ValueError(f"--scheme {args.scheme}: no such scheme; available: {', '.join(schemes)}")
    _distinct_files(("--field", args.field), ("--out", args.out))
    with published(args.out, False) as out:
        field = read_field_file(args.field)
        if search_power_overflows(field.n_antennas, float(abs(field.samples).max())):
            raise ValueError(f"{args.field}: its field power overflows the beamformed search")
        with prefixed(f"{args.field}: --scheme {args.scheme} with {field.n_antennas} antennas"):
            gains = schemes[args.scheme](field)
        write_gain_map_csv(field.grid, gains, out)
    print(f"wrote {args.scheme} gain map to {args.out}")
    return 0


def _cmd_theorem_check(args) -> int:
    import statistics

    result = theorem_trials(args.trials, args.b_values, args.seed, args.n_antennas, args.out)
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
    config = _config(args)
    report = run_experiment(config, args.out, seed=args.seed)
    scenarios = report["scenarios"]
    print(f"ran {len(scenarios)} scenario(s) -> {Path(args.out) / 'report.json'}")
    print(f"RoI covers {100.0 * report['roi']['area_fraction']:.1f}% of the sphere\n")
    # as metrics' median_loss: the mean when 50 is not among the percentiles
    stat = "median" if 50.0 in config.percentiles else "mean"
    # the enhanced schemes, in report order, from their gap-to-optimal keys
    first = next(iter(scenarios.values()))["beamforming_cdfs_db"]
    enhanced = [
        k.removeprefix("gap_").removesuffix("_to_optimal_db") for k in first if k.startswith("gap_")
    ]
    labels = ["opt loss", "dir loss"] + [
        name.replace("enh_phase", "ph").replace("_amp", "+amp").replace("_b", " B=")
        for name in enhanced
    ]
    keys = ["loss_optimal_blocked_vs_optimal_free_db", "loss_directional_vs_optimal_blocked_db"]
    keys += [f"gap_{name}_to_optimal_db" for name in enhanced]
    header = f"{'scenario':<22}" + "".join(f"{label:>12}" for label in labels)
    print(f"{header}   (weighted {stat} dB vs optimal)")
    for name, data in scenarios.items():
        cdfs = [data["beamforming_cdfs_db"][key]["solid_angle_weighted"] for key in keys]
        values = [c["percentiles"]["50.0"] if stat == "median" else c["mean"] for c in cdfs]
        print(f"{name:<22}" + "".join(f"{value:>12.2f}" for value in values))
    if config.array.n_antennas > 1:  # one antenna has no pairs to mix
        print("\nphase mixing (deg per 5 deg), averaged over antenna pairs:")
        for name, data in scenarios.items():
            mixing = data["phase_mixing_deg_per_5deg"]
            free, blocked = (sum(mixing[k].values()) / len(mixing[k]) for k in ("free", "blocked"))
            print(f"  {name:<22} free {free:6.2f}   blocked {blocked:6.2f}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamshadow",
        description="Synthetic hand-blockage beamforming experiments on spherical field maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    config_help = "experiment config YAML (default: built-in)"
    p = sub.add_parser("synth", help="synthesize the config's free-space field map")
    p.add_argument("--config", help=config_help)
    p.add_argument("--out", required=True, help="output field file")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("distort", help="apply a scenario of the config to a field file")
    p.add_argument("--config", help=config_help)
    p.add_argument("--scenario", required=True, help="scenario name from the config")
    p.add_argument("--field", required=True, help="input field file")
    p.add_argument("--out", required=True, help="output (blocked) field file")
    p.add_argument("--dist-out", help="also write the distortion screens here")
    p.add_argument("--seed", type=_seed, help="override the config seed, as run --seed does")
    p.set_defaults(func=_cmd_distort)

    p = sub.add_parser("metrics", help="RoI/CDF/coverage tables from two field files")
    p.add_argument("--config", help=config_help)
    p.add_argument("--free", required=True)
    p.add_argument("--blocked", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("evaluate", help="realized-gain map for one scheme")
    p.add_argument("--config", help=config_help)
    p.add_argument("--field", required=True)
    p.add_argument("--out", required=True, help="output gain-map CSV")
    p.add_argument("--scheme", required=True, help="NAME of run's gain_map_<NAME>.csv")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("theorem-check", help="Monte-Carlo audit of the improvement bound")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--B", dest="b_values", type=_int_list, default=(1, 2, 3))
    p.add_argument("--n-antennas", type=int, default=ArrayConfig.n_antennas)
    p.add_argument("--out", help="optional CSV of per-trial rows")
    p.set_defaults(func=_cmd_theorem_check)

    p = sub.add_parser("run", help="full experiment: all scenarios of a config")
    p.add_argument("--config", help=config_help)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=_seed, help="override config/scenario seeds")
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
