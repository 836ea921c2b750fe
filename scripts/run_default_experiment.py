#!/usr/bin/env python3
"""Run the default four-scenario blockage experiment and print a summary table.

Writes the full report tree (field files, gain maps, CDF tables, report.json)
under --out and prints the solid-angle-weighted median loss of each
beamforming scheme per scenario.
"""

import argparse
from pathlib import Path

from beamshadow import config_from_yaml, default_config, run_experiment


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("out/default-run"))
    ap.add_argument("--config", type=Path, default=None, help="optional YAML config")
    ap.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = ap.parse_args()

    config = default_config() if args.config is None else config_from_yaml(args.config)
    report = run_experiment(config, args.out, seed=args.seed)

    def median(scenario: dict, key: str) -> float:
        cdf = scenario["beamforming_cdfs_db"][key]["solid_angle_weighted"]
        return cdf["percentiles"]["50.0"]

    print(f"report written to {args.out / 'report.json'}")
    print(f"RoI covers {100.0 * report.roi_info['area_fraction']:.1f}% of the sphere")
    print()
    header = f"{'scenario':<22}{'opt loss':>10}{'dir loss':>10}"
    for b in config.b_values:
        header += f"{f'ph B={b}':>10}{f'ph+amp B={b}':>13}"
    print(header + "   (weighted median dB vs optimal)")
    for name, sc in report.scenarios.items():
        row = f"{name:<22}"
        row += f"{median(sc, 'loss_optimal_blocked_vs_optimal_free_db'):>10.2f}"
        row += f"{median(sc, 'loss_directional_vs_optimal_blocked_db'):>10.2f}"
        for b in config.b_values:
            row += f"{median(sc, f'gap_enh_phase_b{b}_to_optimal_db'):>10.2f}"
            row += f"{median(sc, f'gap_enh_phase_amp_b{b}_to_optimal_db'):>13.2f}"
        print(row)

    print()
    print("phase mixing (deg per 5 deg), averaged over antenna pairs:")
    for name, sc in report.scenarios.items():
        mixing = sc["phase_mixing_deg_per_5deg"]
        free = sum(mixing["free"].values()) / len(mixing["free"])
        blocked = sum(mixing["blocked"].values()) / len(mixing["blocked"])
        print(f"  {name:<22} free {free:6.2f}   blocked {blocked:6.2f}")


if __name__ == "__main__":
    main()
