#!/usr/bin/env python3
"""Randomized audit of the SNR-improvement lower bound.

Draws random per-antenna field vectors (uniform magnitudes and phases),
checks delta_snr_achieved >= theorem1_lb for each quantizer resolution,
writes every trial to a CSV, and prints per-B margin statistics.
"""

import argparse
from pathlib import Path

import numpy as np

from beamshadow import theorem_trials


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=10_000)
    ap.add_argument("--b-values", default="1,2,3", help="comma-separated bit widths")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--antennas", type=int, default=4)
    ap.add_argument("--out", type=Path, default=Path("out/theorem_sweep.csv"))
    args = ap.parse_args()

    b_values = tuple(int(b) for b in args.b_values.split(","))
    result = theorem_trials(
        args.trials,
        b_values=b_values,
        seed=args.seed,
        n_antennas=args.antennas,
    )

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with args.out.open("w", newline="") as fh:
        fh.write("trial,B,var_blockage,lower_bound,delta_achieved,margin\n")
        for row in result.rows:
            fh.write(
                f"{row.trial},{row.b_bits},{row.var_blockage!r},"
                f"{row.lower_bound!r},{row.delta_achieved!r},{row.margin!r}\n"
            )

    print(f"{len(result.rows)} rows -> {args.out}")
    print(f"violations={result.n_violations} min_margin={result.min_margin:.6g}")
    for b in b_values:
        margins = np.array([r.margin for r in result.rows if r.b_bits == b])
        print(
            f"B={b}: margin min {margins.min():.4g}  "
            f"median {np.median(margins):.4g}  max {margins.max():.4g}"
        )


if __name__ == "__main__":
    main()
