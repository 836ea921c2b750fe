#!/usr/bin/env python3
"""Profile the steered-codebook crossover loss along the boresight azimuth cut.

Sweeps theta at phi=270 on a fine grid, compares the directional codebook
against optimal combining, writes the cut to a CSV, and prints the
beam-center and crossover extremes of the gap.
"""

import argparse
from pathlib import Path

import numpy as np

from beamshadow import ArrayConfig, directional_codebook, gain_map, make_grid, synth_freespace_field


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--theta-step", type=float, default=1.0)
    ap.add_argument("--antennas", type=int, default=4)
    ap.add_argument("--beams", type=int, default=None, help="default: one per antenna")
    ap.add_argument("--quant-bits", type=int, default=5)
    ap.add_argument("--out", type=Path, default=Path("out/crossover_cut.csv"))
    args = ap.parse_args()

    grid = make_grid(args.theta_step, 45.0)
    fld = synth_freespace_field(ArrayConfig(n_antennas=args.antennas), grid)
    n_beams = args.antennas if args.beams is None else args.beams
    cbk = directional_codebook(args.antennas, n_beams=n_beams, quant_bits=args.quant_bits)

    col = list(grid.phis).index(270.0)
    g_opt = gain_map("mrc", fld)[:, col]
    g_dir = gain_map(cbk, fld)[:, col]
    gap = g_opt - g_dir

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with args.out.open("w", newline="") as fh:
        fh.write("theta_deg,optimal_db,directional_db,gap_db\n")
        # Python floats: the repr of a numpy scalar is "np.float64(...)", not a number
        for t, a, b, g in zip(grid.thetas.tolist(), g_opt.tolist(), g_dir.tolist(), gap.tolist()):
            fh.write(f"{t!r},{a!r},{b!r},{g!r}\n")

    print(f"cut written to {args.out} ({grid.n_theta} samples, phi=270)")
    print(f"gap at best-aligned direction: {gap.min():.4f} dB")
    print(f"worst crossover gap:           {gap.max():.4f} dB")
    strong = g_opt >= g_opt.max() - 10.0
    print(
        f"within 10 dB of peak: gap spans [{gap[strong].min():.4f}, "
        f"{gap[strong].max():.4f}] dB over {int(strong.sum())} directions"
    )
    # local maxima of the gap sit at beam crossovers; print them for reference
    interior = (gap[1:-1] >= gap[:-2]) & (gap[1:-1] >= gap[2:])
    peaks = np.flatnonzero(interior) + 1
    peaks = peaks[np.argsort(gap[peaks])[::-1][:8]]
    for idx in np.sort(peaks):
        print(f"  crossover near theta={grid.thetas[idx]:6.1f}: {gap[idx]:.4f} dB")


if __name__ == "__main__":
    main()
