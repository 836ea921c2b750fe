"""The three benchmark workloads: CLI arguments, inputs and output checks.

Each workload is one ``beamshadow`` CLI call made in-process through
``beamshadow.cli.main``.  Its inputs derive from the benchmark seed only, and
every op's output tree is checked before the next op starts:

- run-default     ``beamshadow run`` with the built-in config (5 deg grid,
                  4 scenarios, N=4, B in {2,3}): MRC dominates every scheme,
                  B=3 maps dominate B=2 maps, and sampled cells equal a naive
                  per-entry enumeration over ``Codebook.weight_matrix``.
- theorem-audit   ``beamshadow theorem-check`` with 10^4 trials x B in
                  {1,2,3}: exit status 0 and no row below the bound.
- metrics-1deg    ``beamshadow metrics`` on 1 deg field files made by the
                  benchmark: the tables equal a recompute from the fields the
                  files were written from.

For seeds listed in ``digests.json`` the sha256 of the output tree must also
match the recorded one.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

# tolerances used by the repository's own tests for the same properties
MRC_TOL_DB = 1e-9  # criterion 1: realized gain <= optimal gain
AMP_TOL_DB = 1e-9  # amp_gain_map vs enh_phase_amp_codebook route
BOUND_TOL = 1e-9  # criterion 2: achieved delta >= lower bound
CELLS_PER_SCENARIO = 4

THEOREM_TRIALS = 10_000
THEOREM_B = (1, 2, 3)
METRICS_SCENARIO = "tight-grip-two-finger"
METRICS_STEP_DEG = 1.0
METRICS_PERCENTILES = (10.0, 50.0, 80.0, 90.0)
METRICS_G1_DB, METRICS_G2_DB = 7.5, 2.5


def tree_digest(root) -> str:
    """sha256 over the sorted relative paths and bytes of every file."""
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def recorded_digest(workload: str, seed: int, path=DIGESTS_PATH) -> str | None:
    try:
        table = json.loads(Path(path).read_text())
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


def check_output(workload, seed: int, out: Path, inputs: Path, want_digest: str | None) -> list[str]:
    """Problems found in one op's output tree; empty when it is correct."""
    try:
        problems = workload.check(seed, out, inputs)
        if want_digest is not None and tree_digest(out) != want_digest:
            problems.append("output tree digest differs from digests.json")
    except Exception as exc:  # malformed output is a failed check
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return problems


def _fmt(x) -> str:
    return repr(float(x))


def _read_gain_csv(path: Path, shape) -> np.ndarray:
    lines = path.read_text().splitlines()
    if lines[0] != "theta_deg,phi_deg,gain_db":
        raise ValueError(f"{path.name}: bad header {lines[0]!r}")
    values = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
    if len(values) != shape[0] * shape[1]:
        raise ValueError(f"{path.name}: {len(values)} rows, expected {shape[0] * shape[1]}")
    return np.array(values).reshape(shape)


def _read_field_vectors(path: Path, n: int, shape, cells) -> dict:
    """Per-antenna samples at some cells of a beamshadow-field v1 file,
    parsed without the package (rows: antenna-major, theta, then phi)."""
    lines = path.read_text().splitlines()
    n_dirs = shape[0] * shape[1]
    if len(lines) != 2 + n * n_dirs:
        raise ValueError(f"{path.name}: {len(lines) - 2} rows, expected {n * n_dirs}")
    out = {}
    for it, ip in cells:
        rows = [lines[2 + a * n_dirs + it * shape[1] + ip].split(",") for a in range(n)]
        out[it, ip] = np.array([complex(float(r[3]), float(r[4])) for r in rows])
    return out


def naive_gain_db(weight_matrix: np.ndarray, e: np.ndarray) -> float:
    """Best |w^H e|^2 in dB by enumerating entries one at a time."""
    best = -1.0
    for w in weight_matrix:
        z = (w.conj() * e).sum()
        p = z.real * z.real + z.imag * z.imag
        if p > best:
            best = p
    return float("-inf") if best == 0.0 else 10.0 * math.log10(best)


class RunDefault:
    name = "run-default"

    def __init__(self):
        from beamshadow.experiment import default_config
        from beamshadow.sphere import make_grid

        self.config = default_config()
        self.grid = make_grid(self.config.theta_step_deg, self.config.phi_step_deg)
        maps_per_scenario = 2 + 2 * len(self.config.b_values)
        self.work_per_op = len(self.config.scenarios) * maps_per_scenario * self.grid.n_directions
        self.work_unit = "scenario-direction-scheme cells"

    def argv(self, seed: int, out: Path, inputs: Path) -> list[str]:
        return ["run", "--out", str(out), "--seed", str(seed)]

    def map_names(self) -> list[str]:
        names = ["mrc", "directional"]
        for b in self.config.b_values:
            names += [f"enh_phase_b{b}", f"enh_phase_amp_b{b}"]
        return names

    def sample_cells(self, seed: int) -> dict[str, list[tuple[int, int]]]:
        """Seed-derived (theta, phi) indices checked per scenario."""
        rng = np.random.default_rng([seed, 0xBE])
        cells = {}
        for name in self.config.scenarios:
            flat = rng.choice(self.grid.n_directions, CELLS_PER_SCENARIO, replace=False)
            cells[name] = [divmod(int(f), self.grid.n_phi) for f in flat]
        return cells

    def check(self, seed: int, out: Path, inputs: Path) -> list[str]:
        from beamshadow.codebook import (
            StrengthVector,
            directional_codebook,
            enh_phase_amp_codebook,
            enh_phase_codebook,
        )

        cfg, grid = self.config, self.grid
        n = cfg.array.n_antennas
        problems = []
        for required in ("free.field", "report.json"):
            if not (out / required).is_file():
                problems.append(f"missing {required}")
        dir_w = directional_codebook(
            n, cfg.n_beams, cfg.array.element_spacing, cfg.steer_quant_bits
        ).weight_matrix
        phase_w = {b: enh_phase_codebook(n, b).weight_matrix for b in cfg.b_values}
        cells = self.sample_cells(seed)
        b_lo, b_hi = min(cfg.b_values), max(cfg.b_values)
        for name in cfg.scenarios:
            sdir = out / name
            maps = {m: _read_gain_csv(sdir / f"gain_map_{m}.csv", grid.shape) for m in self.map_names()}
            for m, g in maps.items():
                if m != "mrc" and not np.all(maps["mrc"] + MRC_TOL_DB >= g):
                    problems.append(f"{name}: {m} exceeds MRC")
            for kind in ("enh_phase", "enh_phase_amp"):
                if not np.all(maps[f"{kind}_b{b_hi}"] >= maps[f"{kind}_b{b_lo}"]):
                    problems.append(f"{name}: {kind} B={b_hi} below B={b_lo}")
            vectors = _read_field_vectors(sdir / "blocked.field", n, grid.shape, cells[name])
            for (it, ip), e in vectors.items():
                where = f"{name} cell ({it},{ip})"
                if maps["directional"][it, ip] != naive_gain_db(dir_w, e):
                    problems.append(f"{where}: directional differs from naive enumeration")
                strengths = StrengthVector(tuple(e.real * e.real + e.imag * e.imag))
                for b in cfg.b_values:
                    if maps[f"enh_phase_b{b}"][it, ip] != naive_gain_db(phase_w[b], e):
                        problems.append(f"{where}: enh-phase B={b} differs from naive enumeration")
                    amp_w = enh_phase_amp_codebook(n, b, strengths).weight_matrix
                    if abs(maps[f"enh_phase_amp_b{b}"][it, ip] - naive_gain_db(amp_w, e)) > AMP_TOL_DB:
                        problems.append(f"{where}: enh-phase-amp B={b} off the codebook route")
        return problems


class TheoremAudit:
    name = "theorem-audit"
    work_per_op = THEOREM_TRIALS * len(THEOREM_B)
    work_unit = "(trial, B) rows"

    def argv(self, seed: int, out: Path, inputs: Path) -> list[str]:
        b_list = ",".join(map(str, THEOREM_B))
        return [
            "theorem-check", "--trials", str(THEOREM_TRIALS), "--B", b_list,
            "--seed", str(seed), "--out", str(out / "trials.csv"),
        ]  # fmt: skip

    def check(self, seed: int, out: Path, inputs: Path) -> list[str]:
        lines = (out / "trials.csv").read_text().splitlines()
        if lines[0] != "trial,B,var_blockage,lower_bound,delta_achieved,margin":
            return [f"bad header {lines[0]!r}"]
        rows = lines[1:]
        if len(rows) != self.work_per_op:
            return [f"{len(rows)} rows, expected {self.work_per_op}"]
        violations = 0
        for r, line in enumerate(rows):
            trial, b, _var, lb, delta, margin = line.split(",")
            if (int(trial), int(b)) != (r // len(THEOREM_B), THEOREM_B[r % len(THEOREM_B)]):
                return [f"row {r + 1} out of order: {line!r}"]
            if float(margin) < -BOUND_TOL or float(delta) - float(lb) < -BOUND_TOL:
                violations += 1
        return [f"{violations} bound violations"] if violations else []


class Metrics1Deg:
    name = "metrics-1deg"
    work_unit = "field samples read"

    def __init__(self):
        from beamshadow.sphere import make_grid

        self.grid = make_grid(METRICS_STEP_DEG, METRICS_STEP_DEG)
        self.n_antennas = 4
        self.work_per_op = 2 * self.n_antennas * self.grid.n_directions

    def argv(self, seed: int, out: Path, inputs: Path) -> list[str]:
        return [
            "metrics", "--free", str(inputs / "free.field"),
            "--blocked", str(inputs / "blocked.field"), "--out", str(out),
        ]  # fmt: skip

    def prepare(self, seed: int, inputs: Path) -> None:
        """Write the two field files and the tables expected from them."""
        from beamshadow.distortion import apply_distortion, gen_distortion
        from beamshadow.experiment import default_scenarios
        from beamshadow.fields import ArrayConfig, synth_freespace_field
        from beamshadow.fileio import write_field_file

        free = synth_freespace_field(ArrayConfig(n_antennas=self.n_antennas), self.grid)
        spec = replace(default_scenarios()[METRICS_SCENARIO], seed=seed)
        blocked = apply_distortion(free, gen_distortion(spec, self.grid, self.n_antennas))
        inputs.mkdir(parents=True, exist_ok=True)
        write_field_file(free, inputs / "free.field")
        write_field_file(blocked, inputs / "blocked.field")
        expected = inputs / "expected"
        expected.mkdir(exist_ok=True)
        for name, text in expected_tables(free, blocked).items():
            (expected / name).write_text(text)

    def check(self, seed: int, out: Path, inputs: Path) -> list[str]:
        expected = inputs / "expected"
        want = sorted(p.name for p in expected.iterdir())
        got = sorted(p.name for p in out.iterdir())
        if got != want:
            return [f"output files {got} differ from expected {want}"]
        return [
            f"{name} differs from the recompute"
            for name in want
            if (out / name).read_bytes() != (expected / name).read_bytes()
        ]


def expected_tables(free, blocked) -> dict[str, str]:
    """coverage.csv and cdf_loss_antenna<i>.csv recomputed from fields."""
    from beamshadow.metrics import cdf_summary, coverage_stats, loss_samples, roi_mask

    rows = ["antenna,max_free_gain_db,max_blocked_gain_db,roi_area_pct"]
    for row in coverage_stats(free, blocked, METRICS_G1_DB, METRICS_G2_DB):
        rows.append(
            f"{row.antenna},{_fmt(row.max_free_gain_db)},"
            f"{_fmt(row.max_blocked_gain_db)},{_fmt(row.roi_area_pct)}"
        )
    tables = {"coverage.csv": "\n".join(rows) + "\n"}
    for i in range(free.n_antennas):
        roi = roi_mask(free, blocked, i, METRICS_G1_DB, METRICS_G2_DB)
        s = cdf_summary(loss_samples(free, blocked, i, roi), METRICS_PERCENTILES)
        lines = ["percentile,value_db"] + [f"{_fmt(p)},{_fmt(v)}" for p, v in s.percentiles]
        tables[f"cdf_loss_antenna{i}.csv"] = "\n".join(lines) + "\n"
    return tables


WORKLOADS = {w.name: w for w in (RunDefault, TheoremAudit, Metrics1Deg)}
