"""beamshadow benchmark: time three CLI workloads and check every output.

Run from the root of a checkout (the directory holding ``src/beamshadow``):

    python3 bench/run.py --workload run-default --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``run-default``, ``theorem-audit`` and
``metrics-1deg``.  Each run starts fresh processes: several that only time
``import beamshadow.cli`` (the set-up every CLI call pays), one that writes
the workload's input files if it has any, and one that makes the timed ops.
``BEAMSHADOW_THREADS`` is removed from their environment so the CLI uses its
default worker count.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` they are the per-layer ones from a
separate traced run, whose spans are dumped to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("run-default", "theorem-audit", "metrics-1deg")
PREPARED_WORKLOADS = ("metrics-1deg",)  # workloads whose input files are made first
SETUP_PROBES = 7
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
TIME_LIMIT_S = 170  # every process of one run ends within this

IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import beamshadow.cli; "
    "print(repr(time.perf_counter() - t0))"
)


def quantile(values, p: float) -> float:
    """Linear-interpolation percentile p (0..100) of values."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it.

    p75 needs 40 samples and p50 needs 20; with fewer than 20 no ladder
    percentile qualifies and the tail falls back to the median (p50).
    """
    for p in TAIL_LADDER:
        if n * (1000 - round(p * 10)) >= TAIL_MIN_BEYOND * 1000:  # exact in tenths
            return p
    return 50.0


def src_line_count(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def environment(root: Path, threads_env_set: bool, result: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "scipy": result["scipy"],
        "workers_resolved": result["workers"],
        "BEAMSHADOW_THREADS_set": threads_env_set,
        "BEAMSHADOW_THREADS_passed_to_cli": False,
        "src_lines": src_line_count(root),
    }


def end_to_end(result: dict, setup: list[float]) -> tuple[dict, dict]:
    ops = result["op_s"]
    p_tail = tail_percentile(len(ops))
    metrics = {
        "op_s_p50": {"value": statistics.median(ops), "unit": "s"},
        "op_s_tail": {"value": quantile(ops, p_tail), "unit": "s"},
        "work_per_s": {"value": result["work_per_op"] * len(ops) / sum(ops), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }
    notes = {
        "n_ops": len(ops),
        "op_s_tail_percentile": p_tail,
        "work_unit": result["work_unit"],
        "work_per_op": result["work_per_op"],
        "setup_samples_s": setup,
    }
    return metrics, notes


def layer_metrics(result: dict, root: Path) -> dict:
    units = {}
    for entry in json.loads((root / "BENCHMARK.json").read_text())["per_layer"]:
        units[entry["name"]] = entry["unit"]
    values = dict(result["per_layer"])
    values["failed_frac"] = result["failed"] / result["attempted"]
    traced, untraced = result["traced_op_s"], result["op_s"]
    values["trace.op_s_p50"] = statistics.median(traced) if traced else 0.0
    values["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced) if traced and untraced else 0.0
    )
    values["trace.spans_absent"] = len(result["absent_spans"]) + len(result["absent_layers"])
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "beamshadow" / "cli.py").is_file():
        print(f"error: {root} holds no src/beamshadow; run from a checkout root", file=sys.stderr)
        return 2

    env = dict(os.environ)
    threads_env_set = env.pop("BEAMSHADOW_THREADS", None) is not None
    env["PYTHONPATH"] = str(root / "src")
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    tmp = root / ".bench_tmp" / f"{tag}_{os.getpid()}"
    out_dir = root / ".bench_out"

    deadline = time.monotonic() + TIME_LIMIT_S

    def python(*cmd):
        return subprocess.run(
            [sys.executable, *cmd], env=env, cwd=root, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0), check=True,
        ).stdout  # fmt: skip

    worker = str(BENCH_DIR / "worker.py")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--tmp", str(tmp)]
    try:
        setup = []
        if not args.trace:
            setup = [float(python("-c", IMPORT_PROBE)) for _ in range(SETUP_PROBES)]
        tmp.mkdir(parents=True)
        if args.workload in PREPARED_WORKLOADS:
            python(worker, "--stage", "prepare", *common)
        result_path = tmp / "result.json"
        python(
            worker, "--stage", "run", *common, "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--result", str(result_path),
        )  # fmt: skip
        result = json.loads(result_path.read_text())
    except subprocess.CalledProcessError as exc:
        print(f"error: benchmark process failed ({exc.returncode}):\n{exc.stderr}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"error: benchmark process exceeded {exc.timeout} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not result["op_s"]:
        print(f"error: no op completed: {result['failures'][:1]}", file=sys.stderr)
        return 1

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root, threads_env_set, result),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "digest_checked": result["digest_checked"],
        "op_s": result["op_s"],
    }
    if args.trace:
        metrics = layer_metrics(result, root)
        report["traced_op_s"] = result["traced_op_s"]
        report["absent_spans"] = result["absent_spans"]
        report["absent_layers"] = result["absent_layers"]
        report["trace_ops"] = result["trace_ops"]
        report["first_traced_op_spans"] = result["first_traced_op_spans"]
    else:
        metrics, notes = end_to_end(result, setup)
        report.update(notes)
    report["metrics"] = metrics
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{tag}.json").write_text(json.dumps(report, sort_keys=True))

    for failure in result["failures"]:
        print(f"failed op {failure['index']}: {failure['problems']}", file=sys.stderr)
    bulky = ("trace_ops", "first_traced_op_spans", "failures", "metrics")
    summary = {k: v for k, v in report.items() if k not in bulky}
    print(json.dumps(summary, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
