"""One benchmark process: prepare a workload's inputs, or time its ops.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path and
``BEAMSHADOW_THREADS`` unset, so the CLI resolves its default worker count.

    python3 bench/worker.py --stage prepare --workload W --seed S --tmp DIR
    python3 bench/worker.py --stage run --workload W --seed S --tmp DIR \
        --seconds T --trace 0|1 --result FILE

The run stage times ops until ``--seconds`` have passed, checking every op's
output tree (outside the timed region) and deleting it.  No op is discarded
as a warm-up: every CLI call is a fresh process and pays first-call costs.  With ``--trace 1`` ops alternate between untraced and traced,
so the tracing overhead is measured within the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

MIN_OPS = 3


def per_layer(table: dict, counters: dict, op_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced op from its span table and counters."""

    def self_s(*names):
        return sum(table.get(n, {}).get("self_s", 0.0) for n in names)

    def total_s(name):
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    search_s = self_s("codebook.gain_map", "codebook.amp_gain_map")
    write_s = self_s(
        "fileio.write_field_file", "fileio.write_distortion_file", "fileio.write_gain_map_csv"
    )
    read_s = self_s("fileio.read_field_file", "fileio.read_distortion_file")
    entries = counters.get("codebook.entries_searched", 0.0)
    written = counters.get("fileio.bytes_written", 0.0)
    read = counters.get("fileio.bytes_read", 0.0)
    return {
        "codebook.gain_map.self_s": self_s("codebook.gain_map"),
        "codebook.gain_map.calls": calls("codebook.gain_map"),
        "codebook.amp_gain_map.self_s": self_s("codebook.amp_gain_map"),
        "codebook.amp_gain_map.calls": calls("codebook.amp_gain_map"),
        "codebook.build.self_s": self_s(
            "codebook.directional_codebook", "codebook.enh_phase_codebook"
        ),
        "codebook.entries_searched": entries,
        "codebook.entries_per_s": ratio(entries, search_s),
        "fileio.write_field_file.self_s": self_s("fileio.write_field_file"),
        "fileio.write_distortion_file.self_s": self_s("fileio.write_distortion_file"),
        "fileio.write_gain_map_csv.self_s": self_s("fileio.write_gain_map_csv"),
        "fileio.bytes_written": written,
        "fileio.write_mb_per_s": ratio(written / 1e6, write_s),
        "fileio.read_field_file.self_s": self_s("fileio.read_field_file"),
        "fileio.bytes_read": read,
        "fileio.read_mb_per_s": ratio(read / 1e6, read_s),
        "metrics.cdf_summary.self_s": self_s("metrics.cdf_summary"),
        "metrics.cdf_summary.calls": calls("metrics.cdf_summary"),
        "metrics.roi_mask.self_s": self_s("metrics.roi_mask"),
        "metrics.loss_samples.self_s": self_s("metrics.loss_samples"),
        "metrics.coverage_stats.self_s": self_s("metrics.coverage_stats"),
        "metrics.phase_mixing.self_s": self_s("metrics.phase_mixing", "metrics.pair_phase_diff"),
        "link.theorem_trials.self_s": self_s("link.theorem_trials"),
        "link.delta_snr_achieved.self_s": self_s("link.delta_snr_achieved"),
        "link.delta_snr_achieved.calls": calls("link.delta_snr_achieved"),
        "link.theorem1_lb.self_s": self_s("link.theorem1_lb"),
        "link.var_blockage.self_s": self_s("link.var_blockage"),
        "link.trials_per_s": ratio(counters.get("link.trials", 0.0), total_s("link.theorem_trials")),
        "distortion.gen_distortion.self_s": self_s("distortion.gen_distortion"),
        "distortion.apply_distortion.self_s": self_s("distortion.apply_distortion"),
        "fields.synth_freespace_field.self_s": self_s("fields.synth_freespace_field"),
        "experiment.run_experiment.self_s": self_s("experiment.run_experiment"),
        "experiment.workers": counters.get("experiment.workers", 0.0),
        "experiment.parallelism": ratio(
            total_s("experiment.scenario"), total_s("experiment.run_experiment")
        ),
        "cli.self_s": self_s("cli.main"),
        "trace.unspanned_s": op_s - total_s("cli.main"),
    }


# span names behind the per-layer metrics; a missing one is reported absent
REQUIRED_SPANS = (
    "cli.main",
    "codebook.gain_map",
    "codebook.amp_gain_map",
    "codebook.directional_codebook",
    "codebook.enh_phase_codebook",
    "fileio.write_field_file",
    "fileio.write_distortion_file",
    "fileio.write_gain_map_csv",
    "fileio.read_field_file",
    "metrics.cdf_summary",
    "metrics.roi_mask",
    "metrics.loss_samples",
    "metrics.coverage_stats",
    "metrics.phase_mixing",
    "metrics.pair_phase_diff",
    "link.theorem_trials",
    "link.delta_snr_achieved",
    "link.theorem1_lb",
    "link.var_blockage",
    "distortion.gen_distortion",
    "distortion.apply_distortion",
    "fields.synth_freespace_field",
    "experiment.run_experiment",
    "experiment.resolve_workers",
    "experiment.scenario",
)


def _one_op(cli, argv) -> tuple[int, float]:
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        return rc, time.perf_counter() - start


def run(args) -> dict:
    import beamshadow.cli as cli
    import numpy
    import scipy
    from beamshadow.experiment import resolve_workers
    from workloads import WORKLOADS, check_output, recorded_digest

    import tracing

    workload = WORKLOADS[args.workload]()
    tmp, inputs = Path(args.tmp), Path(args.tmp) / "inputs"
    want_digest = recorded_digest(workload.name, args.seed)
    installation = tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        installation = tracing.Installation(tracer)

    ops, failures = [], []
    first_spans = []

    def op(index: int, traced: bool) -> None:
        out = tmp / f"op{index}"
        argv = workload.argv(args.seed, out, inputs)
        out.mkdir(parents=True)
        record = {"index": index, "traced": traced}
        if traced:
            tracer.reset()
            installation.enable()
        try:
            rc, record["op_s"] = _one_op(cli, argv)
            problems = [] if rc == 0 else [f"exit status {rc}"]
        except Exception as exc:  # an op that raises is a failed op
            record["op_s"] = None
            problems = [f"raised {type(exc).__name__}: {exc}"]
        finally:
            if traced:
                installation.disable()
        if traced and record["op_s"] is not None:
            spans = tracer.spans
            record["spans"] = tracing.summarize(spans)
            record["layers"] = per_layer(record["spans"], dict(tracer.counters), record["op_s"])
            record["accounting"] = tracing.accounting(spans, record["op_s"])
            if not first_spans:
                first_spans.extend(s.to_dict() for s in spans)
        if not problems:
            problems = check_output(workload, args.seed, out, inputs, want_digest)
        if problems:
            record["problems"] = problems[:10]
            failures.append(record)
        ops.append(record)
        shutil.rmtree(out, ignore_errors=True)

    loop_start = time.perf_counter()
    min_ops = 2 * MIN_OPS if args.trace else MIN_OPS
    while True:
        elapsed = time.perf_counter() - loop_start
        # slow code still gets min_ops samples, within twice the run length
        if elapsed >= args.seconds and (len(ops) >= min_ops or elapsed >= 2 * args.seconds):
            break
        op(len(ops), traced=bool(args.trace) and len(ops) % 2 == 1)

    timed = [o for o in ops if "problems" not in o]  # a failed op has no latency
    result = {
        "workload": workload.name,
        "work_per_op": workload.work_per_op,
        "work_unit": workload.work_unit,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:5],
        "op_s": [o["op_s"] for o in timed if not o["traced"]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "workers": resolve_workers(None),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "digest_checked": want_digest is not None,
    }
    if args.trace:
        traced = [o for o in timed if o["traced"]]
        names = sorted(traced[0]["layers"]) if traced else []
        result["traced_op_s"] = [o["op_s"] for o in traced]
        result["per_layer"] = {
            n: statistics.median(o["layers"][n] for o in traced) for n in names
        }
        result["absent_spans"] = sorted(set(REQUIRED_SPANS) - installation.span_names)
        result["absent_layers"] = installation.absent_layers
        result["trace_ops"] = [
            {k: o[k] for k in ("index", "op_s", "accounting", "layers", "spans")} for o in traced
        ]
        result["first_traced_op_spans"] = first_spans
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--stage", choices=("prepare", "run"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tmp", required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result")
    args = p.parse_args(argv)
    if args.stage == "prepare":
        from workloads import WORKLOADS

        WORKLOADS[args.workload]().prepare(args.seed, Path(args.tmp) / "inputs")
        return 0
    Path(args.result).write_text(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
