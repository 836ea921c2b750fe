"""Record output-tree digests for a range of seeds into ``digests.json``.

    PYTHONPATH=src python3 bench/record_digests.py --seeds 0-31 [--workload W ...]

Each seed's op must first pass its workload's output check.  Run this only
on a commit whose outputs are known good: later runs of the benchmark with a
recorded seed fail any op whose output tree differs from the digest.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import DIGESTS_PATH, WORKLOADS, check_output, tree_digest  # noqa: E402


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-31")
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = p.parse_args(argv)

    import beamshadow.cli as cli

    tmp_root = DIGESTS_PATH.parent.parent / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    table = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]()
        for seed in args.seeds:
            with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
                inputs, out = Path(tmp) / "inputs", Path(tmp) / "out"
                if hasattr(workload, "prepare"):
                    workload.prepare(seed, inputs)
                out.mkdir()
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(workload.argv(seed, out, inputs))
                problems = [f"exit status {rc}"] if rc else []
                problems += check_output(workload, seed, out, inputs, None)
                if problems:
                    print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                table.setdefault(name, {})[str(seed)] = tree_digest(out)
            print(f"{name} seed {seed}: {table[name][str(seed)]}")
    DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
