"""Record the reference sha256 of every workload's metric file per input seed.

    python3 perfbench/record_digests.py [--workload NAME ...]

Run from the root of a checkout whose outputs are known to be right.  Each
(workload, seed) pair runs once, untraced, in a fresh process, and its metric
file is checked as in a benchmark run except for the digest itself.  Rewrites
the named workloads' entries of reference_digests.json and prints, per
workload, the lowest final accuracies seen, against which the floors in
workloads.py are set.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import (REFERENCE_DIGESTS, WORK_DIR, check_metric_file, run_worker, sha256,
                 write_inputs)
from workloads import NUM_REFERENCE_SEEDS, WORKLOADS


def record(root: Path, workload, tmp: Path) -> dict:
    digests, lowest = {}, {"personalized_acc": 1.0, "global_acc": 1.0}
    seeds = range(NUM_REFERENCE_SEEDS)
    inputs = write_inputs(workload, seeds, tmp)
    for seed in seeds:
        out = tmp / f"seed-{seed}"
        out.mkdir()
        run_worker(root, workload, seed, out, inputs[seed], trace=False)
        problems, final = check_metric_file(out / "repeat_0.jsonl", workload)
        if problems:
            raise SystemExit(f"{workload.name} seed {seed}: {problems}")
        digests[str(seed)] = sha256(out / "repeat_0.jsonl")
        for key in lowest:
            lowest[key] = min(lowest[key], final[key])
        shutil.rmtree(out)
    print(json.dumps({"workload": workload.name, "lowest_final": lowest}), flush=True)
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    root = Path.cwd()
    (root / WORK_DIR).mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        tmp = Path(tempfile.mkdtemp(dir=root / WORK_DIR))
        try:
            digests = record(root, WORKLOADS[name], tmp)
        finally:
            shutil.rmtree(tmp)
        table = {}
        if REFERENCE_DIGESTS.is_file():
            table = json.loads(REFERENCE_DIGESTS.read_text(encoding="utf-8"))
        table[name] = digests
        REFERENCE_DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
