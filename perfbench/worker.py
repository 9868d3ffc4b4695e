"""One benchmark run of one workload, in its own Python process.

    PYTHONPATH=src python3 perfbench/worker.py --workload NAME --seed N --out DIR
        [--idx IMAGES,LABELS] [--trace]

Set-up (build or load the dataset, then partition it) is repeated
SETUP_REPEATS times and its median reported.  The timed run is the method's
public runner, including client construction and per-round evaluation, plus
writing ``DIR/repeat_0.jsonl`` in the CLI's format.  With ``--trace`` the
layer wrappers of ``tracer.py`` are installed first and their summary is
reported too.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from pfedbred import cli, fl
from pfedbred.models import make_model

import tracer as tracing
from workloads import WORKLOADS

SETUP_REPEATS = 5

RUNNERS = {"pfedbred": fl.run_pfedbred, "perfedavg_fo": fl.run_perfedavg_fo}


def build_spec(workload, seed: int, idx_paths=None) -> cli.ExperimentSpec:
    overrides = dict(workload.overrides, seed=seed)
    if workload.idx:
        overrides["dataset_idx"] = ",".join(str(p) for p in idx_paths)
    return cli.parse_config(None, overrides)


def write_metric_file(path: Path, history: fl.RunHistory, spec: cli.ExperimentSpec) -> None:
    """``repeat_0.jsonl`` as ``pfedbred.cli.run_experiment`` writes it."""
    strategy = spec.strategy if spec.method == "pfedbred" else None
    with open(path, "w", encoding="utf-8") as fh:
        for m in history.rounds:
            record = {
                "round": m.round,
                "repeat": 0,
                "seed": spec.seed,
                "method": spec.method,
                "strategy": strategy,
                "global_acc": m.global_acc_globaltest,
                "personalized_acc": m.personalized_acc_localtest,
                "mean_local_loss": m.mean_local_loss,
                "gce": m.gce,
                "dev_global": {str(k): v for k, v in
                               sorted(m.per_class_deviation_global.items())} or None,
                "dev_local": {str(k): v for k, v in
                              sorted(m.per_class_deviation_local.items())} or None,
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def run_once(spec: cli.ExperimentSpec, out: Path, tracer=None) -> dict:
    """Time set-up and the run; with ``tracer``, route both through its spans."""
    def traced(name, fn):
        return fn if tracer is None else tracer.wrap(name, fn)

    build_dataset = traced("data.build_dataset", cli.build_dataset)
    build_partition = traced("data.partition", cli.build_partition)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        dataset = build_dataset(spec)
        partition = build_partition(spec, dataset, spec.seed)
        setup_times.append(perf_counter() - start)

    runner = traced("fl.runner", RUNNERS[spec.method])
    write = traced("cli.write", write_metric_file)
    start = perf_counter()
    model = make_model(spec.model, dataset.num_features, dataset.num_classes)
    history = runner(spec.run_config(spec.seed), dataset, partition, model)
    write(out / "repeat_0.jsonl", history, spec)
    run_s = perf_counter() - start
    return {"setup_s": statistics.median(setup_times), "run_s": run_s,
            "rounds": spec.num_rounds,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--idx", type=str, default=None, metavar="IMAGES,LABELS")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    spec = build_spec(WORKLOADS[args.workload], args.seed,
                      args.idx.split(",") if args.idx else None)
    if args.trace:
        with tracing.install(tracing.Tracer()) as tracer:
            result = run_once(spec, args.out, tracer)
        result["trace"] = tracer.summary()
        result["trace_quantities"] = {f"{name}.{label}": value for (name, label), value
                                      in tracer.quantities.items()}
    else:
        result = run_once(spec, args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
