"""Experiment runner and command-line entry point.

A run is described by a flat key-value spec that can come from a JSON config
file, command-line flags, or both (flags win).  Every key is one field of
``ExperimentSpec`` (listed in ``KEYS``), which drives the defaults, the flags,
type coercion and the round-trip back to a flat config; range rules live in
``RunConfig.validate`` and ``PriorStrategy``.  Each invocation creates a fresh timestamped directory
under the output root containing the resolved config, one JSON-lines file of
per-round metrics per repeat, and a CSV summarizing the final round across
repeats.

Repeats run one after another in this process.  The environment variable
PFB_THREADS is still read and must be an integer, but it changes nothing:
results and run time are the same for any value.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .data import (Dataset, load_csv, load_idx, partition_dirichlet,
                   partition_label_shard, synth_gaussian_mixture)
from .errors import ConfigError, DivergenceError, DomainError, NumericalError
from .fl import (STRATEGY_KINDS, PriorStrategy, RunConfig, Tricks, run_fedavg,
                 run_perfedavg_fo, run_pfedbred)
from .models import make_model

RUNNERS = {"pfedbred": run_pfedbred, "fedavg": run_fedavg, "perfedavg_fo": run_perfedavg_fo}
METHODS = tuple(RUNNERS)
MODELS = ("mclr", "dnn")


def _as_int(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    return int(value)


def _as_float(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.floating)):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
    return float(value)


def _as_bool(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"config key {key!r} must be a boolean, got {value!r}")
    return value


def _as_str(key: str, value) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"config key {key!r} must be a nonempty string, got {value!r}")
    return value


def _as_partition(key: str, value) -> tuple:
    kind, sep, param = _as_str(key, value).partition(":")
    if not sep:
        raise ConfigError(f"config key {key!r} must look like 'label_shard:K' "
                          f"or 'dirichlet:ALPHA', got {value!r}")
    if kind == "label_shard":
        try:
            k = int(param)
        except ValueError:
            raise ConfigError(f"label_shard class count must be an integer, got {param!r}") from None
        if k < 1:
            raise ConfigError(f"label_shard class count must be >= 1, got {k}")
        return kind, k
    if kind == "dirichlet":
        try:
            alpha = float(param)
        except ValueError:
            raise ConfigError(f"dirichlet alpha must be a number, got {param!r}") from None
        if not alpha > 0:
            raise ConfigError(f"dirichlet alpha must be positive, got {alpha}")
        return kind, alpha
    raise ConfigError(f"unknown partition kind {kind!r}; expected label_shard or dirichlet")


def _as_synth(key: str, value) -> tuple:
    parts = _as_str(key, value).split(",")
    if len(parts) != 4:
        raise ConfigError(f"config key {key!r} must be 'CLASSES,DIMS,PER_CLASS,SEPARATION', "
                          f"got {value!r}")
    try:
        c, d, npc = int(parts[0]), int(parts[1]), int(parts[2])
        sep = float(parts[3])
    except ValueError:
        raise ConfigError(f"could not parse {key!r} value {value!r}") from None
    if c < 2 or d < 1 or npc < 1 or sep < 0:
        raise ConfigError(f"{key!r} values out of range: {value!r}")
    return c, d, npc, sep


def _as_idx_pair(key: str, value) -> tuple:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return str(value[0]), str(value[1])
    if isinstance(value, str):
        parts = value.split(",")
        if len(parts) == 2 and all(parts):
            return parts[0], parts[1]
    raise ConfigError(f"config key {key!r} must be 'IMAGES,LABELS', got {value!r}")


@dataclass(frozen=True)
class Key:
    """One config key: its name in JSON and on the command line, and how it is read.

    ``coerce(name, raw)`` turns a raw value into the value of the
    ``ExperimentSpec`` field ``field`` and ``unparse`` turns it back.  The
    flag is ``--name`` with dashes unless ``flag`` says otherwise; a
    ``switch`` flag takes no argument and stores that value.
    """

    name: str
    default: object
    coerce: Callable
    help: str | None = None
    flag: str | None = None
    metavar: str | None = None
    switch: bool | None = None
    unparse: Callable = lambda value: value
    field: str = ""


def _key(*args, **kwargs):
    """A dataclass field that carries its config key, ``Key(*args, **kwargs)``."""
    return field(metadata={"key": Key(*args, **kwargs)})


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully resolved experiment description.

    Each field is read from one config key, so this class is the table of
    keys.  The fields have no dataclass defaults: a key's default is a raw
    config value that ``parse_config`` resolves.
    """

    dataset_idx: tuple | None = _key("dataset_idx", None, _as_idx_pair,
                                     "binary IDX image/label pair", metavar="IMAGES,LABELS",
                                     unparse=",".join)
    dataset_csv: str | None = _key("dataset_csv", None, _as_str,
                                   "CSV file with header label,f0,f1,...", metavar="PATH")
    synth: tuple | None = _key(
        "synth", None, _as_synth,
        "synthetic Gaussian mixture: classes, dims, per-class count, separation",
        metavar="C,D,NPC,SEP", unparse=lambda v: ",".join(map(repr, v)))
    partition: tuple = _key("partition", "label_shard:3", _as_partition,
                            metavar="label_shard:K|dirichlet:ALPHA",
                            unparse=lambda v: f"{v[0]}:{v[1]!r}")
    method: str = _key("method", "pfedbred", _as_str, f"one of {', '.join(METHODS)}")
    strategy: str = _key("strategy", "mh", _as_str, f"one of {', '.join(STRATEGY_KINDS)}")
    model: str = _key("model", "mclr", _as_str, f"one of {', '.join(MODELS)}")
    num_rounds: int = _key("T", 100, _as_int, "communication rounds")
    local_steps: int = _key("R", 20, _as_int, "local steps per round")
    prox_steps: int = _key("K", 5, _as_int, "inner proximal steps")
    sample_size: int = _key("S", None, _as_int, "clients sampled per round (default 20%% of N)")
    num_clients: int = _key("N", 20, _as_int, "total clients")
    lam: float = _key("lambda", 15.0, _as_float, "divergence weight")
    alpha_m: float = _key("alpha_m", 0.01, _as_float, "local/global step size")
    alpha: float = _key("alpha", 0.01, _as_float, "inner solver step size")
    eta: float = _key("eta", 0.05, _as_float, "memorized-shift step")
    eta_alpha: float = _key("eta_alpha", 0.01, _as_float, "loss-gradient shift step")
    beta: float = _key("beta", None, _as_float, "server mixing weight (default 1, or 2 with --am)")
    batch_size: int = _key("batch", 20, _as_int, "mini-batch size")
    seed: int = _key("seed", 0, _as_int)
    repeats: int = _key("repeats", 1, _as_int)
    ft: bool = _key("ft", False, _as_bool, "fine-tune personalized models before local testing",
                    switch=True)
    am: bool = _key("am", False, _as_bool, "aggregation momentum (forces beta=2)", switch=True)
    train_fraction: float = _key("train_fraction", 0.9, _as_float)
    track_deviations: bool = _key("track_deviations", True, _as_bool,
                                  "skip per-class deviation tracking",
                                  flag="--no-deviations", switch=False)
    out: str = _key("out", "runs", _as_str, "output root directory")

    def to_config(self) -> dict:
        """Flat key-value form; feeding it back to parse_config reproduces this spec."""
        return {key.name: None if getattr(self, key.field) is None
                else key.unparse(getattr(self, key.field)) for key in KEYS}

    def run_config(self, seed: int) -> RunConfig:
        """The run configuration of one repeat."""
        return RunConfig(
            alpha_m=self.alpha_m, alpha=self.alpha, lam=self.lam, beta=self.beta,
            num_rounds=self.num_rounds, local_steps=self.local_steps,
            prox_steps=self.prox_steps, sample_size=self.sample_size,
            num_clients=self.num_clients, batch_size=self.batch_size,
            strategy=PriorStrategy(kind=self.strategy, eta_alpha=self.eta_alpha, eta=self.eta),
            tricks=Tricks(ft=self.ft, am=self.am), seed=seed,
            track_deviations=self.track_deviations)


KEYS = tuple(replace(f.metadata["key"], field=f.name) for f in fields(ExperimentSpec))
_DEFAULTS = {key.name: key.default for key in KEYS}
_FLAG_TYPES = {_as_int: int, _as_float: float}


def parse_config(config_path=None, overrides=None) -> ExperimentSpec:
    """Merge defaults, an optional JSON config file, and explicit overrides.

    Later sources win.  Unknown keys, ill-typed values and values out of
    range raise ConfigError naming the offending key.
    """
    loaded, overrides = {}, overrides or {}
    if config_path is not None:
        with open(config_path, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {config_path} is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {config_path} must hold a JSON object")
    for key in [*loaded, *overrides]:
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
    given = {key: value for key, value in overrides.items() if value is not None}
    return _build_spec({**_DEFAULTS, **loaded, **given})


def _build_spec(cfg: dict) -> ExperimentSpec:
    sources = [k for k in ("dataset_idx", "dataset_csv", "synth") if cfg[k] is not None]
    if len(sources) != 1:
        raise ConfigError(
            f"exactly one dataset source among dataset_idx, dataset_csv, synth is "
            f"required; got {sources or 'none'}")
    values = {key.field: None if cfg[key.name] is None and key.default is None
              else key.coerce(key.name, cfg[key.name]) for key in KEYS}
    for name, allowed in (("method", METHODS), ("model", MODELS)):
        if values[name] not in allowed:
            raise ConfigError(f"config key {name!r} must be one of {allowed}, "
                              f"got {values[name]!r}")
    if values["repeats"] < 1:
        raise ConfigError(f"config key 'repeats' must be >= 1, got {values['repeats']}")
    if not 0 < values["train_fraction"] < 1:
        raise ConfigError(f"config key 'train_fraction' must lie in (0, 1), "
                          f"got {values['train_fraction']}")
    if values["sample_size"] is None:
        values["sample_size"] = max(1, round(0.2 * values["num_clients"]))
    if values["beta"] is None:
        values["beta"] = 2.0 if values["am"] else 1.0
    spec = ExperimentSpec(**values)
    spec.run_config(spec.seed).validate()  # RunConfig and PriorStrategy check every other range
    return spec


def build_dataset(spec: ExperimentSpec) -> Dataset:
    if spec.synth is not None:
        c, d, npc, sep = spec.synth
        return synth_gaussian_mixture(c, d, npc, sep, seed=spec.seed)
    if spec.dataset_csv is not None:
        return load_csv(spec.dataset_csv)
    return load_idx(*spec.dataset_idx)


def build_partition(spec: ExperimentSpec, dataset: Dataset, seed: int):
    kind, param = spec.partition
    split = partition_label_shard if kind == "label_shard" else partition_dirichlet
    return split(dataset, spec.num_clients, param, train_fraction=spec.train_fraction, seed=seed)


def threads_from_env() -> int:
    raw = os.environ.get("PFB_THREADS", "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"PFB_THREADS must be an integer, got {raw!r}") from None
    return max(1, value)


def _new_run_dir(root: Path) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    suffix = 0
    while True:
        name = f"run-{stamp}" if suffix == 0 else f"run-{stamp}-{suffix}"
        candidate = root / name
        try:
            candidate.mkdir(parents=True, exist_ok=False)
            return candidate
        except FileExistsError:
            suffix += 1


def _round_record(m, repeat: int, seed: int, method: str, strategy) -> dict:
    return {
        "round": m.round,
        "repeat": repeat,
        "seed": seed,
        "method": method,
        "strategy": strategy,
        "global_acc": m.global_acc_globaltest,
        "personalized_acc": m.personalized_acc_localtest,
        "mean_local_loss": m.mean_local_loss,
        "gce": m.gce,
        "dev_global": {str(k): v for k, v in sorted(m.per_class_deviation_global.items())} or None,
        "dev_local": {str(k): v for k, v in sorted(m.per_class_deviation_local.items())} or None,
    }


def run_experiment(spec: ExperimentSpec, workers: int | None = None) -> Path:
    """Run all repeats, write outputs, and return the created run directory.

    Repeats run one after another.  ``workers`` (default: PFB_THREADS) is
    only checked: running repeats in parallel processes was measured no
    faster for ``mclr`` and slower for ``dnn``, at about three times the
    memory.
    """
    if workers is None:
        threads_from_env()
    dataset = build_dataset(spec)
    root = Path(spec.out)
    root.mkdir(parents=True, exist_ok=True)
    run_dir = _new_run_dir(root)
    config_text = json.dumps(spec.to_config(), indent=2, sort_keys=True)
    (run_dir / "config.json").write_text(config_text + "\n", encoding="utf-8")

    strategy = spec.strategy if spec.method == "pfedbred" else None
    finals = []
    for repeat in range(spec.repeats):
        seed = spec.seed + repeat
        partition = build_partition(spec, dataset, seed)
        model = make_model(spec.model, dataset.num_features, dataset.num_classes)
        history = RUNNERS[spec.method](spec.run_config(seed), dataset, partition, model)
        with open(run_dir / f"repeat_{repeat}.jsonl", "w", encoding="utf-8") as fh:
            for m in history.rounds:
                fh.write(json.dumps(_round_record(m, repeat, seed, spec.method, strategy),
                                    sort_keys=True) + "\n")
        finals.append(history.rounds[-1])

    rows = [
        ("global_acc", [m.global_acc_globaltest for m in finals]),
        ("personalized_acc", [m.personalized_acc_localtest for m in finals]),
        ("mean_local_loss", [m.mean_local_loss for m in finals]),
    ]
    if all(m.gce is not None for m in finals):
        rows.append(("gce", [m.gce for m in finals]))
    with open(run_dir / "summary.csv", "w", encoding="utf-8") as fh:
        fh.write("metric,mean,std\n")
        for name, values in rows:
            arr = np.asarray(values, dtype=np.float64)
            fh.write(f"{name},{repr(float(arr.mean()))},{repr(float(arr.std()))}\n")
    return run_dir


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfedbred",
        description="Personalized federated learning with Bregman-proximal local objectives.")
    parser.add_argument("--config", type=str, default=None, help="JSON config file")
    for key in KEYS:
        flag = key.flag or "--" + key.name.replace("_", "-")
        if key.switch is None:
            parser.add_argument(flag, dest=key.name, type=_FLAG_TYPES.get(key.coerce, str),
                                metavar=key.metavar, help=key.help)
        else:
            parser.add_argument(flag, dest=key.name, action="store_const", const=key.switch,
                                help=key.help)
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    return {key.name: getattr(args, key.name) for key in KEYS
            if getattr(args, key.name) is not None}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = parse_config(args.config, _overrides_from_args(args))
        # failures are raised as errors below; numpy's overflow warnings would
        # only print extra lines before the one error line
        with np.errstate(all="ignore"):
            run_dir = run_experiment(spec)
    except (DivergenceError, DomainError, NumericalError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(run_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
