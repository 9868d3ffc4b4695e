"""Table-driven checks of the config keys, repeats and failure exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from pfedbred import ConfigError
from pfedbred import cli
from pfedbred.cli import KEYS, _overrides_from_args, build_parser, main, parse_config, run_experiment

BASE = {"synth": "4,4,40,1.5", "partition": "label_shard:2", "N": 4, "S": 2,
        "T": 3, "R": 2, "K": 2, "batch": 5}

FLAGS = {"-h", "--help", "--config", "--dataset-idx", "--dataset-csv", "--synth", "--partition",
         "--method", "--strategy", "--model", "--T", "--R", "--K", "--S", "--N", "--lambda",
         "--alpha-m", "--alpha", "--eta", "--eta-alpha", "--beta", "--batch", "--seed",
         "--repeats", "--ft", "--am", "--no-deviations", "--train-fraction", "--out"}

# a value other than the default for every key, as to_config writes it
SAMPLES = {
    "dataset_idx": "images.idx,labels.idx", "dataset_csv": "data.csv", "synth": "3,2,10,0.5",
    "partition": "dirichlet:0.3", "method": "fedavg", "strategy": "lg", "model": "dnn",
    "T": 7, "R": 3, "K": 4, "S": 3, "N": 9, "lambda": 2.5, "alpha_m": 0.2, "alpha": 0.3,
    "eta": 0.4, "eta_alpha": 0.5, "beta": 1.5, "batch": 7, "seed": 11, "repeats": 2,
    "ft": True, "am": True, "train_fraction": 0.8, "track_deviations": False, "out": "elsewhere",
}

OUT_OF_RANGE = {
    "T": 0, "R": 0, "K": 0, "N": 0, "S": 0, "lambda": 0.0, "alpha_m": -0.1, "alpha": 0.0,
    "eta": -1.0, "eta_alpha": -1.0, "beta": 0.0, "batch": 0, "seed": -1, "repeats": 0,
    "train_fraction": 1.0,
}

SMALL_RUN = ["--synth", "4,4,30,1.0", "--partition", "label_shard:2", "--T", "2", "--N", "4",
             "--S", "2", "--R", "2", "--K", "2"]


def flag_of(key):
    return next(a for a in build_parser()._actions if a.dest == key.name)


def test_flag_spellings_are_stable():
    assert {s for a in build_parser()._actions for s in a.option_strings} == FLAGS
    assert set(SAMPLES) == {key.name for key in KEYS}


@pytest.mark.parametrize("key", KEYS, ids=lambda key: key.name)
def test_every_key_has_a_flag(key):
    assert flag_of(key).option_strings


@pytest.mark.parametrize("key", KEYS, ids=lambda key: key.name)
def test_flag_round_trips_through_the_config(key):
    value = SAMPLES[key.name]
    argv = [] if key.name in ("dataset_idx", "dataset_csv") else ["--synth", "4,4,40,1.5"]
    action = flag_of(key)
    argv += action.option_strings if action.nargs == 0 else [action.option_strings[0], str(value)]
    spec = parse_config(None, _overrides_from_args(build_parser().parse_args(argv)))
    config = spec.to_config()
    assert config[key.name] == value
    assert parse_config(None, {k: v for k, v in config.items() if v is not None}) == spec


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_out_of_range_value_names_its_key(name):
    with pytest.raises(ConfigError, match=f"'{name}'"):
        parse_config(None, dict(BASE, **{name: OUT_OF_RANGE[name]}))


def test_repeats_do_not_depend_on_pfb_threads(tmp_path, monkeypatch):
    outputs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("PFB_THREADS", threads)
        run_dir = run_experiment(parse_config(None, dict(BASE, repeats=2,
                                                         out=str(tmp_path / threads))))
        outputs[threads] = [(run_dir / name).read_bytes()
                            for name in ("repeat_0.jsonl", "repeat_1.jsonl", "summary.csv")]
    assert outputs["1"] == outputs["2"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("extra, error", [
    (["--alpha", "1e300"], "DomainError"),
    (["--model", "dnn", "--method", "perfedavg_fo", "--alpha", "1e200"], "NumericalError"),
    (["--method", "perfedavg_fo", "--alpha", "1e307"], "DivergenceError"),
])
def test_training_failures_exit_two(tmp_path, capsys, extra, error):
    # pytest captures warnings, so this cannot see numpy's RuntimeWarnings;
    # test_training_failure_prints_only_the_error_line runs the real CLI
    code = main(SMALL_RUN + extra + ["--out", str(tmp_path / "runs")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: ")
    assert err.count("\n") == 1


def test_training_failure_prints_only_the_error_line(tmp_path):
    # this run overflows in Dnn.logits before it fails
    src = str(Path(cli.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-m", "pfedbred.cli", *SMALL_RUN, "--model", "dnn", "--method",
         "perfedavg_fo", "--alpha", "1e200", "--out", str(tmp_path / "runs")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: NumericalError: ")
    assert proc.stderr.count("\n") == 1
