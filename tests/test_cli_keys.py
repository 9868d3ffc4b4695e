"""Table-driven checks of the config keys, repeats and failure exit codes."""

import json
import os
import struct
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
    "dataset_idx": ["images.idx", "labels.idx"], "dataset_csv": "data.csv", "synth": "3,3,10,0.5",
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

# CLASSES,DIMS,PER_CLASS,SEPARATION values that parse but fall outside their ranges;
# test_cli::test_synth_parse_errors covers the ones that do not parse
SYNTH_OUT_OF_RANGE = {
    "one-class": "1,4,40,1.5", "no-examples": "4,4,0,1.5", "negative-separation": "4,4,40,-0.5",
    "nan-separation": "4,4,40,nan", "inf-separation": "4,4,40,inf",
    "dims-below-classes": "10,5,100,1.0",
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
    flag_value = ",".join(value) if isinstance(value, list) else str(value)
    argv += action.option_strings if action.nargs == 0 else [action.option_strings[0], flag_value]
    spec = parse_config(None, _overrides_from_args(build_parser().parse_args(argv)))
    config = spec.to_config()
    assert config[key.name] == value
    assert parse_config(None, {k: v for k, v in config.items() if v is not None}) == spec


FLOAT_KEYS = sorted(key.name for key in KEYS if key.coerce is cli._as_float)


@pytest.mark.parametrize("name, value", [
    *(pytest.param(name, OUT_OF_RANGE[name], id=name) for name in sorted(OUT_OF_RANGE)),
    *(pytest.param(name, float("inf"), id=f"{name}-inf") for name in FLOAT_KEYS),
    *(pytest.param("synth", value, id=f"synth-{case}") for case, value in SYNTH_OUT_OF_RANGE.items()),
])
def test_out_of_range_value_names_its_key(name, value):
    with pytest.raises(ConfigError, match=f"'{name}'"):
        parse_config(None, dict(BASE, **{name: value}))


@pytest.mark.parametrize("value", [["", "x"], [1, None]], ids=["empty-path", "not-strings"])
def test_dataset_idx_needs_two_nonempty_paths(value):
    # a list is held to the string form's rule, so a bad entry fails here, naming the key
    with pytest.raises(ConfigError, match="'dataset_idx'"):
        parse_config(None, {"dataset_idx": value})


def test_non_finite_json_values_are_config_errors(tmp_path):
    # json.load accepts the non-standard tokens Infinity and NaN, and integers of any size
    for token in ("Infinity", "-Infinity", "NaN", "1" + "0" * 400):
        path = tmp_path / "config.json"
        path.write_text(f'{{"synth": "4,4,30,1.0", "lambda": {token}}}')
        with pytest.raises(ConfigError, match="'lambda' must be a finite number"):
            parse_config(path)


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
    (["--method", "fedavg", "--ft", "--alpha", "1e12"], "DivergenceError"),
])
def test_training_failures_exit_two(tmp_path, capsys, extra, error):
    # pytest captures warnings, so this cannot see numpy's RuntimeWarnings;
    # test_training_failure_prints_only_the_error_line runs the real CLI
    code = main(SMALL_RUN + extra + ["--out", str(tmp_path / "runs")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: ")
    assert err.count("\n") == 1
    # the run directory says the run failed, and where
    [run_dir] = (tmp_path / "runs").iterdir()
    status = json.loads((run_dir / "status.json").read_text())
    assert status["status"] == "failed"
    assert status["error"] == error
    assert err == f"error: {error}: {status['message']}\n"
    assert status["repeat"] == 0
    where = (status["round"], status["client"], status["step"])
    if error == "DivergenceError":
        # both cases diverge in personalization, which has no local step
        assert f"at round {where[0]}, client {where[1]}, personalization" in status["message"]
        assert where[2] is None
    else:
        assert where == (None, None, None)


def run_python(args):
    """Run a fresh interpreter that imports pfedbred from this source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_training_failure_prints_only_the_error_line(tmp_path):
    # this run overflows in Dnn.logits before it fails
    proc = run_python(["-m", "pfedbred.cli", *SMALL_RUN, "--model", "dnn", "--method",
                       "perfedavg_fo", "--alpha", "1e200", "--out", str(tmp_path / "runs")])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: NumericalError: ")
    assert proc.stderr.count("\n") == 1


def test_runs_and_smooths_without_scipy(tmp_path):
    # a None entry in sys.modules makes every import of scipy raise ImportError
    argv = SMALL_RUN + ["--out", str(tmp_path / "runs")]
    proc = run_python(["-c", f"""
import sys
sys.modules["scipy"] = None
import numpy as np
from pfedbred import savitzky_golay
from pfedbred.cli import main
code = main({argv!r})
print(savitzky_golay(np.arange(9.0), 5, 2).tolist())
sys.exit(code)
"""])
    assert proc.returncode == 0, proc.stderr
    [run_dir] = (tmp_path / "runs").iterdir()
    assert (run_dir / "repeat_0.jsonl").read_text().count("\n") == 2
    assert json.loads(proc.stdout.splitlines()[-1]) == pytest.approx(list(range(9)))


def test_cli_run_does_not_import_numpy_ma(tmp_path):
    # numpy's set routines (np.unique, np.intersect1d) import numpy.ma, about 17 ms, on first use
    argv = SMALL_RUN + ["--out", str(tmp_path / "runs")]
    proc = run_python(["-c", f"""
import sys
from pfedbred.cli import main
code = main({argv!r})
print("numpy.ma" in sys.modules)
sys.exit(code)
"""])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("extra", [
    (["--T", "many"], "ConfigError"),
    (["--alpha", "big"], "ConfigError"),
    (["--T"], "ConfigError"),
    (["--bogus"], "ConfigError"),
    (["--partition", "label_shard:9"], "PartitionError"),  # 9 classes per client, 4 in total
    (["--lambda", "inf"], "ConfigError"),
    # one example a client, which leaves it no test split
    (["--synth", "2,2,1,1.0", "--N", "2", "--S", "1", "--partition", "label_shard:1"],
     "PartitionError", "client 0 "),
])
def test_malformed_flags_exit_one(tmp_path, capsys, extra):
    # exit 2 is kept for failed training runs; a config error leaves no run directory
    argv, error, *named = extra
    code = main(SMALL_RUN + argv + ["--out", str(tmp_path / "runs")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: ")
    assert err.count("\n") == 1
    assert all(part in err for part in named)
    assert not (tmp_path / "runs").exists()


def test_a_dirichlet_client_of_one_example_is_redrawn(tmp_path):
    # seed 1's first allocation gives client 1 one example, which left it no test split
    argv = ["--synth", "4,4,5,1.0", "--partition", "dirichlet:0.5", "--N", "4", "--S", "2",
            "--T", "2", "--seed", "1", "--out", str(tmp_path / "runs")]
    assert main(argv) == 0
    spec = parse_config(None, _overrides_from_args(build_parser().parse_args(argv)))
    partition = cli.build_partition(spec, cli.build_dataset(spec), spec.seed)
    assert partition.client_sizes().tolist() == [7, 6, 3, 4]


NO_MODEL = "ValueError: need num_features >= 1, num_classes >= 2, hidden >= 1"


@pytest.mark.parametrize("name, content, error", [
    ("data.csv", b"label,f0\n" + b"0,0.5\n" * 20, NO_MODEL),
    ("data.csv", b"label\n" + b"0\n1\n" * 10, NO_MODEL),
    ("data.csv", b"label,f0\n", "ValueError: {path}: no data rows"),
    ("images", struct.pack(">4I", 0x00000803, 65536, 65536, 65536) + bytes(100),
     "IdxFormatError: {path}: truncated payload at byte offset 16: wanted 281474976710656 "
     "bytes, got 100"),
], ids=["one-class", "no-features", "no-rows", "idx-claims-2**48"])
def test_a_file_no_model_can_run_on_exits_one(tmp_path, name, content, error):
    # the real CLI, whose stderr shows warnings and tracebacks: one error line, and no run
    # directory, since the dataset, the model and the partitions come before it
    path = tmp_path / name
    path.write_bytes(content)
    source = (["--dataset-csv", str(path)] if name.endswith(".csv")
              else ["--dataset-idx", f"{path},{tmp_path / 'labels'}"])
    proc = run_python(["-m", "pfedbred.cli", *source, "--partition", "label_shard:1", "--N", "4",
                       "--S", "2", "--T", "2", "--out", str(tmp_path / "runs")])
    assert proc.returncode == 1
    assert proc.stderr == f"error: {error.format(path=path)}\n"
    assert not (tmp_path / "runs").exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "--synth" in capsys.readouterr().out
