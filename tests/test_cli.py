import ctypes
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pfedbred import ConfigError, cli, fl, save_csv, synth_gaussian_mixture
from pfedbred.cli import build_dataset, main, parse_config, run_experiment

from .helpers import write_idx_images, write_idx_labels

SYNTH = {"synth": "4,4,40,1.5", "partition": "label_shard:2", "N": 4, "S": 2,
         "T": 3, "R": 2, "K": 2, "batch": 5}


def test_defaults_resolve(tmp_path):
    spec = parse_config(None, {"synth": "10,10,100,1.0"})
    assert spec.method == "pfedbred"
    assert spec.strategy == "mh"
    assert spec.model == "mclr"
    assert spec.num_rounds == 100
    assert spec.local_steps == 20
    assert spec.prox_steps == 5
    assert spec.lam == 15.0
    assert spec.beta == 1.0
    assert spec.sample_size == 4  # 20% of N=20
    assert spec.train_fraction == 0.9


def test_am_defaults_beta_to_two():
    spec = parse_config(None, {"synth": "10,10,100,1.0", "am": True})
    assert spec.beta == 2.0
    with pytest.raises(ConfigError, match="beta"):
        parse_config(None, {"synth": "10,10,100,1.0", "am": True, "beta": 1.0})


def test_exactly_one_dataset_source():
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(None, {})
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(None, {"synth": "4,4,10,1.0", "dataset_csv": "x.csv"})


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError, match="learning_rate"):
        parse_config(None, {"synth": "4,4,10,1.0", "learning_rate": 0.1})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": "4,4,10,1.0", "epochs": 3}))
    with pytest.raises(ConfigError, match="epochs"):
        parse_config(cfg)


def test_config_file_must_be_json_object(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        parse_config(arr)


def test_overrides_beat_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": "4,4,10,1.0", "T": 5, "seed": 3}))
    spec = parse_config(cfg, {"T": 7})
    assert spec.num_rounds == 7
    assert spec.seed == 3


def test_resolved_config_round_trips():
    spec = parse_config(None, dict(SYNTH, method="fedavg", seed=9, alpha_m=0.07,
                                   partition="dirichlet:0.3"))
    again = parse_config(None, {k: v for k, v in spec.to_config().items() if v is not None})
    assert again == spec


def test_idx_paths_holding_a_comma_round_trip():
    # the 'IMAGES,LABELS' string form cannot hold such a path; the JSON list form can
    spec = parse_config(None, {"dataset_idx": ["dir,1/img", "lab"]})
    config = json.loads(json.dumps(spec.to_config()))  # as config.json holds it
    assert config["dataset_idx"] == ["dir,1/img", "lab"]
    assert parse_config(None, {k: v for k, v in config.items() if v is not None}) == spec


def test_partition_parse_errors():
    with pytest.raises(ConfigError, match="partition"):
        parse_config(None, {"synth": "4,4,10,1.0", "partition": "label_shard"})
    with pytest.raises(ConfigError, match="alpha"):
        parse_config(None, {"synth": "4,4,10,1.0", "partition": "dirichlet:-1"})
    for alpha in ("inf", "1e400", "nan"):
        with pytest.raises(ConfigError, match=f"'partition' needs a positive, finite dirichlet "
                                              f"alpha, got '{alpha}'"):
            parse_config(None, {"synth": "4,4,10,1.0", "partition": f"dirichlet:{alpha}"})
    with pytest.raises(ConfigError, match="unknown partition"):
        parse_config(None, {"synth": "4,4,10,1.0", "partition": "iid:5"})
    # every message names the key
    for value in ("label_shard:x", "label_shard:0", "dirichlet:abc", "iid:5"):
        with pytest.raises(ConfigError, match="'partition'"):
            parse_config(None, {"synth": "4,4,10,1.0", "partition": value})


def test_synth_parse_errors():
    with pytest.raises(ConfigError, match="synth"):
        parse_config(None, {"synth": "4,4,10"})
    with pytest.raises(ConfigError, match="synth"):
        parse_config(None, {"synth": "4,4,ten,1.0"})


def test_range_checks_name_keys():
    with pytest.raises(ConfigError, match="'S'"):
        parse_config(None, dict(SYNTH, S=0))
    with pytest.raises(ConfigError, match="'T'"):
        parse_config(None, dict(SYNTH, T=0))
    with pytest.raises(ConfigError, match="'lambda'"):
        parse_config(None, dict(SYNTH, **{"lambda": 0.0}))
    with pytest.raises(ConfigError, match="train_fraction"):
        parse_config(None, dict(SYNTH, train_fraction=1.0))
    with pytest.raises(ConfigError, match="'seed'"):
        parse_config(None, dict(SYNTH, seed=-1))
    with pytest.raises(ConfigError, match="'method'"):
        parse_config(None, dict(SYNTH, method="sgd"))


def test_type_checks_name_keys():
    with pytest.raises(ConfigError, match="'T'"):
        parse_config(None, dict(SYNTH, T="many"))
    with pytest.raises(ConfigError, match="'ft'"):
        parse_config(None, dict(SYNTH, ft="yes"))
    with pytest.raises(ConfigError, match="'out' must be a nonempty string"):
        parse_config(None, dict(SYNTH, out=""))


def test_numeric_keys_accept_numpy_scalars():
    # a float key takes any real number but a bool, as an integer key takes any integer
    spec = parse_config(None, dict(SYNTH, T=np.int64(3), **{"lambda": np.int64(30)},
                                   alpha=np.float32(0.5)))
    assert (spec.num_rounds, spec.lam, spec.alpha) == (3, 30.0, 0.5)
    assert type(spec.lam) is float and type(spec.num_rounds) is int
    with pytest.raises(ConfigError, match="'lambda' must be a number"):
        parse_config(None, dict(SYNTH, **{"lambda": np.True_}))
    with pytest.raises(ConfigError, match="'lambda' must be a finite number"):
        parse_config(None, dict(SYNTH, **{"lambda": np.float64("nan")}))


def test_build_dataset_seeded_by_spec():
    a = build_dataset(parse_config(None, dict(SYNTH, seed=1)))
    b = build_dataset(parse_config(None, dict(SYNTH, seed=1)))
    c = build_dataset(parse_config(None, dict(SYNTH, seed=2)))
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


def test_run_experiment_writes_layout(tmp_path):
    spec = parse_config(None, dict(SYNTH, repeats=2, out=str(tmp_path / "runs")))
    run_dir = run_experiment(spec)
    assert run_dir.is_dir()
    assert (run_dir / "config.json").is_file()
    assert json.loads((run_dir / "config.json").read_text())["T"] == 3

    for repeat in range(2):
        lines = (run_dir / f"repeat_{repeat}.jsonl").read_text().splitlines()
        assert len(lines) == 3  # one record per round
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"round", "repeat", "seed", "method", "strategy",
                                   "global_acc", "personalized_acc", "mean_local_loss",
                                   "gce", "dev_global", "dev_local"}
            assert record["repeat"] == repeat
            assert record["seed"] == spec.seed + repeat
        assert json.loads(lines[-1])["round"] == 3

    summary = (run_dir / "summary.csv").read_text().splitlines()
    assert summary[0] == "metric,mean,std"
    names = [row.split(",")[0] for row in summary[1:]]
    assert names[:3] == ["global_acc", "personalized_acc", "mean_local_loss"]


def test_run_experiment_never_overwrites(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.time, "strftime", lambda fmt: "20260101-000000")  # one second
    spec = parse_config(None, dict(SYNTH, T=1, R=1, out=str(tmp_path / "runs")))
    runs = [run_experiment(spec) for _ in range(3)]
    assert [run.name for run in runs] == [
        "run-20260101-000000", "run-20260101-000000-1", "run-20260101-000000-2"]
    assert all(run.is_dir() for run in runs)


def test_repeats_shift_partition_seed(tmp_path):
    spec = parse_config(None, dict(SYNTH, repeats=2, out=str(tmp_path / "runs")))
    run_dir = run_experiment(spec)
    first = [json.loads(x) for x in (run_dir / "repeat_0.jsonl").read_text().splitlines()]
    second = [json.loads(x) for x in (run_dir / "repeat_1.jsonl").read_text().splitlines()]
    assert first[-1]["personalized_acc"] != second[-1]["personalized_acc"] or \
           first[-1]["global_acc"] != second[-1]["global_acc"]


def test_main_success_prints_run_dir(tmp_path, capsys):
    code = main(["--synth", "4,4,40,1.5", "--partition", "label_shard:2",
                 "--N", "4", "--S", "2", "--T", "2", "--R", "1", "--K", "1",
                 "--batch", "5", "--out", str(tmp_path / "runs")])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert (tmp_path / "runs") in list((tmp_path / "runs").parent.iterdir())
    assert out.startswith(str(tmp_path / "runs"))


@pytest.mark.parametrize("source", ["csv-flag", "idx-flag", "idx-config-list"])
def test_main_runs_on_a_file_dataset(tmp_path, capsys, source):
    argv = ["--partition", "label_shard:2", "--N", "4", "--S", "2", "--T", "3", "--R", "2",
            "--K", "2", "--batch", "5", "--out", str(tmp_path / "runs")]
    if source == "csv-flag":
        save_csv(synth_gaussian_mixture(4, 4, 40, 1.5, seed=0), tmp_path / "corpus.csv")
        argv += ["--dataset-csv", str(tmp_path / "corpus.csv")]
    else:  # a gzip pair of 4 classes, 40 images each
        labels = np.repeat(np.arange(4), 40)
        noise = np.random.default_rng(0).integers(0, 64, size=(160, 2, 3))
        images = noise + 48 * labels[:, None, None]
        paths = [str(tmp_path / "images-idx3-ubyte.gz"), str(tmp_path / "labels-idx1-ubyte.gz")]
        write_idx_images(paths[0], images, compress=True)
        write_idx_labels(paths[1], labels, compress=True)
        if source == "idx-flag":
            argv += ["--dataset-idx", ",".join(paths)]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"dataset_idx": paths}))
            argv += ["--config", str(tmp_path / "cfg.json")]
    args = cli.build_parser().parse_args(argv)
    spec = parse_config(args.config, cli._overrides_from_args(args))  # as main resolves it
    assert main(argv) == 0
    run_dir = Path(capsys.readouterr().out.strip())
    assert len((run_dir / "repeat_0.jsonl").read_text().splitlines()) == 3
    assert parse_config(run_dir / "config.json") == spec


def test_main_config_error_is_exit_one(tmp_path, capsys):
    code = main(["--synth", "4,4,40,1.5", "--T", "0", "--out", str(tmp_path / "runs")])
    assert code == 1
    assert "T" in capsys.readouterr().err


def test_main_divergence_is_exit_two(tmp_path, capsys):
    code = main(["--synth", "4,4,40,1.5", "--partition", "label_shard:2",
                 "--N", "4", "--S", "2", "--T", "2", "--R", "2", "--K", "1",
                 "--batch", "5", "--alpha-m", "1e12", "--lambda", "30",
                 "--out", str(tmp_path / "runs")])
    assert code == 2
    assert "exceeded" in capsys.readouterr().err


def test_cli_flags_reach_spec(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(SYNTH, seed=5)))
    from pfedbred.cli import _overrides_from_args, build_parser
    args = build_parser().parse_args(["--config", str(cfg), "--strategy", "meg",
                                      "--lambda", "22.5", "--ft", "--no-deviations"])
    spec = parse_config(args.config, _overrides_from_args(args))
    assert spec.strategy == "meg"
    assert spec.lam == 22.5
    assert spec.ft is True
    assert spec.track_deviations is False
    assert spec.seed == 5


def test_cli_bytes_do_not_depend_on_blas_threads(tmp_path):
    # a 784-feature dnn: large enough that OpenBLAS splits its products over two threads
    src = str(Path(cli.__file__).resolve().parent.parent)
    files = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / threads
        subprocess.run([sys.executable, "-m", "pfedbred.cli", "--synth", "10,784,60,1.0",
                        "--method", "perfedavg_fo", "--model", "dnn", "--N", "10", "--S", "3",
                        "--T", "4", "--R", "3", "--partition", "label_shard:10",
                        "--out", str(out)], env=env, check=True, capture_output=True)
        [run_dir] = out.iterdir()
        files.append((run_dir / "repeat_0.jsonl").read_bytes())
    assert files[0] == files[1]


def test_run_experiment_pins_one_blas_thread_and_restores_the_count(tmp_path, monkeypatch):
    libs = list((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_-*.so"))
    if not libs:
        pytest.skip("numpy does not bundle OpenBLAS here")
    lib = ctypes.CDLL(str(libs[0]))
    get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    previous, seen, aggregate = get(), [], fl.aggregate

    # the runner pins the count, so it is read inside the run, at each aggregation
    def recording(*args):
        seen.append(get())
        return aggregate(*args)

    monkeypatch.setattr(fl, "aggregate", recording)
    set_(2)
    try:
        run_experiment(parse_config(None, dict(SYNTH, repeats=2, out=str(tmp_path))))
        assert seen == [1] * 6 and get() == 2  # 2 repeats of T=3 rounds
    finally:
        set_(previous)


def test_run_experiment_runs_unpinned_without_bundled_openblas(tmp_path, monkeypatch, capsys):
    # a fresh lookup cache, so the missing library is looked up, and reported, once here
    monkeypatch.setattr(fl, "_openblas", functools.cache(fl._openblas.__wrapped__))
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    for out in ("a", "b"):
        run_experiment(parse_config(None, dict(SYNTH, out=str(tmp_path / out))))
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "OpenBLAS was not found" in err
