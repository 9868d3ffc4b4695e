"""The per-client evaluation rows and the pooled-set worker: Evaluator scores exactly like
scoring every model afresh, and the round loop raises and cleans up as the sequential loop
did."""

import dataclasses
import json
import threading
import warnings

import numpy as np
import pytest

from pfedbred import (DegenerateInputError, DivergenceError, Dnn, Mclr, NumericalError,
                      PriorStrategy, RoundMetrics, RunConfig, fl, partition_dirichlet,
                      partition_label_shard, run_fedavg, run_perfedavg_fo, run_pfedbred,
                      synth_gaussian_mixture)
from pfedbred.cli import main
from pfedbred.fl import finetune_trick
from pfedbred.metrics import gce, loss_deviation, per_class_stats, stacked_class_stats
from pfedbred.models import Network

from .helpers import record_global_models

ROUNDS = 4
BASE = dict(alpha_m=0.05, alpha=0.05, lam=5.0, num_rounds=ROUNDS, local_steps=2, prox_steps=2,
            batch_size=5, seed=3, strategy=PriorStrategy(kind="mh"), track_deviations=True)

# mclr on 4 features: a pooled forward far below fl.WORKER_MIN_MULADDS, scored inline.
# dnn on 100 features: 1,200 pooled rows x 10,504 parameters, above it, so the worker runs.
SMALL = dict(classes=4, dims=4, per_class=100)
WIDE = dict(classes=4, dims=100, per_class=1500)


def label_shard(ds, num_clients):
    """Local test splits of one size: 2 rows at N=40, 8 at N=10, 120 for WIDE."""
    return partition_label_shard(ds, num_clients, 2, train_fraction=0.8, seed=0)


def dirichlet(ds, num_clients):
    """Ragged local test splits: 3, 8, 15, 1, 7, 11, 11, 1, 11, 12 rows for SMALL at N=10."""
    return partition_dirichlet(ds, num_clients, 0.5, train_fraction=0.8, seed=0)


CASES = {
    "pfedbred": (run_pfedbred, dict(num_clients=40, sample_size=4), Mclr, SMALL, label_shard),
    "pfedbred_ft": (run_pfedbred, dict(num_clients=40, sample_size=4, ft=True), Mclr, SMALL,
                    label_shard),
    "fedavg": (run_fedavg, dict(num_clients=10, sample_size=3), Mclr, SMALL, label_shard),
    "perfedavg_fo": (run_perfedavg_fo, dict(num_clients=10, sample_size=3), Mclr, SMALL,
                     label_shard),
    "perfedavg_fo_dnn": (run_perfedavg_fo, dict(num_clients=10, sample_size=3), Dnn, WIDE,
                         label_shard),
    "pfedbred_dnn": (run_pfedbred, dict(num_clients=10, sample_size=3), Dnn, WIDE, label_shard),
    "pfedbred_ft_dnn": (run_pfedbred, dict(num_clients=10, sample_size=3, ft=True), Dnn, WIDE,
                        label_shard),
    # several (array, split size) groups per shared array
    "pfedbred_dirichlet": (run_pfedbred, dict(num_clients=10, sample_size=3), Mclr, SMALL,
                           dirichlet),
    "fedavg_dirichlet": (run_fedavg, dict(num_clients=10, sample_size=3), Mclr, SMALL,
                         dirichlet),
    # ablation_mclr's setting: no pooled-set scores of the personalized models
    "pfedbred_no_deviations": (run_pfedbred, dict(num_clients=40, sample_size=4,
                                                  track_deviations=False), Mclr, SMALL,
                               label_shard),
}


def record_forwards(model) -> list:
    """Wrap ``model.logits``; the returned list holds, per call, its parameters, its features
    and whether it ran off the main thread."""
    forwards, logits = [], model.logits

    def recording_logits(params, features):
        forwards.append((params, features,
                         threading.current_thread() is not threading.main_thread()))
        return logits(params, features)

    model.logits = recording_logits
    return forwards


def from_scratch(ev, ds, part, round_index, w, env_grads, thetas) -> RoundMetrics:
    """The round's metrics with every theta fine-tuned and scored afresh on every set.

    Only the settings come from ``ev``: the rows are copied out of ``ds`` by ``part``'s
    indices, and the fine-tune step is written out on them.
    """
    model, c = ev.model, ev.num_classes
    train = [(ds.features[tr], ds.labels[tr]) for tr in part.train]
    tests = [(ds.features[te], ds.labels[te]) for te in part.test]
    pooled_x, pooled_y = (np.concatenate(column) for column in zip(*tests))
    thetas = [th if ev.ft_step is None else th - ev.ft_step * model.grad(th, *xy)
              for th, xy in zip(thetas, train)]
    global_acc = per_class_stats(model, w, pooled_x, pooled_y, c)[0]
    local = [per_class_stats(model, th, x, y, c) for th, (x, y) in zip(thetas, tests)]
    accs, losses, per_class, counts = (np.array(column) for column in zip(*local))
    sizes = np.array([x.shape[0] for x, _ in tests], dtype=np.float64)
    weights = sizes / sizes.sum()
    dev_global, dev_local = {}, {}
    if ev.track_deviations:
        on_global = np.stack([per_class_stats(model, th, pooled_x, pooled_y, c)[2]
                              for th in thetas])
        dg = loss_deviation(on_global, np.ones(len(thetas)))
        dl = loss_deviation(per_class, counts)
        dev_global = {k: float(dg[0, k]) for k in range(c)}
        dev_local = {k: float(dl[0, k]) for k in range(c)}
    try:
        gce_value = gce(env_grads) if len(env_grads) >= 2 else None
    except DegenerateInputError:
        gce_value = None
    return RoundMetrics(
        round=round_index,
        global_acc_globaltest=global_acc,
        personalized_acc_localtest=float(weights @ accs),
        mean_local_loss=float(weights @ losses),
        gce=gce_value,
        per_class_deviation_global=dev_global,
        per_class_deviation_local=dev_local,
    )


@pytest.mark.parametrize("name", CASES)
def test_memoized_evaluation_matches_from_scratch(monkeypatch, name):
    runner, overrides, model_class, data, partition = CASES[name]
    cfg = RunConfig(**{**BASE, **overrides})
    ds = synth_gaussian_mixture(*data.values(), 1.0, seed=0)
    part = partition(ds, cfg.num_clients)
    # an array several clients hold is scored in one stacked call per local split size
    split_sizes = len({te.size for te in part.test})
    assert (split_sizes > 1) == (partition is dirichlet)
    model = model_class(ds.num_features, ds.num_classes)
    wide = data is WIDE
    pooled_rows = sum(te.size for te in part.test)
    assert (pooled_rows * model.num_params >= fl.WORKER_MIN_MULADDS) == wide

    forwards = record_forwards(model)
    attributed = set()  # positions in ``forwards`` of the pooled-set forwards a round counted

    # per round: [per_class_stats calls, (client, array) pairs scored on local splits,
    # fine-tunes, stacked local-split calls, pooled-set forwards] the evaluator made
    calls = []
    pooled_x = []
    finetuned = []  # the models fine-tuned in the current round

    def counting_pooled(model, params, features, labels, num_classes):
        assert features is pooled_x[0]
        calls[-1][0] += 1
        return per_class_stats(model, params, features, labels, num_classes)

    def counting_local(model, params, features, labels, num_classes):
        calls[-1][1] += labels.shape[0]
        calls[-1][3] += 1
        return stacked_class_stats(model, params, features, labels, num_classes)

    def counting_finetune(theta, oracle, step):
        calls[-1][2] += 1
        finetuned.append(finetune_trick(theta, oracle, step))
        return finetuned[-1]

    def count_pooled_forwards(global_x, scored):
        # the worker may run the next round's forwards before or while this round is scored,
        # so a forward counts for the round that scores its array
        for k, (params, features, _) in enumerate(forwards):
            if (k not in attributed and np.may_share_memory(features, global_x)
                    and any(params is s for s in scored)):
                attributed.add(k)
                calls[-1][4] += 1

    class Checked(fl.Evaluator):
        def compute(self, round_index, w, env_grads, thetas):
            # the round loop scores a round after the next one trains, from the round's thetas
            assert thetas is not None
            pooled_x[:] = [self.global_x]
            calls.append([0, 0, 0, 0, 0])
            finetuned.clear()
            got = super().compute(round_index, w, env_grads, thetas)
            count_pooled_forwards(self.global_x, [w, *thetas, *finetuned])
            want = from_scratch(self, ds, part, round_index, w, env_grads, thetas)
            assert dataclasses.asdict(got) == dataclasses.asdict(want)
            return got

    monkeypatch.setattr(fl, "per_class_stats", counting_pooled)
    monkeypatch.setattr(fl, "stacked_class_stats", counting_local)
    monkeypatch.setattr(fl, "finetune_trick", counting_finetune)
    monkeypatch.setattr(fl, "Evaluator", Checked)
    threads = threading.active_count()
    runner(cfg, ds, part, model)
    assert threading.active_count() == threads
    assert len(calls) == ROUNDS
    # the worker runs exactly when one pooled forward is large enough
    assert any(off_main for _, _, off_main in forwards) == wide
    # every pooled-set forward is of an array some round scored
    assert all(k in attributed for k, (_, features, _) in enumerate(forwards)
               if np.may_share_memory(features, pooled_x[0]))
    # w alone goes through per_class_stats; a theta gets its per-class losses only
    assert all(stats == 1 for stats, *_ in calls)
    s, n = cfg.sample_size, cfg.num_clients
    if runner is run_pfedbred:
        # only the sampled clients' thetas and w change after round 1
        assert all(pooled <= s + 1 and local <= s for _, local, _, _, pooled in calls[1:])
        # round 1 scores w, the S new thetas and the one initial theta every client shares
        # (with --ft, each client fine-tunes that theta into a model of its own)
        assert calls[0][4] <= (n + 1 if cfg.ft else s + 2)
        assert calls[0][1] == n
        if not cfg.ft:
            # one stacked call per split size scores the shared theta
            assert calls[0][3] <= s + split_sizes
    if cfg.ft:
        # a client's fine-tuned theta changes only when its theta does
        assert calls[0][2] == n
        assert all(finetunes <= s for _, _, finetunes, _, _ in calls[1:])
    if runner is run_fedavg:
        # every theta is w: one pooled-set forward and one stacked local call per split size
        # a round
        assert all(pooled == 1 and local == n and stacked == split_sizes
                   for _, local, _, stacked, pooled in calls)
    if runner is run_perfedavg_fo:
        # personalization gives every client a new theta each round
        assert all(pooled == n + 1 for *_, pooled in calls)
    if not cfg.track_deviations:
        # only w is forwarded on the pooled set
        assert all(pooled == 1 for *_, pooled in calls)


# a dnn run whose pooled forward, 1,200 rows x 10,504 parameters, goes to the worker
WIDE_RUN = ["--synth", "4,100,600,1.0", "--train-fraction", "0.5", "--model", "dnn",
            "--T", "3", "--N", "4", "--S", "2", "--R", "1", "--K", "1", "--batch", "5"]


@pytest.mark.parametrize("failure, error, message, where", [
    ("forward", "NumericalError", "non-finite values in logits", (None, None, None)),
    ("finetune", "DivergenceError",
     "parameters exceeded 1e+08 at round 1, client 2, personalization", (1, 2, None)),
])
def test_round_error_wins_over_the_next_rounds_training_error(tmp_path, monkeypatch, capsys,
                                                              failure, error, message, where):
    # round 1's evaluation fails, and so does round 2's training, which now runs before round
    # 1 is scored; the sequential loop raised round 1's error, and so must this one
    global_models = record_global_models(monkeypatch)
    raised_on = []
    logits = Network.logits

    def failing_logits(self, params, features):
        if global_models and params is global_models[0] and features.shape[-2] == 1200:
            raised_on.append(threading.current_thread())
            raise NumericalError("non-finite values in logits")
        return logits(self, params, features)

    finetunes = []

    def failing_finetune(theta, oracle, step):
        finetunes.append(theta)
        theta = finetune_trick(theta, oracle, step)
        return theta + 1e9 if len(finetunes) == 3 else theta  # client 2 in round 1

    trained = []
    local_round = fl.local_round

    def failing_local_round(client, w, cfg, mmap, rng, round_index=0):
        trained.append(round_index)
        if round_index == 2:
            raise DivergenceError("injected", round_index=2, client_index=client.index,
                                  step_index=0)
        return local_round(client, w, cfg, mmap, rng, round_index)

    if failure == "forward":
        monkeypatch.setattr(Network, "logits", failing_logits)
    else:
        monkeypatch.setattr(fl, "finetune_trick", failing_finetune)
    monkeypatch.setattr(fl, "local_round", failing_local_round)
    threads = threading.active_count()
    code = main(WIDE_RUN + (["--ft"] if failure == "finetune" else [])
                + ["--out", str(tmp_path / "runs")])
    assert threading.active_count() == threads
    assert code == 2
    assert capsys.readouterr().err == f"error: {error}: {message}\n"
    [run_dir] = (tmp_path / "runs").iterdir()
    status = json.loads((run_dir / "status.json").read_text())
    assert (status["error"], status["message"]) == (error, message)
    assert (status["round"], status["client"], status["step"]) == where
    assert 2 in trained
    if failure == "forward":
        [thread] = raised_on
        assert thread is not threading.main_thread()


def test_worker_forward_keeps_the_callers_numpy_error_state():
    # numpy's error state is per context, and a new thread starts from the default one: a
    # worker that did not carry the caller's would warn where the inline forward is silent
    ds = synth_gaussian_mixture(*WIDE.values(), 1.0, seed=0)
    part = partition_label_shard(ds, 10, 2, train_fraction=0.8, seed=0)
    model = Dnn(ds.num_features, ds.num_classes)
    clients = fl.make_clients(ds, part, model, 5, model.init_params(fl.init_rng(0)))
    forwards = record_forwards(model)
    overflowing = np.full(model.num_params, 1e300)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("error")
        with fl.Evaluator(model, ds, clients) as evaluator:
            evaluator.start_pooled(overflowing)
            with pytest.raises(NumericalError, match="non-finite values in logits"):
                evaluator.compute(1, overflowing, [], [c.theta for c in clients])
    assert [off_main for _, _, off_main in forwards] == [True]
