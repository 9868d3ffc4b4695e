"""The evaluation memo: a memoized Evaluator scores exactly like scoring every model afresh."""

import dataclasses

import numpy as np
import pytest

from pfedbred import (DegenerateInputError, Mclr, PriorStrategy, RoundMetrics, RunConfig,
                      fl, partition_label_shard, run_fedavg, run_perfedavg_fo, run_pfedbred,
                      synth_gaussian_mixture)
from pfedbred.fl import finetune_trick
from pfedbred.metrics import gce, loss_deviation, per_class_stats, stacked_class_stats

ROUNDS = 4
BASE = dict(alpha_m=0.05, alpha=0.05, lam=5.0, num_rounds=ROUNDS, local_steps=2, prox_steps=2,
            batch_size=5, seed=3, strategy=PriorStrategy(kind="mh"), track_deviations=True)

CASES = {
    "pfedbred": (run_pfedbred, dict(num_clients=40, sample_size=4)),
    "pfedbred_ft": (run_pfedbred, dict(num_clients=40, sample_size=4, ft=True)),
    "fedavg": (run_fedavg, dict(num_clients=10, sample_size=3)),
    "perfedavg_fo": (run_perfedavg_fo, dict(num_clients=10, sample_size=3)),
}


def from_scratch(ev, round_index, w, env_grads) -> RoundMetrics:
    """The round's metrics with every theta fine-tuned and scored afresh on every set."""
    thetas = [c.theta if ev.ft_step is None else finetune_trick(c.theta, c.oracle, ev.ft_step)
              for c in ev.clients]
    model, c = ev.model, ev.num_classes
    global_acc = per_class_stats(model, w, ev.global_x, ev.global_y, c)[0]
    local = [per_class_stats(model, th, x, y, c) for th, (x, y) in zip(thetas, ev.tests)]
    accs, losses, per_class, counts = (np.array(column) for column in zip(*local))
    sizes = np.array([x.shape[0] for x, _ in ev.tests], dtype=np.float64)
    weights = sizes / sizes.sum()
    on_global = np.stack([per_class_stats(model, th, ev.global_x, ev.global_y, c)[2]
                          for th in thetas])
    dg = loss_deviation(on_global, np.ones(len(thetas)))
    dl = loss_deviation(per_class, counts)
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
        per_class_deviation_global={k: float(dg[0, k]) for k in range(c)},
        per_class_deviation_local={k: float(dl[0, k]) for k in range(c)},
    )


@pytest.mark.parametrize("name", CASES)
def test_memoized_evaluation_matches_from_scratch(monkeypatch, name):
    runner, overrides = CASES[name]
    cfg = RunConfig(**BASE, **overrides)
    ds = synth_gaussian_mixture(4, 4, 100, 1.0, seed=0)
    part = partition_label_shard(ds, cfg.num_clients, 2, train_fraction=0.8, seed=0)
    model = Mclr(ds.num_features, ds.num_classes)

    # per round: [pooled-set calls, (client, array) pairs scored on local splits, fine-tunes,
    # stacked local-split calls] the evaluator made
    calls = []
    pooled_x = []

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
        return finetune_trick(theta, oracle, step)

    class Checked(fl.Evaluator):
        def compute(self, round_index, w, env_grads=None):
            pooled_x[:] = [self.global_x]
            calls.append([0, 0, 0, 0])
            got = super().compute(round_index, w, env_grads)
            want = from_scratch(self, round_index, w, env_grads)
            assert dataclasses.asdict(got) == dataclasses.asdict(want)
            return got

    monkeypatch.setattr(fl, "per_class_stats", counting_pooled)
    monkeypatch.setattr(fl, "stacked_class_stats", counting_local)
    monkeypatch.setattr(fl, "finetune_trick", counting_finetune)
    monkeypatch.setattr(fl, "Evaluator", Checked)
    runner(cfg, ds, part, model)
    assert len(calls) == ROUNDS
    s, n = cfg.sample_size, cfg.num_clients
    if runner is run_pfedbred:
        # only the sampled clients' thetas and w change after round 1
        assert all(pooled <= s + 1 and local <= s for pooled, local, _, _ in calls[1:])
        # round 1 scores w, the S new thetas and the one initial theta every client shares
        # (with --ft, each client fine-tunes that theta into a model of its own)
        assert calls[0][0] <= (n + 1 if cfg.ft else s + 2)
        assert calls[0][1] == n
        if not cfg.ft:
            # every local split here has one size, so one stacked call scores the shared theta
            assert calls[0][3] <= s + 1
    if cfg.ft:
        # a client's fine-tuned theta changes only when its theta does
        assert calls[0][2] == n
        assert all(finetunes <= s for _, _, finetunes, _ in calls[1:])
    if runner is run_fedavg:
        # every theta is w: one pooled-set evaluation and one stacked local call a round
        assert all(pooled == 1 and local == n and stacked == 1
                   for pooled, local, _, stacked in calls)
