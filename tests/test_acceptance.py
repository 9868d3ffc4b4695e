"""End-to-end acceptance checks.

Each test prints one visible [PASS]/[FAIL] line for its criterion, then
asserts.  Later criteria run small federated experiments; the whole module
stays well under the fifteen-minute budget of the largest one.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from pfedbred import (MIRROR_MAPS, SQUARED_NORM, Dataset, Dnn, Mclr, Partition,
                      PriorStrategy, RunConfig,
                      bregman_divergence, bregman_prox, envelope_gradient,
                      envelope_value, load_idx, loss_deviation, gce,
                      partition_dirichlet, partition_label_shard, run_fedavg,
                      run_pfedbred, savitzky_golay, synth_gaussian_mixture)
from pfedbred.cli import parse_config, run_experiment
from pfedbred.fl import aggregate

from .helpers import QuadraticLoss, dnn_pre_activations, record_global_models

MNIST_DIR = Path(__file__).resolve().parents[1] / "data" / "mnist"


def report(capsys, number: int, ok: bool, text: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")


def fd_gradcheck(model, params, x, y, n_coords=20, h=1e-5, tol=1e-4):
    analytic = model.grad(params, x, y)
    coords = np.random.default_rng(0).choice(model.num_params, size=n_coords,
                                             replace=False)
    worst = 0.0
    for i in coords:
        e = np.zeros_like(params)
        e[i] = h
        fd = (model.loss(params + e, x, y) - model.loss(params - e, x, y)) / (2 * h)
        worst = max(worst, abs(fd - analytic[i]) / max(abs(analytic[i]), 1e-3))
    return worst <= tol, worst


def test_criterion_1_gradients_match_finite_differences(capsys):
    start = time.perf_counter()
    worst_overall = 0.0
    ok = True
    for scale in (0.01, 1.0, 10.0):
        for model, seed in ((Mclr(6, 4), 13), (Dnn(5, 3, hidden=16), 17)):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(8, model.num_features))
            y = rng.integers(0, model.num_classes, size=8)
            params = scale * rng.normal(size=model.num_params)
            if isinstance(model, Dnn):
                # perturbing one weight by h moves a pre-activation by at
                # most h * |x|; stay clear of the leaky ReLU kink
                assert np.abs(dnn_pre_activations(model, params, x)).min() > 5 * 1e-5 * np.abs(x).max()
            good, worst = fd_gradcheck(model, params, x, y)
            ok = ok and good
            worst_overall = max(worst_overall, worst)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(capsys, 1, ok,
           f"analytic vs central differences, 20 coords x 3 scales x 2 models, "
           f"worst rel err {worst_overall:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_2_prox_oracle_and_envelope_identity(capsys):
    loss = QuadraticLoss([1.0, 0.0])
    rng = np.random.default_rng(0)
    theta = bregman_prox(SQUARED_NORM, 1.0, loss, np.zeros(2), 200, 0.1, rng)
    prox_err = float(np.linalg.norm(theta - np.array([0.5, 0.0])))

    lam = 3.0
    mu = np.array([0.25, 0.5])
    loss2 = QuadraticLoss([1.0, -2.0])

    def prox(m):
        return bregman_prox(SQUARED_NORM, lam, loss2, m, 200, 1.0 / (1.0 + lam), rng)

    def psi(m):
        return envelope_value(SQUARED_NORM, lam, loss2, m, prox(m))

    analytic = envelope_gradient(SQUARED_NORM, lam, mu, prox(mu))
    h = 1e-4
    fd_err = 0.0
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (psi(mu + e) - psi(mu - e)) / (2 * h)
        fd_err = max(fd_err, abs(fd - analytic[i]))

    ok = prox_err <= 1e-6 and fd_err <= 1e-5
    report(capsys, 2, ok,
           f"iterative prox K=200 off closed form by {prox_err:.2e}, "
           f"envelope-gradient FD residual {fd_err:.2e}")
    assert ok


def toy_two_client_problem():
    rng = np.random.default_rng(100)
    means = np.array([[-1.5, 0.0], [1.5, 0.0]])
    labels = np.tile([0, 1], 30)
    features = means[labels] + rng.standard_normal((60, 2))
    ds = Dataset(features=features, labels=labels, num_classes=2)
    part = Partition(train=(np.arange(27), np.arange(30, 57)),
                     test=(np.arange(27, 30), np.arange(57, 60)))
    return ds, part


def test_criterion_3_vanilla_strategy_matches_independent_loop(capsys, monkeypatch):
    """Straight-line reimplementation of the vanilla-prior trajectory.

    Two clients, two feature dimensions, T=3 rounds, R=2 local steps, K=2
    inner steps.  Only the generator stream layout is shared; all model,
    proximal, and aggregation arithmetic below is written from scratch.
    """
    seed, T, R, K = 11, 3, 2, 2
    lam, alpha, alpha_m, beta, batch = 2.0, 0.1, 0.05, 0.7, 10
    ds, part = toy_two_client_problem()
    model = Mclr(2, 2)
    cfg = RunConfig(alpha_m=alpha_m, alpha=alpha, lam=lam, beta=beta, num_rounds=T,
                    local_steps=R, prox_steps=K, sample_size=2, num_clients=2,
                    batch_size=batch, strategy=PriorStrategy(kind="vanilla"),
                    seed=seed, track_deviations=False)
    global_models = record_global_models(monkeypatch)
    history = run_pfedbred(cfg, ds, part, model)

    def softmax_rows(z):
        s = z - z.max(axis=1, keepdims=True)
        e = np.exp(s)
        return e / e.sum(axis=1, keepdims=True)

    def grad(params, x, y):
        n = x.shape[0]
        w, b = params[:4].reshape(2, 2), params[4:]
        probs = softmax_rows(x @ w.T + b)
        probs[np.arange(n), y] -= 1.0
        probs /= n
        return np.concatenate([(probs.T @ x).ravel(), probs.sum(axis=0)])

    # generator stream layout shared with the trainer: (seed, 0) for init,
    # (seed, round, 1) for sampling, (seed, client, round, 2) for local work
    w = np.random.default_rng(np.random.SeedSequence((seed, 0))).uniform(
        -1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0), size=6)
    train = [(ds.features[part.train[i]], ds.labels[part.train[i]]) for i in range(2)]
    thetas = [w.copy(), w.copy()]
    trajectory = []
    for t in range(1, T + 1):
        sample = np.random.default_rng(np.random.SeedSequence((seed, t, 1)))
        sampled = np.sort(sample.choice(2, size=2, replace=False))
        collected = []
        for i in sampled:
            rng = np.random.default_rng(np.random.SeedSequence((seed, int(i), t, 2)))
            x, y = train[i]
            wl = w.copy()
            th = thetas[i]
            for _ in range(R):
                mu = wl.copy()
                th = mu.copy()
                for _ in range(K):
                    idx = rng.choice(len(x), size=batch, replace=False)
                    g = grad(th, x[idx], y[idx]) + lam * (th - mu)
                    th = th - alpha * g
                wl = wl - alpha_m * (lam * (mu - th))
            thetas[i] = th
            collected.append(wl)
        w = (1.0 - beta) * w + beta * np.stack(collected).mean(axis=0)
        trajectory.append(w.copy())

    same_traj = len(global_models) == T and all(
        np.array_equal(a, b) for a, b in zip(global_models, trajectory))
    same_thetas = all(np.array_equal(a, b) for a, b in zip(history.final_thetas, thetas))
    ok = same_traj and same_thetas
    report(capsys, 3, ok,
           f"vanilla trajectory bit-matches independent loop over {T} rounds "
           f"(thetas {'match' if same_thetas else 'differ'})")
    assert ok


def ablation_corpus():
    if all((MNIST_DIR / name).is_file() for name in
           ("train-images-idx3-ubyte", "train-labels-idx1-ubyte")):
        full = load_idx(MNIST_DIR / "train-images-idx3-ubyte",
                        MNIST_DIR / "train-labels-idx1-ubyte")
        # desk scale: 200 per class keeps the twelve runs inside the budget
        keep = np.concatenate([np.flatnonzero(full.labels == c)[:200] for c in range(10)])
        return Dataset(features=full.features[keep], labels=full.labels[keep],
                       num_classes=10)
    return synth_gaussian_mixture(10, 10, 400, 1.0, seed=0)


def ablation_config(strategy, seed):
    return RunConfig(alpha_m=0.02, alpha=0.03, lam=30.0, beta=1.0, num_rounds=100,
                     local_steps=20, prox_steps=8, sample_size=10, num_clients=20,
                     batch_size=20,
                     strategy=PriorStrategy(kind=strategy, eta_alpha=0.05, eta=0.05),
                     seed=seed, track_deviations=False)


def test_criterion_4_ablation_ordering(capsys):
    start = time.perf_counter()
    ds = ablation_corpus()
    seeds = (0, 1, 2)

    def mean_over_seeds(runner, strategy, metric):
        values = []
        for s in seeds:
            part = partition_label_shard(ds, 20, 3, seed=s)
            model = Mclr(ds.num_features, ds.num_classes)
            hist = runner(ablation_config(strategy, s), ds, part, model)
            values.append(getattr(hist.rounds[-1], metric))
        return float(np.mean(values))

    acc = {k: mean_over_seeds(run_pfedbred, k, "personalized_acc_localtest")
           for k in ("mh", "vanilla", "meg")}
    fedavg_acc = mean_over_seeds(run_fedavg, "vanilla", "global_acc_globaltest")
    elapsed = time.perf_counter() - start

    gap = acc["mh"] - fedavg_acc
    ok = (acc["mh"] >= acc["vanilla"] and acc["mh"] >= acc["meg"]
          and gap >= 0.05 and elapsed < 900.0)
    report(capsys, 4, ok,
           f"mh {acc['mh']:.4f} >= vanilla {acc['vanilla']:.4f}, "
           f">= meg {acc['meg']:.4f}; gap over FedAvg {100 * gap:+.2f}pp "
           f"(need >= 5pp); {elapsed:.0f}s")
    assert ok


def test_criterion_5_heterogeneity_trend(capsys):
    ds = synth_gaussian_mixture(10, 10, 500, 1.0, seed=0)

    def mean_acc(alpha):
        values = []
        for s in range(3):
            part = partition_dirichlet(ds, 10, alpha, seed=s, equalize=True)
            model = Mclr(ds.num_features, ds.num_classes)
            cfg = RunConfig(alpha_m=0.05, alpha=0.03, lam=15.0, beta=1.0,
                            num_rounds=300, local_steps=1, prox_steps=8,
                            sample_size=10, num_clients=10, batch_size=20,
                            strategy=PriorStrategy(kind="mh", eta_alpha=0.05, eta=0.05),
                            seed=s, track_deviations=False)
            values.append(run_pfedbred(cfg, ds, part, model)
                          .rounds[-1].personalized_acc_localtest)
        return float(np.mean(values))

    accs = [mean_acc(a) for a in (0.01, 1.0, 100.0)]
    inversions = [b - a for a, b in zip(accs, accs[1:]) if b > a]
    ok = len(inversions) == 0 or (len(inversions) == 1 and inversions[0] <= 0.01)
    report(capsys, 5, ok,
           "personalized accuracy over dirichlet alpha 0.01 / 1 / 100: "
           + " -> ".join(f"{a:.4f}" for a in accs)
           + f" ({len(inversions)} inversion(s))")
    assert ok


def test_criterion_6_gce_values_and_emission(capsys, tmp_path):
    unit_ok = (abs(gce([[1.0, 0.0], [0.0, 1.0]]) - 0.0) <= 1e-9
               and abs(gce([[1.0, 0.0], [1.0, 0.0]]) - 1.0) <= 1e-9
               and abs(gce([[1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)]]) - 0.5) <= 1e-9)

    series = {}
    for strategy in ("mh", "vanilla"):
        spec = parse_config(None, {
            "synth": "6,6,60,1.0", "partition": "label_shard:2", "N": 6, "S": 3,
            "T": 12, "R": 2, "K": 3, "batch": 10, "strategy": strategy,
            "out": str(tmp_path / strategy)})
        run_dir = run_experiment(spec)
        records = [json.loads(line) for line in
                   (run_dir / "repeat_0.jsonl").read_text().splitlines()]
        series[strategy] = [r["gce"] for r in records]

    emitted = all(len(v) == 12 and all(x is None or 0.0 <= x <= 1.0 for x in v)
                  and any(x is not None for x in v) for v in series.values())
    means = {k: np.mean([x for x in v if x is not None]) for k, v in series.items()}
    ok = unit_ok and emitted
    report(capsys, 6, ok,
           f"gce units exact; round series emitted, mean gce mh {means['mh']:.3f} "
           f"vs vanilla {means['vanilla']:.3f} (reported, not asserted)")
    assert ok


def test_criterion_7_thread_count_invariance(capsys, tmp_path, monkeypatch):
    blobs = {}
    for threads in ("1", "4"):
        monkeypatch.setenv("PFB_THREADS", threads)
        spec = parse_config(None, {
            "synth": "6,6,80,1.2", "partition": "label_shard:2", "N": 6, "S": 3,
            "T": 6, "R": 2, "K": 3, "batch": 10,
            "out": str(tmp_path / f"threads-{threads}")})
        run_dir = run_experiment(spec)
        config = json.loads((run_dir / "config.json").read_text())
        config.pop("out")  # the only key the two runs legitimately disagree on
        blobs[threads] = ((run_dir / "repeat_0.jsonl").read_bytes(), config)
    ok = blobs["1"] == blobs["4"]
    report(capsys, 7, ok, "JSON-lines output byte-identical under PFB_THREADS in {1, 4}")
    assert ok


def test_criterion_8_property_suites(capsys):
    rng = np.random.default_rng(0)

    # Bregman nonnegativity and identity across every registered map
    breg_ok = True
    for _ in range(50):
        x = rng.uniform(0.05, 0.95, size=4)
        y = rng.uniform(0.05, 0.95, size=4)
        for mmap in MIRROR_MAPS.values():
            breg_ok = breg_ok and bregman_divergence(mmap, x, y) >= -1e-12
            breg_ok = breg_ok and abs(bregman_divergence(mmap, x, x)) <= 1e-12

    conj_ok = True
    for name in ("squared_norm", "negative_entropy", "logistic"):
        mmap = MIRROR_MAPS[name]
        s = rng.normal(size=5)
        conj_ok = conj_ok and np.linalg.norm(mmap.grad_g(mmap.grad_g_conj(s)) - s) <= 1e-8

    ds = synth_gaussian_mixture(6, 6, 40, 1.0, seed=0)
    part_ok = True
    for maker in (lambda s: partition_label_shard(ds, 8, 2, seed=s),
                  lambda s: partition_dirichlet(ds, 6, 1.0, seed=s)):
        a, b = maker(3), maker(3)
        part_ok = part_ok and all(np.array_equal(x, y) for x, y in zip(a.train, b.train))
        everything = np.concatenate([np.concatenate([tr, te])
                                     for tr, te in zip(a.train, a.test)])
        part_ok = part_ok and np.array_equal(np.sort(everything), np.arange(ds.n))
        part_ok = part_ok and all(np.intersect1d(tr, te).size == 0
                                  for tr, te in zip(a.train, a.test))

    vs = [rng.normal(size=4) for _ in range(5)]
    perm = [vs[i] for i in rng.permutation(5)]
    agg_ok = np.allclose(aggregate(np.zeros(4), vs, 1.0),
                         aggregate(np.zeros(4), perm, 1.0), atol=1e-12)

    losses = rng.normal(size=(4, 3))
    weights = rng.uniform(0.5, 2.0, size=4)
    dev_ok = np.allclose(weights @ loss_deviation(losses, weights), 0.0, atol=1e-9)

    t = np.arange(30, dtype=np.float64)
    poly = 0.2 * t ** 2 - t + 3.0
    sg_ok = np.allclose(savitzky_golay(poly, 7, 2), poly, atol=1e-9)

    ok = breg_ok and conj_ok and part_ok and agg_ok and dev_ok and sg_ok
    report(capsys, 8, ok,
           "bregman nonneg/identity, conjugacy, partition leakage/determinism, "
           "aggregation permutation, deviation zero-sum, savitzky-golay polynomial")
    assert ok
