import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pfedbred import (ConfigError, DivergenceError, Dnn, Mclr, Partition, PriorStrategy,
                      RunConfig, SQUARED_NORM, fl, partition_dirichlet, run_fedavg,
                      run_pfedbred, run_perfedavg_fo)
from pfedbred.fl import (DIVERGENCE_LIMIT, ClientState, _check_bounded, aggregate, client_rng,
                         compute_prior_mean, fedavg_local_round, finetune_trick, init_rng,
                         local_round, make_clients, perfedavg_local_round, sample_clients)
from pfedbred.models import LossOracle, cross_entropy_and_softmax

from .helpers import QuadraticLoss, even_partition, record_global_models, two_blob_dataset


def quadratic_client(a, w0, index=0):
    return ClientState(index=index, oracle=QuadraticLoss(a), test_rows=np.arange(1),
                       theta=w0.copy(), memorized_local=w0.copy())


def exact_prox_config(lam, **kwargs):
    # one inner step at 1/(1+lam) solves the quadratic subproblem exactly
    defaults = dict(alpha_m=0.1, alpha=1.0 / (1.0 + lam), lam=lam, num_rounds=1,
                    local_steps=1, prox_steps=1, sample_size=1, num_clients=1,
                    batch_size=1, strategy=PriorStrategy(kind="vanilla"), seed=0)
    defaults.update(kwargs)
    return RunConfig(**defaults)


def test_sample_clients_sorted_unique_deterministic():
    s1 = sample_clients(3, 7, 20, 5)
    s2 = sample_clients(3, 7, 20, 5)
    s3 = sample_clients(3, 8, 20, 5)
    assert np.array_equal(s1, s2)
    assert not np.array_equal(s1, s3)
    assert np.array_equal(s1, np.sort(s1))
    assert len(np.unique(s1)) == 5
    assert np.array_equal(np.sort(sample_clients(0, 1, 6, 6)), np.arange(6))


def test_rng_streams_are_disjoint():
    a = client_rng(0, 1, 2).integers(0, 1 << 30, size=4)
    b = client_rng(0, 2, 1).integers(0, 1 << 30, size=4)
    c = init_rng(0).integers(0, 1 << 30, size=4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_prior_strategy_lookahead_defaults():
    s = PriorStrategy(kind="mh_variant", eta_alpha=0.02, eta=0.05)
    assert s.eta_tilde_alpha == pytest.approx(0.02 / 0.05)
    assert s.eta_tilde == pytest.approx(0.02)
    zero = PriorStrategy(kind="mh_variant", eta_alpha=0.02, eta=0.0)
    assert zero.eta_tilde_alpha == 0.0


def test_prior_strategy_validation():
    with pytest.raises(ConfigError, match="unknown strategy"):
        PriorStrategy(kind="boosted")
    with pytest.raises(ConfigError):
        PriorStrategy(kind="lg", eta_alpha=-0.1)
    with pytest.raises(ConfigError):
        PriorStrategy(kind="mh_variant", eta_tilde=-1.0)


@pytest.mark.parametrize("name", ["eta_tilde_alpha", "eta_tilde"])
def test_prior_strategy_rejects_nan_lookahead(name):
    with pytest.raises(ConfigError, match=rf"\({name}\) must be nonnegative, got nan"):
        PriorStrategy(kind="mh_variant", **{name: float("nan")})


def prior_mean(strategy, a, w, mem=None, theta=None):
    # QuadraticLoss's gradient at w is w - a and its batch draws consume nothing
    return compute_prior_mean(strategy, QuadraticLoss(a), w, mem, theta,
                              np.random.default_rng(0))


def test_prior_mean_lg_example():
    s = PriorStrategy(kind="lg", eta_alpha=0.01)
    mu = prior_mean(s, np.array([0.8, 1.2]), np.array([1.0, 1.0]))  # gradient [0.2, -0.2]
    assert np.allclose(mu, [0.998, 1.002])


def test_prior_mean_zero_steps_returns_w_for_every_kind():
    w = np.array([0.3, -0.7, 2.0])
    a = np.array([-0.7, -1.7, 1.0])
    mem = np.array([0.5, 0.5, 0.5])
    theta = np.array([-0.5, 0.0, 0.5])
    for kind in ("vanilla", "lg", "meg", "mh", "mh_variant"):
        s = PriorStrategy(kind=kind, eta_alpha=0.0, eta=0.0)
        assert np.array_equal(prior_mean(s, a, w, mem, theta), w)


def test_prior_mean_mh_composes_lg_and_meg_shifts():
    rng = np.random.default_rng(8)
    w, a, mem, theta = rng.normal(size=(4, 6))
    ea, e = 0.03, 0.07
    mh = prior_mean(PriorStrategy(kind="mh", eta_alpha=ea, eta=e), a, w, mem, theta)
    lg = prior_mean(PriorStrategy(kind="lg", eta_alpha=ea), a, w)
    assert np.array_equal(mh, lg - e * (mem - theta))
    assert np.array_equal(lg, w - ea * (w - a))
    meg_like = prior_mean(PriorStrategy(kind="mh", eta_alpha=0.0, eta=e), a, w, mem, theta)
    meg = prior_mean(PriorStrategy(kind="meg", eta=e), a, w, mem, theta)
    assert np.array_equal(meg_like, meg)
    s = PriorStrategy(kind="mh_variant", eta_alpha=ea, eta=e)
    ahead = w - s.eta_tilde * (w - a)
    assert np.array_equal(prior_mean(s, a, w, mem, theta),
                          w - (e * s.eta_tilde_alpha) * (ahead - a) - e * (mem - theta))


def test_local_round_matches_closed_form_single_step():
    lam = 4.0
    a = np.array([1.0, -2.0])
    w0 = np.array([3.0, 0.5])
    cfg = exact_prox_config(lam)
    client = quadratic_client(a, w0)
    w_local, env = local_round(client, w0, cfg, SQUARED_NORM, np.random.default_rng(0))
    expected = w0 - cfg.alpha_m * lam / (1.0 + lam) * (w0 - a)
    assert np.allclose(w_local, expected, atol=1e-12)
    assert np.array_equal(env, lam * (w0 - client.theta))
    # prox pulled theta toward a
    assert np.allclose(client.theta, (lam * w0 + a) / (1.0 + lam), atol=1e-12)


def test_local_round_contracts_geometrically():
    lam = 2.0
    a = np.array([0.5, 0.5, -1.0])
    w0 = np.array([2.0, -1.0, 0.0])
    steps = 6
    cfg = exact_prox_config(lam, alpha_m=0.3, local_steps=steps)
    client = quadratic_client(a, w0)
    w_local, env = local_round(client, w0, cfg, SQUARED_NORM, np.random.default_rng(0))
    rho = 1.0 - cfg.alpha_m * lam / (1.0 + lam)
    assert np.allclose(w_local - a, rho ** steps * (w0 - a), atol=1e-12)
    # the returned envelope gradient is the last step's, taken at vanilla mu = w
    before, _ = local_round(quadratic_client(a, w0), w0,
                            exact_prox_config(lam, alpha_m=0.3, local_steps=steps - 1),
                            SQUARED_NORM, np.random.default_rng(0))
    assert np.array_equal(env, lam * (before - client.theta))


def test_local_round_zero_alpha_m_keeps_w_but_updates_theta():
    cfg = exact_prox_config(3.0, alpha_m=0.0)
    w0 = np.array([1.0, 1.0])
    client = quadratic_client(np.zeros(2), w0)
    w_local, _ = local_round(client, w0, cfg, SQUARED_NORM, np.random.default_rng(0))
    assert np.array_equal(w_local, w0)
    assert not np.array_equal(client.theta, w0)


def test_local_round_updates_memorized_at_round_end():
    cfg = exact_prox_config(2.0, alpha_m=0.2, local_steps=3)
    w0 = np.array([1.5, -0.5])
    client = quadratic_client(np.zeros(2), w0)
    w_local, _ = local_round(client, w0, cfg, SQUARED_NORM, np.random.default_rng(0))
    assert np.array_equal(client.memorized_local, w_local)


def test_local_round_meg_reads_memorized_snapshot():
    # all local steps must use the memorized model from the previous round,
    # not the evolving w; replicate the arithmetic with a frozen snapshot
    lam, eta = 2.0, 0.3
    a = np.array([1.0, 0.0])
    w0 = np.array([0.0, 1.0])
    mem0 = np.array([2.0, 2.0])
    theta0 = np.array([-1.0, 0.5])
    cfg = exact_prox_config(lam, alpha_m=0.25, local_steps=3,
                            strategy=PriorStrategy(kind="meg", eta=eta))
    client = quadratic_client(a, w0)
    client.memorized_local = mem0.copy()
    client.theta = theta0.copy()
    w_local, _ = local_round(client, w0, cfg, SQUARED_NORM, np.random.default_rng(0))

    w, theta = w0.copy(), theta0.copy()
    step = 1.0 / (1.0 + lam)
    for _ in range(3):
        mu = w - eta * (mem0 - theta)  # snapshot, never the running w
        theta = mu - step * ((mu - a) + lam * (mu - mu))
        env = lam * (mu - theta)
        w = w - cfg.alpha_m * env
    assert np.array_equal(w_local, w)
    assert np.array_equal(client.theta, theta)


def test_local_round_mh_variant_reuses_strategy_batch():
    # with a batch as large as the client's data both gradient evaluations
    # fall on the same full batch, and the local step is fully deterministic
    ds = two_blob_dataset(n_per_class=8, seed=3)
    part = even_partition(ds, 1)
    model = Mclr(ds.num_features, 2)
    w0 = model.init_params(init_rng(0))
    clients = make_clients(ds, part, model, batch_size=100, w0=w0)
    s = PriorStrategy(kind="mh_variant", eta_alpha=0.01, eta=0.05)
    cfg = RunConfig(alpha_m=0.05, alpha=0.02, lam=5.0, num_rounds=1, local_steps=1,
                    prox_steps=2, sample_size=1, num_clients=1, batch_size=100,
                    strategy=s, seed=0)
    w_local, _ = local_round(clients[0], w0, cfg, SQUARED_NORM, np.random.default_rng(9))

    oracle = clients[0].oracle
    g_w = oracle.gradient(w0, None)
    shifted = w0 - s.eta_tilde * g_w
    g_shift = oracle.gradient(shifted, None)
    mu = w0 - (s.eta * s.eta_tilde_alpha) * g_shift - s.eta * (w0 - w0)
    theta = mu.copy()
    for _ in range(2):
        theta = theta - cfg.alpha * (oracle.gradient(theta, None) + cfg.lam * (theta - mu))
    expected_w = w0 - cfg.alpha_m * (cfg.lam * (mu - theta))
    assert np.array_equal(w_local, expected_w)


@pytest.mark.parametrize("kind", ["vanilla", "lg", "meg", "mh", "mh_variant"])
def test_local_round_minibatch_stream_matches_written_out_loop(kind):
    # a batch smaller than the train split consumes the generator; per local step the
    # order is one strategy batch for a gradient-shift kind (reused by mh_variant's
    # lookahead), then one per inner step
    ds = two_blob_dataset(n_per_class=8, seed=5)
    part = even_partition(ds, 1)
    model = Mclr(ds.num_features, 2)
    x, y = ds.features[part.train[0]], ds.labels[part.train[0]]
    n, batch = x.shape[0], 4
    assert batch < n
    w0 = model.init_params(init_rng(0))
    start = np.random.default_rng(1)
    mem0 = w0 + 0.1 * start.normal(size=w0.size)
    theta0 = w0 - 0.1 * start.normal(size=w0.size)
    s = PriorStrategy(kind=kind, eta_alpha=0.02, eta=0.05)
    cfg = RunConfig(alpha_m=0.05, alpha=0.02, lam=5.0, num_rounds=1, local_steps=3,
                    prox_steps=2, sample_size=1, num_clients=1, batch_size=batch,
                    strategy=s, seed=0)
    client = make_clients(ds, part, model, batch, w0)[0]
    client.memorized_local, client.theta = mem0, theta0
    rng = np.random.default_rng(9)
    w_local, env = local_round(client, w0, cfg, SQUARED_NORM, rng)

    ref_rng = np.random.default_rng(9)
    w, theta = w0, theta0
    for _ in range(cfg.local_steps):
        if kind in ("lg", "mh", "mh_variant"):
            idx = ref_rng.choice(n, batch, replace=False)
            g_w = model.grad(w, x[idx], y[idx])
        if kind == "vanilla":
            mu = w
        elif kind == "lg":
            mu = w - s.eta_alpha * g_w
        elif kind == "meg":
            mu = w - s.eta * (mem0 - theta)
        elif kind == "mh":
            mu = w - s.eta_alpha * g_w - s.eta * (mem0 - theta)
        else:
            g_shift = model.grad(w - s.eta_tilde * g_w, x[idx], y[idx])
            mu = w - (s.eta * s.eta_tilde_alpha) * g_shift - s.eta * (mem0 - theta)
        theta = mu
        for _ in range(cfg.prox_steps):
            idx = ref_rng.choice(n, batch, replace=False)
            theta = theta - cfg.alpha * (model.grad(theta, x[idx], y[idx])
                                         + cfg.lam * (theta - mu))
        w = w - cfg.alpha_m * (cfg.lam * (mu - theta))
    assert np.array_equal(w_local, w)
    assert np.array_equal(env, cfg.lam * (mu - theta))
    assert np.array_equal(client.theta, theta)
    assert np.array_equal(client.memorized_local, w)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.0 * DIVERGENCE_LIMIT])
def test_check_bounded_rejects_nonfinite_and_huge(bad):
    _check_bounded(np.array([0.0, -DIVERGENCE_LIMIT, DIVERGENCE_LIMIT]), 1, 0, 0)
    with pytest.raises(DivergenceError, match="round 3, client 2, local step 4"):
        _check_bounded(np.array([0.0, bad]), 3, 2, 4)


def quadratic_fixed_point_problem(lam=15.0, dim=4):
    """Three clients f_i(p) = 0.5 (p - c_i)^T A_i (p - c_i), A_i = QQ^T / 4 + 0.5 I (seed 0).

    Returns the centers, the Hessians, their envelope Hessians M_i = (A_i^-1 + I / lam)^-1,
    and the prox step alpha = 1 / (lam + max eig A_i): the inner contraction is then at most
    1 - (lam + 0.5) / (lam + max eig A_i), so K = 20 steps solve the prox to rounding.
    """
    rng = np.random.default_rng(0)
    centers, hessians = [], []
    for _ in range(3):
        q = rng.normal(size=(dim, dim))
        centers.append(rng.normal(size=dim))
        hessians.append(q @ q.T / 4 + 0.5 * np.eye(dim))
    envelopes = [np.linalg.inv(np.linalg.inv(a) + np.eye(dim) / lam) for a in hessians]
    alpha = 1.0 / (lam + max(np.linalg.eigvalsh(a).max() for a in hessians))
    return centers, hessians, envelopes, alpha


def run_quadratic_clients(cfg, centers, hessians):
    """``cfg.num_rounds`` rounds of ``fl.local_round`` and ``fl.aggregate`` over every client."""
    cfg.validate()
    w = np.zeros(len(centers[0]))
    clients = [ClientState(index=i, oracle=QuadraticLoss(c, a), test_rows=np.arange(1),
                           theta=w, memorized_local=w)
               for i, (c, a) in enumerate(zip(centers, hessians))]
    for t in range(1, cfg.num_rounds + 1):
        w = aggregate(w, [local_round(c, w, cfg, SQUARED_NORM, client_rng(0, c.index, t), t)[0]
                          for c in clients], cfg.beta)
    return w, clients


@pytest.mark.parametrize("kind", ["vanilla", "lg"])
def test_strategy_reaches_its_closed_form_fixed_point(kind):
    # the exact prox gives the envelope gradient lam (mu - theta) = M_i (mu - c_i), so the
    # server stops where sum_i M_i (mu_i(w) - c_i) = 0: for vanilla mu_i(w) = w, the minimizer
    # of the summed Moreau envelopes (pFedMe's outer objective); for lg mu_i(w) = w - eta_alpha
    # A_i (w - c_i), taken as a constant in the local step, without mu's Jacobian
    lam, eta_alpha = 15.0, 0.05
    centers, hessians, envelopes, alpha = quadratic_fixed_point_problem(lam)
    cfg = RunConfig(
        alpha=alpha, prox_steps=20, lam=lam, beta=1.0,
        alpha_m=1.0 / np.linalg.eigvalsh(np.mean(envelopes, axis=0)).max(),
        local_steps=1, sample_size=3, num_clients=3, num_rounds=400,
        strategy=PriorStrategy(kind=kind, eta_alpha=eta_alpha))
    w, _ = run_quadratic_clients(cfg, centers, hessians)
    # mu_i(w) - c_i = shift_i (w - c_i)
    shifts = [np.eye(len(w)) - (kind == "lg") * eta_alpha * a for a in hessians]
    fixed_point = np.linalg.solve(sum(m @ s for m, s in zip(envelopes, shifts)),
                                  sum(m @ s @ c for m, s, c in zip(envelopes, shifts, centers)))
    assert np.abs(w - fixed_point).max() < 1e-12


@pytest.mark.parametrize("kind, prox_steps, beta", [
    ("meg", 20, 1.0), ("mh", 20, 1.0), ("mh_variant", 20, 1.0),
    ("mh", 20, 2.0),  # aggregation momentum
    ("vanilla", 2, 1.0),  # the inexact solver's own point, 5e-3 from the exact prox's
])
def test_strategy_reaches_the_fixed_point_of_its_round_map(kind, prox_steps, beta):
    # one round (R = 1, every client sampled) is an affine map of the state (w, theta_i,
    # memorized_i), written out here from the strategy table: mu_i, then theta_i from mu_i,
    # w_i = w - alpha_m lam (mu_i - theta_i), memorized_i = w_i, and the server step
    # w <- (1 - beta) w + beta mean_i w_i.  Its fixed point is the engine's limit; a memory
    # shift makes that point depend on alpha_m
    lam, dim = 15.0, 4
    centers, hessians, envelopes, alpha = quadratic_fixed_point_problem(lam, dim)
    strategy = PriorStrategy(kind=kind, eta_alpha=0.05, eta=0.05)
    cfg = RunConfig(
        alpha=alpha, prox_steps=prox_steps, lam=lam, beta=beta,
        alpha_m=1.0 / (beta * np.linalg.eigvalsh(np.mean(envelopes, axis=0)).max()),
        local_steps=1, sample_size=3, num_clients=3, num_rounds=400, strategy=strategy)
    eye = np.eye(dim)

    def prox(a, c, mu):
        if prox_steps == 2:  # two gradient steps from mu: G^2 mu + alpha (I + G)(A c + lam mu)
            g = eye - alpha * (a + lam * eye)
            return g @ g @ mu + alpha * (eye + g) @ (a @ c + lam * mu)
        return np.linalg.solve(a + lam * eye, a @ c + lam * mu)  # the exact prox

    def one_round(state):
        w, thetas, memorized = state[:dim], state[dim:4 * dim], state[4 * dim:]
        local_models, new_thetas = [], []
        for i, (a, c) in enumerate(zip(hessians, centers)):
            theta, mem = thetas[i * dim:(i + 1) * dim], memorized[i * dim:(i + 1) * dim]
            mu = w
            if kind == "mh":
                mu = w - strategy.eta_alpha * a @ (w - c)
            elif kind == "mh_variant":
                lookahead = w - strategy.eta_tilde * a @ (w - c)
                mu = w - strategy.eta * strategy.eta_tilde_alpha * a @ (lookahead - c)
            if kind in ("meg", "mh", "mh_variant"):
                mu = mu - strategy.eta * (mem - theta)
            new_thetas.append(prox(a, c, mu))
            local_models.append(w - cfg.alpha_m * lam * (mu - new_thetas[-1]))
        w = (1.0 - beta) * w + beta * np.mean(local_models, axis=0)
        return np.concatenate([w, *new_thetas, *local_models])

    offset = one_round(np.zeros(7 * dim))
    linear = np.column_stack([one_round(e) - offset for e in np.eye(7 * dim)])
    assert np.abs(np.linalg.eigvals(linear)).max() < 0.9
    fixed_point = np.linalg.solve(np.eye(7 * dim) - linear, offset)
    w, clients = run_quadratic_clients(cfg, centers, hessians)
    state = np.concatenate([w, *(c.theta for c in clients), *(c.memorized_local for c in clients)])
    assert np.abs(state - fixed_point).max() < 1e-12


def test_aggregate_examples():
    assert np.allclose(aggregate(np.zeros(2), [np.array([1.0, 1.0]), np.array([3.0, 3.0])],
                                 beta=1.0), [2.0, 2.0])
    assert np.allclose(aggregate(np.zeros(2), [np.array([1.0, 1.0])], beta=2.0), [2.0, 2.0])
    w_old = np.array([5.0, -1.0])
    assert np.array_equal(aggregate(w_old, [np.array([9.0, 9.0])], beta=0.0), w_old)


def test_aggregate_permutation_invariant():
    vs = [np.array([1.0, 2.0]), np.array([3.0, 5.0]), np.array([-2.0, 7.0])]
    w_old = np.array([0.5, 0.5])
    front = aggregate(w_old, vs, beta=1.0)
    back = aggregate(w_old, vs[::-1], beta=1.0)
    assert np.array_equal(front, back)  # exact: integer-valued sums commute

    rng = np.random.default_rng(0)
    rand = [rng.normal(size=4) for _ in range(5)]
    perm = [rand[i] for i in rng.permutation(5)]
    assert np.allclose(aggregate(np.zeros(4), rand, 1.0),
                       aggregate(np.zeros(4), perm, 1.0), atol=1e-12)


def test_finetune_trick():
    oracle = QuadraticLoss([1.0, 1.0])
    theta = np.array([0.0, 0.0])
    assert np.array_equal(finetune_trick(theta, oracle, 0.0), theta)
    moved = finetune_trick(theta, oracle, 0.5)
    assert oracle.value(moved) < oracle.value(theta)


def test_run_config_validation():
    good = RunConfig(strategy=PriorStrategy(kind="mh"))
    good.validate()
    with pytest.raises(ConfigError, match="sample_size"):
        RunConfig(sample_size=0).validate()
    with pytest.raises(ConfigError, match="sample_size"):
        RunConfig(sample_size=30, num_clients=20).validate()
    with pytest.raises(ConfigError, match="lam"):
        RunConfig(lam=0.0).validate()
    with pytest.raises(ConfigError, match="beta"):
        RunConfig(beta=-1.0).validate()
    RunConfig(beta=2.0).validate()
    RunConfig(num_rounds=np.int64(3), seed=np.int64(0)).validate()


@pytest.mark.parametrize("name", ["lam", "alpha", "alpha_m", "beta", "eta", "eta_alpha",
                                  "eta_tilde_alpha", "eta_tilde"])
def test_config_rejects_infinite_steps(name):
    # each passed the range rule and failed mid-training with a different error
    with pytest.raises(ConfigError, match=rf"\({name}\) must be finite, got inf"):
        if name in ("lam", "alpha", "alpha_m", "beta"):
            RunConfig(**{name: np.inf}).validate()
        else:
            PriorStrategy(kind="mh_variant", **{name: np.inf})


@pytest.mark.parametrize("key, name, value", [
    ("T", "num_rounds", 2.5), ("R", "local_steps", 1.5), ("K", "prox_steps", 2.0),
    ("N", "num_clients", 20.0), ("S", "sample_size", 1.5), ("batch", "batch_size", 2.5),
    ("seed", "seed", 1.5), ("T", "num_rounds", True), ("seed", "seed", False),
])
def test_config_rejects_non_integer_counts(key, name, value):
    # each passed the range rule and failed in training with a TypeError, or ran as an int
    with pytest.raises(ConfigError, match=rf"'{key}' \({name}\) must be .*integer"):
        RunConfig(**{name: value}).validate()


@pytest.mark.parametrize("sample_size, num_clients", [(0, 10), (11, 10), (5, 4), (1.5, 4),
                                                      (True, 4)])
def test_config_rejects_sample_size_outside_one_to_n(sample_size, num_clients):
    # the one S rule: sample_clients trusts it
    with pytest.raises(ConfigError, match=r"config key 'S' \(sample_size\) must be an integer "
                                          rf"in \[1, N={num_clients}\]"):
        RunConfig(sample_size=sample_size, num_clients=num_clients).validate()


@pytest.mark.parametrize("batch_size", [0, True, 2.5, 3.0, np.float64(2.0), "3"])
def test_config_rejects_bad_batch_size(batch_size):
    # the one batch-size rule: LossOracle trusts it; accepted, 2.5 would fail later in
    # draw_batch and True would draw batches of one
    with pytest.raises(ConfigError, match=r"config key 'batch' \(batch_size\) must be an "
                                          r"integer >= 1"):
        RunConfig(batch_size=batch_size).validate()


def small_run_config(**kwargs):
    defaults = dict(alpha_m=0.05, alpha=0.05, lam=5.0, beta=1.0, num_rounds=3,
                    local_steps=2, prox_steps=2, sample_size=2, num_clients=2,
                    batch_size=10, strategy=PriorStrategy(kind="vanilla"), seed=1,
                    track_deviations=False)
    defaults.update(kwargs)
    return RunConfig(**defaults)


@pytest.fixture(scope="module")
def blob_setup():
    ds = two_blob_dataset(n_per_class=30, seed=0)
    part = even_partition(ds, 2)
    model = Mclr(ds.num_features, 2)
    return ds, part, model


def test_run_pfedbred_unit_composition(blob_setup):
    # T=1, S=N=1 is exactly one local_round followed by one aggregate
    ds = two_blob_dataset(n_per_class=20, seed=4)
    part = even_partition(ds, 1)
    model = Mclr(ds.num_features, 2)
    cfg = small_run_config(num_rounds=1, local_steps=1, sample_size=1, num_clients=1)
    history = run_pfedbred(cfg, ds, part, model)

    w0 = model.init_params(init_rng(cfg.seed))
    clients = make_clients(ds, part, model, cfg.batch_size, w0)
    sample_clients(cfg.seed, 1, 1, 1)
    w_local, _ = local_round(clients[0], w0, cfg, SQUARED_NORM, client_rng(cfg.seed, 0, 1),
                             round_index=1)
    expected = aggregate(w0, [w_local], cfg.beta)
    assert np.array_equal(history.final_global, expected)
    assert np.array_equal(history.final_thetas[0], clients[0].theta)


def written_out_init(seed, sizes):
    """``init_params`` of a network of layer widths ``sizes``: per layer, one uniform draw."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    return np.concatenate([rng.uniform(-1.0 / np.sqrt(fan_in), 1.0 / np.sqrt(fan_in),
                                       size=(fan_in + 1) * fan_out)
                           for fan_in, fan_out in zip(sizes, sizes[1:])])


def written_out_draw(rng, n, batch):
    """``LossOracle.draw_batch``: the whole split, drawing nothing, when the batch covers it."""
    return np.arange(n) if batch >= n else rng.choice(n, size=batch, replace=False)


def written_out_prox_update(model, cfg):
    """One client's pfedbred local round under the squared norm (vanilla, lg, meg, mh_variant)."""
    s = cfg.strategy

    def update(w, th, mem, x, y, rng):
        for _ in range(cfg.local_steps):
            mu = w
            if s.kind in ("lg", "mh_variant"):  # one strategy batch, reused by the lookahead
                idx = written_out_draw(rng, len(x), cfg.batch_size)
                g = model.grad(w, x[idx], y[idx])
                if s.kind == "lg":
                    mu = w - s.eta_alpha * g
                else:
                    mu = w - (s.eta * s.eta_tilde_alpha) * model.grad(w - s.eta_tilde * g,
                                                                      x[idx], y[idx])
            if s.kind in ("meg", "mh_variant"):
                mu = mu - s.eta * (mem - th)
            th = mu
            for _ in range(cfg.prox_steps):
                idx = written_out_draw(rng, len(x), cfg.batch_size)
                th = th - cfg.alpha * (model.grad(th, x[idx], y[idx]) + cfg.lam * (th - mu))
            w = w - cfg.alpha_m * (cfg.lam * (mu - th))
        return w, th, w

    return update


def written_out_fedavg_update(model, cfg):
    """One client's FedAvg local round: plain mini-batch SGD; theta and memory stay as they are."""
    def update(w, th, mem, x, y, rng):
        for _ in range(cfg.local_steps):
            idx = written_out_draw(rng, len(x), cfg.batch_size)
            w = w - cfg.alpha_m * model.grad(w, x[idx], y[idx])
        return w, th, mem

    return update


def written_out_perfedavg_update(model, cfg):
    """One client's first-order Per-FedAvg local round: per step an inner, then an outer batch."""
    def update(w, th, mem, x, y, rng):
        for _ in range(cfg.local_steps):
            idx = written_out_draw(rng, len(x), cfg.batch_size)
            inner = w - cfg.alpha * model.grad(w, x[idx], y[idx])
            idx = written_out_draw(rng, len(x), cfg.batch_size)
            w = w - cfg.alpha_m * model.grad(inner, x[idx], y[idx])
        return w, th, mem

    return update


def written_out_perfedavg_personalize(model, cfg):
    """Per-FedAvg's personalization: a step at alpha_m from w, then one at alpha, a batch each."""
    def personalize(w, x, y, rng):
        idx = written_out_draw(rng, len(x), cfg.batch_size)
        theta = w - cfg.alpha_m * model.grad(w, x[idx], y[idx])
        idx = written_out_draw(rng, len(x), cfg.batch_size)
        return theta - cfg.alpha * model.grad(theta, x[idx], y[idx])

    return personalize


def written_out_run(cfg, ds, part, w, update, personalize=None):
    """Every round's global model, every round's thetas and each round's sampled set.

    ``personalize(w, x, y, rng)``, when given, sets every client's theta after aggregation
    from the client's (seed, client, round, 3) stream.  Only the generator stream layout is
    shared with the trainer; the round loop is written out here, on copies of each client's
    train rows.
    """
    seed, N = cfg.seed, cfg.num_clients
    train = [(ds.features[tr], ds.labels[tr]) for tr in part.train]
    thetas, memorized = [w] * N, [w] * N
    trajectory, round_thetas, rounds_sampled = [], [], []
    for t in range(1, cfg.num_rounds + 1):
        sampled = np.sort(np.random.default_rng(np.random.SeedSequence((seed, t, 1))).choice(
            N, size=cfg.sample_size, replace=False))
        rounds_sampled.append(set(sampled.tolist()))
        collected = []
        for i in sampled:
            rng = np.random.default_rng(np.random.SeedSequence((seed, int(i), t, 2)))
            wl, thetas[i], memorized[i] = update(w, thetas[i], memorized[i], *train[i], rng)
            collected.append(wl)
        w = (1.0 - cfg.beta) * w + cfg.beta * np.stack(collected).mean(axis=0)
        trajectory.append(w)
        if personalize is not None:
            thetas = [personalize(w, *train[i], np.random.default_rng(
                np.random.SeedSequence((seed, i, t, 3)))) for i in range(N)]
        round_thetas.append(list(thetas))
    return trajectory, round_thetas, rounds_sampled


def written_out_local_scores(model, ds, part, thetas):
    """personalized_acc_localtest and mean_local_loss of one theta per client, each scored on a
    copy of its client's test rows and weighed by test size."""
    accs, losses = [], []
    for theta, te in zip(thetas, part.test):
        x, y = ds.features[te], ds.labels[te]
        loss, probs = cross_entropy_and_softmax(model.logits(theta, x), y)
        accs.append(np.mean(np.argmax(probs, axis=-1) == y))
        losses.append(loss.mean())
    sizes = np.array([te.size for te in part.test], dtype=np.float64)
    weights = sizes / sizes.sum()
    return float(weights @ np.array(accs)), float(weights @ np.array(losses))


def check_pfedbred_whole_run(monkeypatch, strategy, partition=even_partition, hidden=None):
    """Run pfedbred on three two-blob clients, S=2, T=3, beta=2 (--am), and require every
    round's global model and the final thetas to equal the written-out loop's bit for bit."""
    ds = two_blob_dataset(n_per_class=15, seed=2)
    part = partition(ds, 3)
    sizes = (ds.num_features, 2) if hidden is None else (ds.num_features, hidden, 2)
    model = Mclr(*sizes) if hidden is None else Dnn(ds.num_features, 2, hidden=hidden)
    cfg = RunConfig(alpha_m=0.05, alpha=0.05, lam=4.0, beta=2.0, num_rounds=3, local_steps=2,
                    prox_steps=3, sample_size=2, num_clients=3, batch_size=6,
                    strategy=strategy, seed=1, track_deviations=False)
    global_models = record_global_models(monkeypatch)
    history = run_pfedbred(cfg, ds, part, model)
    trajectory, round_thetas, rounds_sampled = written_out_run(
        cfg, ds, part, written_out_init(cfg.seed, sizes), written_out_prox_update(model, cfg))
    assert len(global_models) == cfg.num_rounds
    assert all(np.array_equal(a, b) for a, b in zip(global_models, trajectory))
    assert all(np.array_equal(a, b) for a, b in zip(history.final_thetas, round_thetas[-1]))
    return rounds_sampled


def test_meg_whole_run_matches_written_out_loop(monkeypatch):
    # at seed 1 client 0 sits out round 2, so in round 3 its memorized model is the local
    # model it returned in round 1
    rounds_sampled = check_pfedbred_whole_run(monkeypatch, PriorStrategy(kind="meg", eta=0.3))
    assert 0 in rounds_sampled[0] - rounds_sampled[1] and 0 in rounds_sampled[2]


def dirichlet_half(ds, num_clients):
    """Train splits of 4, 2 and 20 rows: two clients' batches of 6 cover their whole split."""
    return partition_dirichlet(ds, num_clients, 0.5, seed=0)


@pytest.mark.parametrize("strategy, partition, hidden", [
    (PriorStrategy(kind="lg", eta_alpha=0.1), even_partition, None),
    (PriorStrategy(kind="mh_variant", eta_alpha=0.1, eta=0.3, eta_tilde_alpha=0.7,
                   eta_tilde=0.2), even_partition, None),
    (PriorStrategy(kind="meg", eta=0.3), dirichlet_half, None),
    (PriorStrategy(kind="mh_variant", eta_alpha=0.1, eta=0.3), even_partition, 3),
], ids=["lg", "mh_variant", "meg_dirichlet", "mh_variant_dnn"])
def test_whole_run_matches_written_out_loop(monkeypatch, strategy, partition, hidden):
    check_pfedbred_whole_run(monkeypatch, strategy, partition, hidden)


def test_fedavg_whole_run_matches_written_out_loop(monkeypatch):
    # S=2 of N=4 over T=4 rounds: clients sit out, and FedAvg's thetas all follow w
    ds = two_blob_dataset(n_per_class=20, seed=3)
    part = even_partition(ds, 4)
    model = Mclr(ds.num_features, 2)
    cfg = small_run_config(num_rounds=4, local_steps=3, sample_size=2, num_clients=4,
                           batch_size=4, beta=1.5, seed=2)
    global_models = record_global_models(monkeypatch)
    history = run_fedavg(cfg, ds, part, model)
    trajectory, _, rounds_sampled = written_out_run(
        cfg, ds, part, written_out_init(cfg.seed, (ds.num_features, 2)),
        written_out_fedavg_update(model, cfg))
    assert set().union(*rounds_sampled) == {0, 1, 2, 3}
    assert len(global_models) == cfg.num_rounds
    assert all(np.array_equal(a, b) for a, b in zip(global_models, trajectory))
    assert all(np.array_equal(theta, trajectory[-1]) for theta in history.final_thetas)


def test_perfedavg_whole_run_matches_written_out_loop(monkeypatch):
    # batches of 4 from train splits of 6: inner and outer steps and the personalization all
    # draw from their streams; every round's scores follow the round's personalized thetas
    ds = two_blob_dataset(n_per_class=15, seed=2)
    part = even_partition(ds, 3, train_fraction=0.6)
    model = Mclr(ds.num_features, 2)
    cfg = small_run_config(num_rounds=3, local_steps=2, sample_size=2, num_clients=3,
                           batch_size=4, alpha=0.1, seed=1)
    global_models = record_global_models(monkeypatch)
    history = run_perfedavg_fo(cfg, ds, part, model)
    trajectory, round_thetas, _ = written_out_run(
        cfg, ds, part, written_out_init(cfg.seed, (ds.num_features, 2)),
        written_out_perfedavg_update(model, cfg), written_out_perfedavg_personalize(model, cfg))
    assert len(global_models) == cfg.num_rounds
    assert all(np.array_equal(a, b) for a, b in zip(global_models, trajectory))
    assert all(np.array_equal(a, b) for a, b in zip(history.final_thetas, round_thetas[-1]))
    assert [(m.personalized_acc_localtest, m.mean_local_loss) for m in history.rounds] == [
        written_out_local_scores(model, ds, part, thetas) for thetas in round_thetas]


def test_pfedbred_ft_scores_match_written_out_full_batch_steps():
    # --ft scores each client's theta after one full-batch step at alpha on its train rows
    ds = two_blob_dataset(n_per_class=15, seed=2)
    part = even_partition(ds, 3, train_fraction=0.6)
    model = Mclr(ds.num_features, 2)
    cfg = small_run_config(num_rounds=3, local_steps=2, sample_size=2, num_clients=3,
                           batch_size=4, alpha=0.1, ft=True, seed=1,
                           strategy=PriorStrategy(kind="lg", eta_alpha=0.1))
    history = run_pfedbred(cfg, ds, part, model)
    _, round_thetas, _ = written_out_run(
        cfg, ds, part, written_out_init(cfg.seed, (ds.num_features, 2)),
        written_out_prox_update(model, cfg))

    def full_batch_step(theta, tr):
        return theta - cfg.alpha * model.grad(theta, ds.features[tr], ds.labels[tr])

    assert [(m.personalized_acc_localtest, m.mean_local_loss) for m in history.rounds] == [
        written_out_local_scores(model, ds, part, map(full_batch_step, thetas, part.train))
        for thetas in round_thetas]


def test_make_clients_indexes_the_shared_dataset():
    ds = two_blob_dataset(n_per_class=15, seed=2)
    part = partition_dirichlet(ds, 3, 0.5, seed=0)
    model = Mclr(ds.num_features, 2)
    clients = make_clients(ds, part, model, 4, model.init_params(init_rng(0)))
    for c, tr, te in zip(clients, part.train, part.test):
        assert c.oracle.features is ds.features and c.oracle.labels is ds.labels
        assert c.oracle.n == len(tr)
        assert np.array_equal(c.oracle.rows, tr) and np.array_equal(c.test_rows, te)
        # the client holds row indices and parameter vectors, no feature array
        assert all(not (isinstance(v, np.ndarray) and v.ndim > 1) for v in vars(c).values())


@pytest.mark.parametrize("train, test, client, message", [
    pytest.param((np.array([0, -1]), np.array([2])), (np.array([1]), np.array([3])), 0,
                 "rows outside the dataset's 20 rows", id="train0-test0-0"),
    pytest.param((np.array([0]), np.array([2])), (np.array([1]), np.array([20])), 1,
                 "rows outside the dataset's 20 rows", id="train1-test1-1"),
    pytest.param((np.array([0, 2**40]),), (np.array([1]),), 0,
                 "rows outside the dataset's 20 rows", id="row-2**40"),
    pytest.param((np.array([0.0, 1.0, 2.0]),), (np.array([3.0, 4.0]),), 0,
                 r"non-integer rows \(float64, float64\)", id="float-rows"),
    pytest.param((np.array([0]), np.array([2])), (np.array([1]), np.array([True])), 1,
                 r"non-integer rows \(int64, bool\)", id="bool-rows"),
    pytest.param((np.array([0]), np.array([], dtype=np.int64)), (np.array([1]), np.array([2])),
                 1, "an empty train split", id="empty-train"),
    # np.array([]) is float64: the empty split is named before its dtype is
    pytest.param((np.array([3]), np.arange(3)), (np.array([4]), np.array([])), 1,
                 "an empty local test split", id="empty-test-float64"),
    pytest.param((np.array([3]), np.arange(3)), (np.array([4]), np.array([], dtype=np.int64)),
                 1, "an empty local test split", id="empty-test-int64"),
    pytest.param((np.arange(3), np.array([9, 4])), (np.array([4]), np.array([5, 4])), 1,
                 "overlapping train/test indices", id="overlap"),
    pytest.param(([0, 1],), ([2],), 0, "rows that are not 1-d arrays", id="list-rows"),
    pytest.param((np.array([0]), np.array([[2, 3]])), (np.array([1]), np.array([4])), 1,
                 "rows that are not 1-d arrays", id="2d-rows"),
])
def test_make_clients_rejects_rows_outside_the_dataset(train, test, client, message):
    # the one table of row rules, on a 20-row dataset: a negative row would index from the
    # end (client 0 would train on row 19), and no array may be sized by a row like 2**40
    ds = two_blob_dataset(n_per_class=10, seed=0)
    part = Partition(train=train, test=test)
    model = Mclr(ds.num_features, 2)
    with pytest.raises(ConfigError, match=rf"^client {client} has {message}"):
        make_clients(ds, part, model, 4, model.init_params(init_rng(0)))


def test_run_pfedbred_seed_sensitivity(blob_setup):
    ds, part, model = blob_setup
    h1 = run_pfedbred(small_run_config(seed=1), ds, part, model)
    h1b = run_pfedbred(small_run_config(seed=1), ds, part, model)
    h2 = run_pfedbred(small_run_config(seed=2), ds, part, model)
    assert np.array_equal(h1.final_global, h1b.final_global)
    assert not np.array_equal(h1.final_global, h2.final_global)


@pytest.mark.parametrize("runner", [run_pfedbred, run_fedavg, run_perfedavg_fo],
                         ids=lambda runner: runner.__name__)
def test_run_returns_read_only_parameters(blob_setup, runner, monkeypatch):
    # evaluation keys a model by its array object, so a write in place must raise
    # rather than leave a stale score; with S=1 a client may keep the initial vector
    ds, part, model = blob_setup
    global_models = record_global_models(monkeypatch)
    hist = runner(small_run_config(sample_size=1), ds, part, model)
    assert len(global_models) == 3
    for params in [hist.final_global, *hist.final_thetas, *global_models]:
        with pytest.raises(ValueError, match="read-only"):
            params[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            params += 1.0


def test_run_pfedbred_gce_requires_two_clients(blob_setup):
    ds, part, model = blob_setup
    hist = run_pfedbred(small_run_config(sample_size=1), ds, part, model)
    assert all(m.gce is None for m in hist.rounds)
    hist2 = run_pfedbred(small_run_config(), ds, part, model)
    assert all(m.gce is None or 0.0 <= m.gce <= 1.0 for m in hist2.rounds)


def test_run_pfedbred_divergence_error_carries_context(blob_setup):
    ds, part, model = blob_setup
    cfg = small_run_config(alpha_m=1e12, lam=30.0)
    with pytest.raises(DivergenceError) as err:
        run_pfedbred(cfg, ds, part, model)
    assert err.value.round_index == 1
    assert err.value.client_index in (0, 1)
    assert err.value.step_index == 0


def test_run_pfedbred_rejects_mismatched_partition(blob_setup):
    ds, part, model = blob_setup
    with pytest.raises(ConfigError, match="partition"):
        run_pfedbred(small_run_config(num_clients=3, sample_size=2), ds, part, model)


def test_fedavg_single_client_is_centralized_sgd():
    ds = two_blob_dataset(n_per_class=25, seed=6)
    part = even_partition(ds, 1)
    model = Mclr(ds.num_features, 2)
    cfg = small_run_config(num_rounds=4, local_steps=3, sample_size=1, num_clients=1)
    hist = run_fedavg(cfg, ds, part, model)

    w = model.init_params(init_rng(cfg.seed))
    oracle = LossOracle(model, ds, part.train[0], cfg.batch_size)
    for t in range(1, 5):
        sample_clients(cfg.seed, t, 1, 1)
        rng = client_rng(cfg.seed, 0, t)
        w_local = w.copy()
        for _ in range(3):
            idx = oracle.draw_batch(rng)
            w_local = w_local - cfg.alpha_m * oracle.gradient(w_local, idx)
        w = aggregate(w, [w_local], cfg.beta)
    assert np.array_equal(hist.final_global, w)


def test_fedavg_identical_clients_match_single_client():
    # identical local data + full batches: two clients act as one
    base = two_blob_dataset(n_per_class=10, seed=7)
    doubled_features = np.concatenate([base.features, base.features])
    doubled_labels = np.concatenate([base.labels, base.labels])
    from pfedbred import Dataset, Partition
    ds2 = Dataset(features=doubled_features, labels=doubled_labels, num_classes=2)
    n = base.n
    cut = int(round(n * 0.9))
    part2 = Partition(train=(np.arange(cut), np.arange(n, n + cut)),
                      test=(np.arange(cut, n), np.arange(n + cut, 2 * n)))
    part1 = Partition(train=(np.arange(cut),), test=(np.arange(cut, n),))

    model = Mclr(base.num_features, 2)
    big_batch = 1000  # larger than any train split: full-batch gradients
    cfg2 = small_run_config(num_rounds=3, local_steps=2, sample_size=2, num_clients=2,
                            batch_size=big_batch)
    cfg1 = small_run_config(num_rounds=3, local_steps=2, sample_size=1, num_clients=1,
                            batch_size=big_batch)
    h2 = run_fedavg(cfg2, ds2, part2, model)
    h1 = run_fedavg(cfg1, base, part1, model)
    assert np.array_equal(h2.final_global, h1.final_global)


def test_fedavg_thetas_track_global(blob_setup):
    ds, part, model = blob_setup
    hist = run_fedavg(small_run_config(), ds, part, model)
    for theta in hist.final_thetas:
        assert np.array_equal(theta, hist.final_global)


def test_perfedavg_zero_inner_step_collapses_to_fedavg():
    ds = two_blob_dataset(n_per_class=12, seed=8)
    part = even_partition(ds, 1)
    model = Mclr(ds.num_features, 2)
    w0 = model.init_params(init_rng(0))
    clients = make_clients(ds, part, model, batch_size=1000, w0=w0)
    cfg = small_run_config(alpha=0.0, local_steps=4, batch_size=1000,
                           sample_size=1, num_clients=1)
    wa = perfedavg_local_round(clients[0], w0, cfg, np.random.default_rng(0))
    wb = fedavg_local_round(clients[0], w0, cfg, np.random.default_rng(0))
    assert np.array_equal(wa, wb)


def test_perfedavg_personalizes_every_client(blob_setup):
    ds, part, model = blob_setup
    hist = run_perfedavg_fo(small_run_config(sample_size=1), ds, part, model)
    assert len(hist.final_thetas) == 2
    for theta in hist.final_thetas:
        assert not np.array_equal(theta, hist.final_global)


def test_fedavg_divergence_error_in_baseline(blob_setup):
    ds, part, model = blob_setup
    with pytest.raises(DivergenceError):
        run_fedavg(small_run_config(alpha_m=1e200), ds, part, model)


def test_perfedavg_divergent_personalization_raises(blob_setup):
    # the shared iterate stays bounded; only the fine-tuned thetas explode
    ds, part, model = blob_setup
    with pytest.raises(DivergenceError, match="personalization") as err:
        run_perfedavg_fo(small_run_config(alpha=1e307), ds, part, model)
    assert err.value.round_index == 1
    assert err.value.step_index is None


def test_finetune_divergent_personalization_raises(blob_setup):
    # FedAvg's local steps use alpha_m; only the --ft step at alpha explodes
    ds, part, model = blob_setup
    with pytest.raises(DivergenceError, match="personalization") as err:
        run_fedavg(small_run_config(alpha=1e12, ft=True), ds, part, model)
    assert err.value.round_index == 1
    assert err.value.step_index is None


def test_library_run_does_not_depend_on_blas_threads(tmp_path):
    # the library twin of test_cli.py's check: a 784-feature dnn, whose products OpenBLAS
    # splits over two threads unless the runner pins it to one
    src = str(Path(fl.__file__).resolve().parent.parent)
    script = """
import pickle, sys
from pfedbred import Dnn, RunConfig, partition_label_shard, run_perfedavg_fo, synth_gaussian_mixture
ds = synth_gaussian_mixture(10, 784, 60, 1.0, seed=0)
part = partition_label_shard(ds, 10, 10, seed=0)
cfg = RunConfig(num_rounds=4, local_steps=3, sample_size=3, num_clients=10)
history = run_perfedavg_fo(cfg, ds, part, Dnn(784, 10))
with open(sys.argv[1], "wb") as fh:
    pickle.dump((history.rounds, history.final_global), fh)
"""
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"{threads}.pkl"
        subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True,
                       capture_output=True)
        with open(out, "rb") as fh:
            runs.append(pickle.load(fh))
    (rounds_1, global_1), (rounds_2, global_2) = runs
    assert rounds_1 == rounds_2
    assert np.array_equal(global_1, global_2)
