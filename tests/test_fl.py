import numpy as np
import pytest

from pfedbred import (ClientState, ConfigError, DivergenceError, LossOracle, Mclr,
                      PriorStrategy, RunConfig, SQUARED_NORM, Tricks, aggregate,
                      client_rng, compute_prior_mean, fedavg_local_round, finetune_trick,
                      init_rng, local_round, make_clients, perfedavg_local_round,
                      run_fedavg, run_pfedbred, run_perfedavg_fo, sample_clients)
from pfedbred.errors import DimensionError

from .helpers import QuadraticLoss, even_partition, two_blob_dataset


def quadratic_client(a, w0, index=0):
    return ClientState(index=index, oracle=QuadraticLoss(a), test_x=np.zeros((1, 1)),
                       test_y=np.zeros(1, dtype=np.int64), theta=w0.copy(),
                       memorized_local=w0.copy())


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


def test_sample_clients_validation():
    with pytest.raises(ConfigError):
        sample_clients(0, 0, 10, 0)
    with pytest.raises(ConfigError):
        sample_clients(0, 0, 10, 11)


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


def test_prior_mean_lg_example():
    s = PriorStrategy(kind="lg", eta_alpha=0.01)
    mu = compute_prior_mean(s, np.array([1.0, 1.0]), grad_f_at_w=np.array([0.2, -0.2]))
    assert np.allclose(mu, [0.998, 1.002])


def test_prior_mean_zero_steps_returns_w_for_every_kind():
    w = np.array([0.3, -0.7, 2.0])
    grad = np.array([1.0, 1.0, 1.0])
    mem = np.array([0.5, 0.5, 0.5])
    theta = np.array([-0.5, 0.0, 0.5])
    for kind in ("vanilla", "lg", "meg", "mh", "mh_variant"):
        s = PriorStrategy(kind=kind, eta_alpha=0.0, eta=0.0)
        mu = compute_prior_mean(s, w, grad_f_at_w=grad, memorized_local=mem,
                                theta_prev=theta, grad_f_at_shifted=grad)
        assert np.array_equal(mu, w)
        assert mu is not w


def test_prior_mean_mh_composes_lg_and_meg_shifts():
    rng = np.random.default_rng(8)
    w, grad, mem, theta = rng.normal(size=(4, 6))
    ea, e = 0.03, 0.07
    mh = compute_prior_mean(PriorStrategy(kind="mh", eta_alpha=ea, eta=e), w,
                            grad_f_at_w=grad, memorized_local=mem, theta_prev=theta)
    lg = compute_prior_mean(PriorStrategy(kind="lg", eta_alpha=ea), w, grad_f_at_w=grad)
    assert np.array_equal(mh, lg - e * (mem - theta))
    meg_like = compute_prior_mean(PriorStrategy(kind="mh", eta_alpha=0.0, eta=e), w,
                                  grad_f_at_w=grad, memorized_local=mem, theta_prev=theta)
    meg = compute_prior_mean(PriorStrategy(kind="meg", eta=e), w,
                             memorized_local=mem, theta_prev=theta)
    assert np.array_equal(meg_like, meg)


def test_prior_mean_missing_inputs_raise():
    with pytest.raises(ValueError, match="lg"):
        compute_prior_mean(PriorStrategy(kind="lg"), np.zeros(2))
    with pytest.raises(ValueError, match="meg"):
        compute_prior_mean(PriorStrategy(kind="meg"), np.zeros(2))
    with pytest.raises(ValueError, match="mh_variant"):
        compute_prior_mean(PriorStrategy(kind="mh_variant"), np.zeros(2),
                           grad_f_at_w=np.zeros(2))


def test_local_round_matches_closed_form_single_step():
    lam = 4.0
    a = np.array([1.0, -2.0])
    w0 = np.array([3.0, 0.5])
    cfg = exact_prox_config(lam)
    client = quadratic_client(a, w0)
    res = local_round(client, w0, cfg, SQUARED_NORM, np.random.default_rng(0))
    expected = w0 - cfg.alpha_m * lam / (1.0 + lam) * (w0 - a)
    assert np.allclose(res.w_local, expected, atol=1e-12)
    assert np.array_equal(res.envelope_grad, lam * (w0 - res.theta))
    # prox pulled theta toward a
    assert np.allclose(res.theta, (lam * w0 + a) / (1.0 + lam), atol=1e-12)


def test_local_round_contracts_geometrically():
    lam = 2.0
    a = np.array([0.5, 0.5, -1.0])
    w0 = np.array([2.0, -1.0, 0.0])
    steps = 6
    cfg = exact_prox_config(lam, alpha_m=0.3, local_steps=steps)
    client = quadratic_client(a, w0)
    res = local_round(client, w0, cfg, SQUARED_NORM, np.random.default_rng(0))
    rho = 1.0 - cfg.alpha_m * lam / (1.0 + lam)
    assert np.allclose(res.w_local - a, rho ** steps * (w0 - a), atol=1e-12)
    # the returned envelope gradient is the last step's, taken at vanilla mu = w
    before = local_round(quadratic_client(a, w0), w0,
                         exact_prox_config(lam, alpha_m=0.3, local_steps=steps - 1),
                         SQUARED_NORM, np.random.default_rng(0)).w_local
    assert np.array_equal(res.envelope_grad, lam * (before - res.theta))


def test_local_round_zero_alpha_m_keeps_w_but_updates_theta():
    cfg = exact_prox_config(3.0, alpha_m=0.0)
    w0 = np.array([1.0, 1.0])
    client = quadratic_client(np.zeros(2), w0)
    res = local_round(client, w0, cfg, SQUARED_NORM, np.random.default_rng(0))
    assert np.array_equal(res.w_local, w0)
    assert not np.array_equal(res.theta, w0)
    assert np.array_equal(client.theta, res.theta)


def test_local_round_updates_memorized_at_round_end():
    cfg = exact_prox_config(2.0, alpha_m=0.2, local_steps=3)
    w0 = np.array([1.5, -0.5])
    client = quadratic_client(np.zeros(2), w0)
    res = local_round(client, w0, cfg, SQUARED_NORM, np.random.default_rng(0))
    assert np.array_equal(client.memorized_local, res.w_local)


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
    res = local_round(client, w0, cfg, SQUARED_NORM, np.random.default_rng(0))

    w, theta = w0.copy(), theta0.copy()
    step = 1.0 / (1.0 + lam)
    for _ in range(3):
        mu = w - eta * (mem0 - theta)  # snapshot, never the running w
        theta = mu - step * ((mu - a) + lam * (mu - mu))
        env = lam * (mu - theta)
        w = w - cfg.alpha_m * env
    assert np.array_equal(res.w_local, w)
    assert np.array_equal(res.theta, theta)


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
    res = local_round(clients[0], w0, cfg, SQUARED_NORM, np.random.default_rng(9))

    oracle = clients[0].oracle
    g_w = oracle.gradient(w0, None)
    shifted = w0 - s.eta_tilde * g_w
    g_shift = oracle.gradient(shifted, None)
    mu = w0 - (s.eta * s.eta_tilde_alpha) * g_shift - s.eta * (w0 - w0)
    theta = mu.copy()
    for _ in range(2):
        theta = theta - cfg.alpha * (oracle.gradient(theta, None) + cfg.lam * (theta - mu))
    expected_w = w0 - cfg.alpha_m * (cfg.lam * (mu - theta))
    assert np.array_equal(res.w_local, expected_w)


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


def test_aggregate_validation():
    with pytest.raises(ValueError):
        aggregate(np.zeros(2), [], beta=1.0)
    with pytest.raises(DimensionError):
        aggregate(np.zeros(2), [np.zeros(3)], beta=1.0)


def test_finetune_trick():
    oracle = QuadraticLoss([1.0, 1.0])
    theta = np.array([0.0, 0.0])
    assert np.array_equal(finetune_trick(theta, oracle, 0.0), theta)
    moved = finetune_trick(theta, oracle, 0.5)
    assert oracle.value(moved) < oracle.value(theta)
    with pytest.raises(ValueError):
        finetune_trick(theta, oracle, -0.1)


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
    with pytest.raises(ConfigError, match="momentum"):
        RunConfig(tricks=Tricks(am=True), beta=1.0).validate()
    RunConfig(tricks=Tricks(am=True), beta=2.0).validate()


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
    res = local_round(clients[0], w0, cfg, SQUARED_NORM, client_rng(cfg.seed, 0, 1),
                      round_index=1)
    expected = aggregate(w0, [res.w_local], cfg.beta)
    assert np.array_equal(history.final_global, expected)
    assert np.array_equal(history.final_thetas[0], res.theta)


def test_run_pfedbred_seed_sensitivity(blob_setup):
    ds, part, model = blob_setup
    h1 = run_pfedbred(small_run_config(seed=1), ds, part, model)
    h1b = run_pfedbred(small_run_config(seed=1), ds, part, model)
    h2 = run_pfedbred(small_run_config(seed=2), ds, part, model)
    assert np.array_equal(h1.final_global, h1b.final_global)
    assert not np.array_equal(h1.final_global, h2.final_global)


def test_run_pfedbred_tracks_weights_when_asked(blob_setup):
    ds, part, model = blob_setup
    hist = run_pfedbred(small_run_config(track_weights=True), ds, part, model)
    assert hist.global_trajectory is not None
    assert len(hist.global_trajectory) == 3
    assert np.array_equal(hist.global_trajectory[-1], hist.final_global)
    assert run_pfedbred(small_run_config(), ds, part, model).global_trajectory is None


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
    oracle = LossOracle(model, ds.features[part.train[0]], ds.labels[part.train[0]],
                        cfg.batch_size)
    for t in range(1, 5):
        sample_clients(cfg.seed, t, 1, 1)
        rng = client_rng(cfg.seed, 0, t)
        w_local = w.copy()
        for _ in range(3):
            idx = oracle.draw_batch(rng, cfg.batch_size)
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
                      test=(np.arange(cut, n), np.arange(n + cut, 2 * n)), seed=0)
    part1 = Partition(train=(np.arange(cut),), test=(np.arange(cut, n),), seed=0)

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
