"""Federated training loops with personalized Bregman-proximal local objectives.

Each client keeps a personalized model theta next to its copy of the global
model.  A local step first selects a prior mean mu from the current local
state (several selection strategies below), then moves theta toward the
proximal point of the local loss around mu, and finally takes a gradient step
on the local copy of the global model using the first-order envelope gradient
lam * (mu - theta).  The server aggregates the returned local models.

Reference baselines (FedAvg and a first-order meta-learning method that
personalizes by fine-tuning) share the same sampling, batching, and
aggregation machinery so runs are comparable.

All three methods run the same round loop and differ only in two hooks: the
local update of a sampled client and the personalization step after
aggregation.

Determinism: every stochastic choice is drawn from a generator seeded by a
tuple of (run seed, client index, round index, purpose tag), and clients are
updated one after another in sorted order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateInputError, DimensionError, DivergenceError
from .metrics import RoundMetrics, evaluate_global, evaluate_local_weighted, gce, loss_deviation, per_class_stats
from .mirror import SQUARED_NORM, MirrorMap, ProxConfig, bregman_prox, envelope_gradient_first_order
from .models import LossOracle

STRATEGY_KINDS = ("vanilla", "lg", "meg", "mh", "mh_variant")

DIVERGENCE_LIMIT = 1e8

# Purpose tags keep the per-(seed, client, round) generator streams disjoint.
TAG_INIT = 0
TAG_SAMPLE = 1
TAG_LOCAL = 2
TAG_EVAL = 3


def _require(ok: bool, key: str, name: str, rule: str, value) -> None:
    if not ok:
        raise ConfigError(f"config key {key!r} ({name}) must {rule}, got {value!r}")


def init_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, TAG_INIT)))


def sample_rng(seed: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, round_index, TAG_SAMPLE)))


def client_rng(seed: int, client_index: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((seed, client_index, round_index, TAG_LOCAL)))


def eval_rng(seed: int, client_index: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((seed, client_index, round_index, TAG_EVAL)))


def sample_clients(seed: int, round_index: int, num_clients: int, sample_size: int) -> np.ndarray:
    """Choose the participating clients for one round, uniformly without replacement."""
    if not 0 < sample_size <= num_clients:
        raise ConfigError(f"sample_size must lie in (0, {num_clients}], got {sample_size}")
    rng = sample_rng(seed, round_index)
    return np.sort(rng.choice(num_clients, size=sample_size, replace=False))


@dataclass(frozen=True)
class PriorStrategy:
    """How a client selects the prior mean mu from its local state.

    vanilla     mu = w, plain proximal regularization toward the local copy
                of the global model.
    lg          loss gradient: mu = w - eta_alpha * grad f(w).
    meg         memorized envelope gradient: mu = w - eta * (w_mem - theta),
                where w_mem is the client's local model from the end of its
                previous round.
    mh          hybrid of both shifts.
    mh_variant  like mh but the loss-gradient shift is evaluated at a
                lookahead point w - eta_tilde * grad f(w) and scaled by
                eta * eta_tilde_alpha.

    Unset lookahead steps resolve to eta_tilde_alpha = eta_alpha / eta
    (0 when eta == 0) and eta_tilde = eta_alpha, which makes the variant's
    first shift match mh's scale.
    """

    kind: str = "vanilla"
    eta_alpha: float = 0.01
    eta: float = 0.05
    eta_tilde_alpha: float | None = None
    eta_tilde: float | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"config key 'strategy' (kind): unknown strategy kind "
                              f"{self.kind!r}; expected one of {STRATEGY_KINDS}")
        _require(self.eta_alpha >= 0, "eta_alpha", "eta_alpha", "be nonnegative", self.eta_alpha)
        _require(self.eta >= 0, "eta", "eta", "be nonnegative", self.eta)
        if self.eta_tilde_alpha is None:
            object.__setattr__(self, "eta_tilde_alpha",
                               self.eta_alpha / self.eta if self.eta > 0 else 0.0)
        if self.eta_tilde is None:
            object.__setattr__(self, "eta_tilde", self.eta_alpha)
        if self.eta_tilde_alpha < 0 or self.eta_tilde < 0:
            raise ConfigError("lookahead steps must be nonnegative")


def variant_shift_point(strategy: PriorStrategy, w_local: np.ndarray,
                        grad_f_at_w: np.ndarray) -> np.ndarray:
    """Lookahead point w - eta_tilde * grad f(w) used by the mh_variant strategy."""
    return w_local - strategy.eta_tilde * grad_f_at_w


def compute_prior_mean(strategy: PriorStrategy, w_local: np.ndarray,
                       grad_f_at_w: np.ndarray | None = None,
                       memorized_local: np.ndarray | None = None,
                       theta_prev: np.ndarray | None = None,
                       grad_f_at_shifted: np.ndarray | None = None) -> np.ndarray:
    """Prior mean mu for one local step under the given strategy.

    With eta_alpha == eta == 0 every strategy returns w_local unchanged.
    """
    kind = strategy.kind
    if kind == "vanilla":
        return w_local.copy()
    if kind == "lg":
        if grad_f_at_w is None:
            raise ValueError("lg needs grad_f_at_w")
        return w_local - strategy.eta_alpha * grad_f_at_w
    if kind == "meg":
        if memorized_local is None or theta_prev is None:
            raise ValueError("meg needs memorized_local and theta_prev")
        return w_local - strategy.eta * (memorized_local - theta_prev)
    if kind == "mh":
        if grad_f_at_w is None or memorized_local is None or theta_prev is None:
            raise ValueError("mh needs grad_f_at_w, memorized_local, and theta_prev")
        return (w_local - strategy.eta_alpha * grad_f_at_w
                - strategy.eta * (memorized_local - theta_prev))
    if kind == "mh_variant":
        if grad_f_at_shifted is None or memorized_local is None or theta_prev is None:
            raise ValueError("mh_variant needs grad_f_at_shifted, memorized_local, and theta_prev")
        return (w_local - (strategy.eta * strategy.eta_tilde_alpha) * grad_f_at_shifted
                - strategy.eta * (memorized_local - theta_prev))
    raise ConfigError(f"unknown strategy kind {kind!r}")


@dataclass
class Tricks:
    """Optional training add-ons: fine-tune before local testing, aggregation momentum."""

    ft: bool = False
    am: bool = False


@dataclass
class RunConfig:
    """Hyperparameters for one federated run.

    alpha_m     step size for the local update of the global-model copy.
    alpha       step size inside the proximal inner solver (and fine-tuning).
    lam         weight of the divergence term in the local objective.
    beta        server mixing weight; 1 replaces the global model with the
                client average, 2 is the aggregation-momentum setting.
    num_rounds / local_steps / prox_steps
                communication rounds (T), local steps per round (R), and
                inner gradient steps per proximal solve (K).
    sample_size / num_clients
                participating clients per round (S) out of N total.
    """

    alpha_m: float = 0.01
    alpha: float = 0.01
    lam: float = 15.0
    beta: float = 1.0
    num_rounds: int = 100
    local_steps: int = 20
    prox_steps: int = 5
    sample_size: int = 4
    num_clients: int = 20
    batch_size: int = 20
    strategy: PriorStrategy = field(default_factory=PriorStrategy)
    tricks: Tricks = field(default_factory=Tricks)
    seed: int = 0
    track_deviations: bool = True
    track_weights: bool = False

    def validate(self) -> None:
        """Check every range rule; each message names the config key and the field."""
        for key, name in (("T", "num_rounds"), ("R", "local_steps"), ("K", "prox_steps"),
                          ("N", "num_clients"), ("batch", "batch_size")):
            _require(getattr(self, name) >= 1, key, name, "be >= 1", getattr(self, name))
        _require(1 <= self.sample_size <= self.num_clients, "S", "sample_size",
                 f"lie in [1, N={self.num_clients}]", self.sample_size)
        _require(self.lam > 0, "lambda", "lam", "be positive", self.lam)
        _require(self.alpha_m >= 0, "alpha_m", "alpha_m", "be nonnegative", self.alpha_m)
        _require(self.alpha > 0, "alpha", "alpha", "be positive", self.alpha)
        _require(self.beta > 0, "beta", "beta", "be positive", self.beta)
        _require(not self.tricks.am or self.beta == 2.0, "am", "tricks.am",
                 "have beta == 2 for aggregation momentum", self.beta)
        _require(self.seed >= 0, "seed", "seed", "be nonnegative", self.seed)

    def prox_config(self) -> ProxConfig:
        return ProxConfig(inner_steps=self.prox_steps, inner_step_size=self.alpha,
                          batch_size=self.batch_size)


@dataclass
class ClientState:
    """One client's persistent state across rounds.

    ``theta`` is the personalized model, carried between a client's
    participations.  ``memorized_local`` is the local copy of the global
    model as it stood at the end of the client's previous round; all local
    steps within a round read the same snapshot.
    """

    index: int
    oracle: LossOracle
    test_x: np.ndarray
    test_y: np.ndarray
    theta: np.ndarray
    memorized_local: np.ndarray


def make_clients(dataset, partition, model, batch_size: int, w0: np.ndarray) -> list[ClientState]:
    clients = []
    for i in range(partition.num_clients):
        tr, te = partition.train[i], partition.test[i]
        if tr.size == 0:
            raise ConfigError(f"client {i} has an empty train split")
        oracle = LossOracle(model, dataset.features[tr], dataset.labels[tr], batch_size)
        clients.append(ClientState(
            index=i,
            oracle=oracle,
            test_x=dataset.features[te],
            test_y=dataset.labels[te],
            theta=w0.copy(),
            memorized_local=w0.copy(),
        ))
    return clients


def _check_bounded(w: np.ndarray, round_index: int, client_index: int,
                   step_index: int | None = None) -> None:
    """Raise DivergenceError past DIVERGENCE_LIMIT; no step index means personalization."""
    if not np.all(np.abs(w) <= DIVERGENCE_LIMIT):
        where = "personalization" if step_index is None else f"local step {step_index}"
        raise DivergenceError(
            f"parameters exceeded {DIVERGENCE_LIMIT:g} at round {round_index}, "
            f"client {client_index}, {where}",
            round_index=round_index, client_index=client_index, step_index=step_index)


@dataclass
class LocalRoundResult:
    w_local: np.ndarray
    theta: np.ndarray
    envelope_grad: np.ndarray


def local_round(client: ClientState, w_global: np.ndarray, cfg: RunConfig,
                mmap: MirrorMap, rng: np.random.Generator,
                round_index: int = 0) -> LocalRoundResult:
    """Run one client's local steps and update its persistent state.

    Per local step, the generator is consumed in a fixed order: one batch for
    the strategy's loss gradient when the strategy needs one (mh_variant
    reuses that batch for its lookahead gradient), then one batch per inner
    proximal step.  Returns the final local model, the final personalized
    model, and the envelope gradient of the last local step.
    """
    strategy = cfg.strategy
    prox_cfg = cfg.prox_config()
    oracle = client.oracle
    w = w_global.copy()
    theta = client.theta
    memorized = client.memorized_local
    needs_grad = strategy.kind in ("lg", "mh", "mh_variant")
    for r in range(cfg.local_steps):
        grad_w = grad_shifted = None
        if needs_grad:
            idx = oracle.draw_batch(rng, cfg.batch_size)
            grad_w = oracle.gradient(w, idx)
            if strategy.kind == "mh_variant":
                grad_shifted = oracle.gradient(variant_shift_point(strategy, w, grad_w), idx)
        mu = compute_prior_mean(strategy, w, grad_w, memorized, theta, grad_shifted)
        theta = bregman_prox(mmap, cfg.lam, oracle, mu, prox_cfg, rng)
        env = envelope_gradient_first_order(cfg.lam, mu, theta)
        w = w - cfg.alpha_m * env
        _check_bounded(w, round_index, client.index, r)
    client.theta = theta
    client.memorized_local = w.copy()
    return LocalRoundResult(w_local=w, theta=theta, envelope_grad=env)


def fedavg_local_round(client: ClientState, w_global: np.ndarray, cfg: RunConfig,
                       rng: np.random.Generator, round_index: int = 0) -> np.ndarray:
    """Plain local SGD on the client's loss."""
    oracle = client.oracle
    w = w_global.copy()
    for r in range(cfg.local_steps):
        idx = oracle.draw_batch(rng, cfg.batch_size)
        w = w - cfg.alpha_m * oracle.gradient(w, idx)
        _check_bounded(w, round_index, client.index, r)
    return w


def perfedavg_local_round(client: ClientState, w_global: np.ndarray, cfg: RunConfig,
                          rng: np.random.Generator, round_index: int = 0) -> np.ndarray:
    """First-order meta step: descend at a lookahead point reached by an inner step.

    Each local step draws two batches: the inner step moves to
    w - alpha * grad(w; batch1), the outer step applies that point's gradient
    on a second batch at step size alpha_m.
    """
    oracle = client.oracle
    w = w_global.copy()
    for r in range(cfg.local_steps):
        idx_inner = oracle.draw_batch(rng, cfg.batch_size)
        inner = w - cfg.alpha * oracle.gradient(w, idx_inner)
        idx_outer = oracle.draw_batch(rng, cfg.batch_size)
        w = w - cfg.alpha_m * oracle.gradient(inner, idx_outer)
        _check_bounded(w, round_index, client.index, r)
    return w


def perfedavg_personalize(client: ClientState, w_global: np.ndarray, cfg: RunConfig,
                          rng: np.random.Generator) -> np.ndarray:
    """Personalized model for evaluation: two fine-tune steps from the global model."""
    oracle = client.oracle
    idx = oracle.draw_batch(rng, cfg.batch_size)
    theta = w_global - cfg.alpha_m * oracle.gradient(w_global, idx)
    idx = oracle.draw_batch(rng, cfg.batch_size)
    return theta - cfg.alpha * oracle.gradient(theta, idx)


def finetune_trick(theta: np.ndarray, oracle: LossOracle, step: float) -> np.ndarray:
    """One full-batch gradient step on the client's train split."""
    if step < 0:
        raise ValueError(f"step must be nonnegative, got {step}")
    return theta - step * oracle.gradient(theta, None)


def aggregate(w_old: np.ndarray, collected, beta: float) -> np.ndarray:
    """Server update (1 - beta) * w_old + beta * mean(collected)."""
    if len(collected) == 0:
        raise ValueError("nothing to aggregate")
    stacked = np.stack(collected)
    if stacked.shape[1:] != w_old.shape:
        raise DimensionError(
            f"collected shape {stacked.shape[1:]} does not match global {w_old.shape}")
    return (1.0 - beta) * w_old + beta * stacked.mean(axis=0)


@dataclass
class RunHistory:
    """Everything a run leaves behind for analysis."""

    method: str
    strategy: str | None
    seed: int
    rounds: list
    final_global: np.ndarray
    final_thetas: list
    global_trajectory: list | None = None


class Evaluator:
    """Per-round metric computation over a fixed client population."""

    def __init__(self, model, clients: list[ClientState], num_classes: int,
                 ft_step: float | None = None, track_deviations: bool = True):
        self.model = model
        self.clients = clients
        self.num_classes = num_classes
        self.ft_step = ft_step
        self.track_deviations = track_deviations
        self.global_x = np.concatenate([c.test_x for c in clients])
        self.global_y = np.concatenate([c.test_y for c in clients])
        self.tests = [(c.test_x, c.test_y) for c in clients]

    def personalized_params(self) -> list:
        if self.ft_step is None:
            return [c.theta for c in self.clients]
        return [finetune_trick(c.theta, c.oracle, self.ft_step) for c in self.clients]

    def compute(self, round_index: int, w: np.ndarray, env_grads=None) -> RoundMetrics:
        thetas = self.personalized_params()
        global_acc, _ = evaluate_global(self.model, w, self.global_x, self.global_y,
                                        self.num_classes)
        local = evaluate_local_weighted(self.model, thetas, self.tests, self.num_classes)
        dev_global: dict[int, float] = {}
        dev_local: dict[int, float] = {}
        if self.track_deviations:
            on_global = np.stack([
                per_class_stats(self.model, th, self.global_x, self.global_y,
                                self.num_classes)[2]
                for th in thetas])
            dg = loss_deviation(on_global, np.ones(len(self.clients)))
            dl = loss_deviation(local.per_class_loss, local.class_counts)
            dev_global = {c: float(dg[0, c]) for c in range(self.num_classes)}
            dev_local = {c: float(dl[0, c]) for c in range(self.num_classes)}
        gce_value = None
        if env_grads is not None and len(env_grads) >= 2:
            try:
                gce_value = gce(env_grads)
            except DegenerateInputError:
                gce_value = None
        return RoundMetrics(
            round=round_index,
            global_acc_globaltest=global_acc,
            personalized_acc_localtest=local.weighted_accuracy,
            mean_local_loss=local.weighted_loss,
            gce=gce_value,
            per_class_deviation_global=dev_global,
            per_class_deviation_local=dev_local,
        )


def _run(method: str, strategy: str | None, cfg: RunConfig, dataset, partition, model,
         local_update, personalize=None) -> RunHistory:
    """The round loop every method shares: sample, update locally, aggregate, personalize.

    ``local_update(client, w, rng, t)`` returns the client's local model and
    its last envelope gradient (None for methods without one).
    ``personalize(clients, w, t)``, when given, sets every client's theta
    after aggregation.
    """
    cfg.validate()
    if partition.num_clients != cfg.num_clients:
        raise ConfigError(
            f"partition has {partition.num_clients} clients, config expects {cfg.num_clients}")
    w = model.init_params(init_rng(cfg.seed))
    clients = make_clients(dataset, partition, model, cfg.batch_size, w)
    evaluator = Evaluator(model, clients, dataset.num_classes,
                          ft_step=cfg.alpha if cfg.tricks.ft else None,
                          track_deviations=cfg.track_deviations)
    rounds, trajectory = [], []
    for t in range(1, cfg.num_rounds + 1):
        sampled = sample_clients(cfg.seed, t, cfg.num_clients, cfg.sample_size)
        results = [local_update(clients[i], w, client_rng(cfg.seed, int(i), t), t)
                   for i in sampled]
        w = aggregate(w, [w_local for w_local, _ in results], cfg.beta)
        if personalize is not None:
            personalize(clients, w, t)
        env_grads = [g for _, g in results if g is not None]
        rounds.append(evaluator.compute(t, w, env_grads))
        if cfg.track_weights:
            trajectory.append(w.copy())
    return RunHistory(
        method=method, strategy=strategy, seed=cfg.seed, rounds=rounds,
        final_global=w, final_thetas=[c.theta for c in clients],
        global_trajectory=trajectory if cfg.track_weights else None)


def run_pfedbred(cfg: RunConfig, dataset, partition, model,
                 mmap: MirrorMap = SQUARED_NORM) -> RunHistory:
    """Full federated run with personalized Bregman-proximal local objectives."""
    def update(client, w, rng, t):
        res = local_round(client, w, cfg, mmap, rng, round_index=t)
        return res.w_local, res.envelope_grad

    return _run("pfedbred", cfg.strategy.kind, cfg, dataset, partition, model, update)


def run_fedavg(cfg: RunConfig, dataset, partition, model) -> RunHistory:
    """FedAvg baseline; the global model doubles as every client's personalized model."""
    def update(client, w, rng, t):
        return fedavg_local_round(client, w, cfg, rng, round_index=t), None

    def personalize(clients, w, t):
        for c in clients:
            c.theta = w

    return _run("fedavg", None, cfg, dataset, partition, model, update, personalize)


def run_perfedavg_fo(cfg: RunConfig, dataset, partition, model) -> RunHistory:
    """First-order meta-learning baseline; personalization is fine-tuning from the global model."""
    def update(client, w, rng, t):
        return perfedavg_local_round(client, w, cfg, rng, round_index=t), None

    def personalize(clients, w, t):
        for c in clients:
            c.theta = perfedavg_personalize(c, w, cfg, eval_rng(cfg.seed, c.index, t))
            _check_bounded(c.theta, t, c.index)

    return _run("perfedavg_fo", None, cfg, dataset, partition, model, update, personalize)
