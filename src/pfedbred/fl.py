"""Federated training loops with personalized Bregman-proximal local objectives.

The runners, ``RunConfig``, ``PriorStrategy`` and ``RunHistory`` are public.  Everything
else here is internal: clients, the evaluator, local steps, aggregation, the rng streams.

Each client keeps a personalized model theta next to its copy of the global
model.  A local step first selects a prior mean mu from the current local
state (several selection strategies below), then moves theta toward the
proximal point of the local loss around mu, and finally takes a gradient step
on the local copy of the global model using the envelope gradient
lam * hess g*(mu) @ (mu - theta), which is lam * (mu - theta) for the
squared-norm map.  The server aggregates the returned local models.
``compute_prior_mean`` alone decides the prior: a strategy that shifts mu by
a loss gradient draws its own mini-batch for it, before the proximal steps
draw theirs.

The reference baselines (FedAvg, and a first-order meta-learning method that
personalizes by fine-tuning) run the same round loop, so runs are comparable.  The
methods differ only in two hooks: a sampled client's local update and the
personalization step after aggregation.

Clients index the shared dataset: a client's ``LossOracle`` holds the
dataset's arrays and the client's train rows, and ``ClientState.test_rows``
its test rows, so no client keeps a copy of its examples.  ``make_clients``,
where a partition first meets its dataset, checks every client's rows, the
nonempty test split among them.  The round loop runs it and ``RunConfig.validate``
first, and the internals here trust the two and check nothing again.

Determinism: every stochastic choice is drawn from a generator seeded by a
tuple of (run seed, client index, round index, purpose tag), and clients are
updated one after another in sorted order.

A parameter vector is never written in place: every update builds a new
array, so arrays are shared freely (all clients start from the one initial
vector, and FedAvg's clients all hold the global model).  ``Evaluator``
relies on the rule, keeping a client's scores while the client holds the
same array, and enforces it: it marks every theta it keeps, and every global
model it scores, read-only, so a write in place raises instead of serving a
stale score.

One piece of work runs on a second thread.  When one pooled-test-set forward
costs at least WORKER_MIN_MULADDS multiply-adds (pooled rows x parameters),
``Evaluator`` runs the pooled-set forward (``model.logits``) of each new array
that evaluation will score there on one worker thread, started as soon as the
array exists: the global model after aggregation, a theta after its client's
local update or personalization, a fine-tuned theta once built.  The round
loop evaluates round t after round t + 1's local updates and aggregation,
from the thetas of the end of round t, so these forwards overlap training.
No byte can move: the worker runs the same float operations on arrays
already marked read-only, and ``Evaluator.compute`` uses its logits where the
sequential loop scored that array, so an error from that forward surfaces
there too; if round t + 1's training fails, round t is evaluated first, so
its error is still the one raised.  Below the size no thread starts: per-array jobs
on the mclr workloads cost eval_wide_n400 12% (README, "Per-round records").

Every runner call pins the OpenBLAS that numpy's wheels bundle to one thread for its
whole length, the worker included, and restores the count afterwards: a matrix product
split over threads can sum in another order, so the metrics would depend on the thread
count.  Where that library is missing, runs go unpinned and say so on stderr, once per
process.  ``PFB_THREADS`` stays ignored.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DegenerateInputError, DivergenceError, is_int
from .metrics import (RoundMetrics, class_groups, class_means, gce, loss_deviation,
                      per_class_stats, stacked_class_stats)
from .mirror import SQUARED_NORM, MirrorMap, bregman_prox, envelope_gradient
from .models import LossOracle, cross_entropy

STRATEGY_KINDS = ("vanilla", "lg", "meg", "mh", "mh_variant")
_GRADIENT_SHIFT = ("lg", "mh", "mh_variant")
_MEMORY_SHIFT = ("meg", "mh", "mh_variant")

DIVERGENCE_LIMIT = 1e8

# Pooled-set forwards of at least this many multiply-adds run on a worker thread (see above).
WORKER_MIN_MULADDS = 10**7

# Purpose tags keep the per-(seed, client, round) generator streams disjoint.
TAG_INIT = 0
TAG_SAMPLE = 1
TAG_LOCAL = 2
TAG_EVAL = 3


def _require(ok: bool, key: str, name: str, rule: str, value) -> None:
    """Raise a ConfigError naming the key unless ``ok`` holds and ``value`` is finite."""
    if not ok:
        raise ConfigError(f"config key {key!r} ({name}) must {rule}, got {value!r}")
    if not -np.inf < value < np.inf:  # an int compares exactly, however large
        raise ConfigError(f"config key {key!r} ({name}) must be finite, got {value!r}")


def init_rng(seed: int) -> np.random.Generator:
    """Internal: the generator of the initial parameters."""
    return np.random.default_rng(np.random.SeedSequence((seed, TAG_INIT)))


def sample_rng(seed: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, round_index, TAG_SAMPLE)))


def client_rng(seed: int, client_index: int, round_index: int) -> np.random.Generator:
    """Internal: the generator of one client's local update in one round."""
    return np.random.default_rng(
        np.random.SeedSequence((seed, client_index, round_index, TAG_LOCAL)))


def eval_rng(seed: int, client_index: int, round_index: int) -> np.random.Generator:
    """Internal: the generator of one client's personalization after one round."""
    return np.random.default_rng(
        np.random.SeedSequence((seed, client_index, round_index, TAG_EVAL)))


def sample_clients(seed: int, round_index: int, num_clients: int, sample_size: int) -> np.ndarray:
    """Internal: the participating clients of one round, uniformly without replacement."""
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
        for name in ("eta_tilde_alpha", "eta_tilde"):
            _require(getattr(self, name) >= 0, "strategy", name, "be nonnegative",
                     getattr(self, name))


def compute_prior_mean(strategy: PriorStrategy, oracle: LossOracle, w_local: np.ndarray,
                       memorized_local: np.ndarray, theta_prev: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """Internal: the prior mean mu for one local step under the given strategy.

    A gradient-shift kind draws one batch from ``rng`` and takes the loss
    gradient on it at w (mh_variant again at its lookahead point, on the same
    batch); a memory-shift kind then subtracts eta * (memorized_local -
    theta_prev).  vanilla draws nothing and returns w_local.  With
    eta_alpha == eta == 0 every strategy returns w_local's values.
    """
    kind = strategy.kind
    mu = w_local
    if kind in _GRADIENT_SHIFT:
        idx = oracle.draw_batch(rng)
        grad = oracle.gradient(w_local, idx)
        step = strategy.eta_alpha
        if kind == "mh_variant":
            grad = oracle.gradient(w_local - strategy.eta_tilde * grad, idx)
            step = strategy.eta * strategy.eta_tilde_alpha
        mu = w_local - step * grad
    if kind in _MEMORY_SHIFT:
        mu = mu - strategy.eta * (memorized_local - theta_prev)
    return mu


@dataclass
class RunConfig:
    """Hyperparameters for one federated run.

    alpha_m     step size for the local update of the global-model copy.
    alpha       step size inside the proximal inner solver (and fine-tuning).
    lam         weight of the divergence term in the local objective.
    beta        server mixing weight; 1 replaces the global model with the
                client average, 2 (aggregation momentum) steps to
                2 * mean(w_i) - w_old.
    num_rounds / local_steps / prox_steps
                communication rounds (T), local steps per round (R), and
                inner gradient steps per proximal solve (K).
    sample_size / num_clients
                participating clients per round (S) out of N total.
    batch_size  examples per mini-batch (B).
    ft          fine-tune each personalized model one full-batch step at
                alpha before local testing.
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
    ft: bool = False
    seed: int = 0
    track_deviations: bool = True

    def validate(self) -> None:
        """Check every range rule; each message names the config key and the field."""
        for key, name in (("T", "num_rounds"), ("R", "local_steps"), ("K", "prox_steps"),
                          ("N", "num_clients"), ("batch", "batch_size")):
            value = getattr(self, name)
            _require(is_int(value) and value >= 1, key, name, "be an integer >= 1", value)
        _require(is_int(self.sample_size) and 1 <= self.sample_size <= self.num_clients, "S",
                 "sample_size", f"be an integer in [1, N={self.num_clients}]", self.sample_size)
        _require(self.lam > 0, "lambda", "lam", "be positive", self.lam)
        _require(self.alpha_m >= 0, "alpha_m", "alpha_m", "be nonnegative", self.alpha_m)
        _require(self.alpha > 0, "alpha", "alpha", "be positive", self.alpha)
        _require(self.beta > 0, "beta", "beta", "be positive", self.beta)
        _require(is_int(self.seed) and self.seed >= 0, "seed", "seed",
                 "be a nonnegative integer", self.seed)


@dataclass
class ClientState:
    """Internal: one client's persistent state across rounds.

    The client indexes the shared dataset: ``oracle`` gathers its train rows
    and ``test_rows`` lists its test rows, so it holds no feature array.
    ``theta`` is the personalized model, carried between a client's
    participations.  ``memorized_local`` is the local copy of the global
    model as it stood at the end of the client's previous round; all local
    steps within a round read the same snapshot.
    """

    index: int
    oracle: LossOracle
    test_rows: np.ndarray
    theta: np.ndarray
    memorized_local: np.ndarray


def make_clients(dataset, partition, model, batch_size: int, w0: np.ndarray) -> list[ClientState]:
    """Internal: one client per partition entry, each holding ``w0`` as theta and memorized model.

    Here a partition meets its dataset, so a ConfigError names the first client whose rows
    break a rule: 1-d arrays, nonempty train and test splits, integer rows, all in [0, n),
    and disjoint splits.
    """
    owner = np.full(dataset.n, -1)  # owner[r] == i: row r is in client i's train split
    clients = []
    for i, (tr, te) in enumerate(zip(partition.train, partition.test)):
        if not all(isinstance(r, np.ndarray) and r.ndim == 1 for r in (tr, te)):
            raise ConfigError(f"client {i} has rows that are not 1-d arrays")
        if tr.size == 0:
            raise ConfigError(f"client {i} has an empty train split")
        if te.size == 0:  # the evaluator weighs each client by its test split's size
            raise ConfigError(f"client {i} has an empty local test split")
        if not all(np.issubdtype(r.dtype, np.integer) for r in (tr, te)):  # not bool
            raise ConfigError(f"client {i} has non-integer rows ({tr.dtype}, {te.dtype})")
        rows = np.concatenate((tr, te))
        if rows.min() < 0 or rows.max() >= dataset.n:  # a negative row would index from the end
            raise ConfigError(f"client {i} has rows outside the dataset's {dataset.n} rows")
        owner[tr] = i  # np.intersect1d would import numpy.ma
        if (owner[te] == i).any():
            raise ConfigError(f"client {i} has overlapping train/test indices")
        clients.append(ClientState(index=i, oracle=LossOracle(model, dataset, tr, batch_size),
                                   test_rows=te, theta=w0, memorized_local=w0))
    return clients


def _check_bounded(w: np.ndarray, round_index: int, client_index: int,
                   step_index: int | None = None) -> None:
    """Raise DivergenceError past DIVERGENCE_LIMIT; no step index means personalization."""
    if not np.logical_and.reduce(np.abs(w) <= DIVERGENCE_LIMIT, axis=None):
        where = "personalization" if step_index is None else f"local step {step_index}"
        raise DivergenceError(
            f"parameters exceeded {DIVERGENCE_LIMIT:g} at round {round_index}, "
            f"client {client_index}, {where}",
            round_index=round_index, client_index=client_index, step_index=step_index)


def local_round(client: ClientState, w_global: np.ndarray, cfg: RunConfig,
                mmap: MirrorMap, rng: np.random.Generator,
                round_index: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Internal: run one client's local steps and update its persistent state.

    Per local step, the generator is consumed in a fixed order: first by the
    strategy's prior (``compute_prior_mean``), then one batch per inner
    proximal step.  Stores the final personalized model as the client's theta
    and the final local model as its memorized model, and returns the final
    local model and the envelope gradient of the last local step.
    """
    w = w_global
    theta = client.theta
    for r in range(cfg.local_steps):
        mu = compute_prior_mean(cfg.strategy, client.oracle, w, client.memorized_local,
                                theta, rng)
        theta = bregman_prox(mmap, cfg.lam, client.oracle, mu, cfg.prox_steps, cfg.alpha, rng)
        env = envelope_gradient(mmap, cfg.lam, mu, theta)
        w = w - cfg.alpha_m * env
        _check_bounded(w, round_index, client.index, r)
    client.theta = theta
    client.memorized_local = w
    return w, env


def fedavg_local_round(client: ClientState, w_global: np.ndarray, cfg: RunConfig,
                       rng: np.random.Generator, round_index: int = 0) -> np.ndarray:
    """Internal: plain local SGD on the client's loss."""
    oracle = client.oracle
    w = w_global
    for r in range(cfg.local_steps):
        idx = oracle.draw_batch(rng)
        w = w - cfg.alpha_m * oracle.gradient(w, idx)
        _check_bounded(w, round_index, client.index, r)
    return w


def perfedavg_local_round(client: ClientState, w_global: np.ndarray, cfg: RunConfig,
                          rng: np.random.Generator, round_index: int = 0) -> np.ndarray:
    """Internal: first-order meta steps, each descending at a lookahead point.

    Each local step draws two batches: the inner step moves to
    w - alpha * grad(w; batch1), the outer step applies that point's gradient
    on a second batch at step size alpha_m.
    """
    oracle = client.oracle
    w = w_global
    for r in range(cfg.local_steps):
        idx_inner = oracle.draw_batch(rng)
        inner = w - cfg.alpha * oracle.gradient(w, idx_inner)
        idx_outer = oracle.draw_batch(rng)
        w = w - cfg.alpha_m * oracle.gradient(inner, idx_outer)
        _check_bounded(w, round_index, client.index, r)
    return w


def perfedavg_personalize(client: ClientState, w_global: np.ndarray, cfg: RunConfig,
                          rng: np.random.Generator) -> np.ndarray:
    """Internal: the personalized model, two fine-tune steps from the global model."""
    oracle = client.oracle
    idx = oracle.draw_batch(rng)
    theta = w_global - cfg.alpha_m * oracle.gradient(w_global, idx)
    idx = oracle.draw_batch(rng)
    return theta - cfg.alpha * oracle.gradient(theta, idx)


def finetune_trick(theta: np.ndarray, oracle: LossOracle, step: float) -> np.ndarray:
    """Internal: one full-batch gradient step on the client's train split."""
    return theta - step * oracle.gradient(theta, None)


def aggregate(w_old: np.ndarray, collected, beta: float) -> np.ndarray:
    """Internal: the server update (1 - beta) * w_old + beta * mean(collected)."""
    return (1.0 - beta) * w_old + beta * np.stack(collected).mean(axis=0)


@dataclass
class RunHistory:
    """Everything a run leaves behind for analysis."""

    rounds: list
    final_global: np.ndarray
    final_thetas: list


class _Forwarded:
    """Stands in for the model once the worker has run a pooled-set forward."""

    def __init__(self, future):
        self.future = future

    def logits(self, params, features):
        return self.future.result()


class Evaluator:
    """Internal: per-round metric computation over a fixed client population.

    Parameter arrays are never written in place, so a client that still holds the theta it
    held when last scored keeps its scores.  Per client it keeps that theta, made read-only,
    and one row of each of five arrays: its model's accuracy, mean loss, per-class loss and
    class counts on the client's own split and, when deviations are tracked, per-class loss
    on the pooled set; the model is the theta, or with ``--ft`` its fine-tuned model.
    ``compute`` fine-tunes and scores only the clients whose theta is a new array (the
    sampled ones, or every client when personalization builds new thetas), in one stacked
    pass per (array, split size) on their splits.  On the pooled set ``w`` gets
    ``per_class_stats`` and each distinct new array its per-class losses only, one forward
    per array per call, so an array several clients hold (the initial vector in round 1,
    FedAvg's global model, which is also ``w``) is forwarded once.

    Inside a ``with`` block, and only when one pooled-set forward costs at least
    WORKER_MIN_MULADDS, ``start_pooled`` and ``start_personalized`` run the pooled-set
    forward of a new array on one worker thread, and ``compute`` scores that array from the
    worker's logits; leaving the block stops the worker; outside one, every forward runs inline.
    """

    def __init__(self, model, dataset, clients: list[ClientState],
                 ft_step: float | None = None, track_deviations: bool = True):
        self.model = model
        self.features, self.labels = dataset.features, dataset.labels
        self.clients = clients
        self.num_classes = dataset.num_classes
        self.ft_step = ft_step
        self.track_deviations = track_deviations
        self.sizes = np.array([c.test_rows.shape[0] for c in clients], dtype=np.float64)
        pooled = np.concatenate([c.test_rows for c in clients])
        self.global_x, self.global_y = self.features[pooled], self.labels[pooled]
        self._pooled_groups = class_groups(self.global_y[None], self.num_classes)
        self._scored = [None] * len(clients)
        n, c = len(clients), self.num_classes  # the five row arrays, in the order above
        self._rows = (np.zeros(n), np.zeros(n), np.zeros((n, c)), np.zeros((n, c)),
                      np.zeros((n, c)))
        self._worker = None
        self._forwards: dict = {}  # id(params) -> (params, future of its pooled-set logits)

    def __enter__(self):
        if self.global_x.shape[0] * self.model.num_params >= WORKER_MIN_MULADDS:
            self._worker = ThreadPoolExecutor(max_workers=1)
        return self

    def __exit__(self, *exc_info):
        if self._worker is not None:
            self._worker.shutdown(cancel_futures=True)
        self._worker = None
        self._forwards.clear()

    def start_pooled(self, params: np.ndarray) -> None:
        """Start the pooled-set forward of a new array on the worker, if there is one."""
        if self._worker is None or id(params) in self._forwards:
            return
        params.flags.writeable = False
        # the copied context carries numpy's error state, so the worker warns as the caller would
        job = self._worker.submit(contextvars.copy_context().run, self.model.logits, params,
                                  self.global_x[None])
        self._forwards[id(params)] = (params, job)

    def start_personalized(self, theta: np.ndarray) -> None:
        """``start_pooled`` for a new theta, when the theta itself is scored on the pooled set."""
        if self.track_deviations and self.ft_step is None:
            self.start_pooled(theta)

    def _finetune(self, client: ClientState, theta: np.ndarray, round_index: int) -> np.ndarray:
        theta = finetune_trick(theta, client.oracle, self.ft_step)
        _check_bounded(theta, round_index, client.index)
        if self.track_deviations:
            self.start_pooled(theta)
        return theta

    def _pooled_model(self, params: np.ndarray):
        """The model, or a stand-in for it once the worker has run ``params``' pooled forward."""
        started = self._forwards.pop(id(params), None)
        return self.model if started is None else _Forwarded(started[1])

    def _pooled_class_losses(self, theta: np.ndarray) -> np.ndarray:
        """``per_class_stats(...)[2]`` of a theta on the pooled set, and nothing else of it."""
        logits = self._pooled_model(theta).logits(theta, self.global_x[None])
        return class_means(cross_entropy(logits, self.global_y[None]), *self._pooled_groups)[0]

    def compute(self, round_index: int, w: np.ndarray, env_grads: list,
                thetas: list) -> RoundMetrics:
        """The round's metrics for global model ``w`` and one personalized model per client.

        ``thetas`` are the ones the clients held at the end of the round, not their current
        ones: the round loop evaluates a round after the next one's training.  ``env_grads``
        are the round's envelope gradients, empty for methods without one.
        """
        models = {}  # client index -> the model to score, for each client with a new theta
        for i, (th, scored) in enumerate(zip(thetas, self._scored)):
            if th is not scored:
                th.flags.writeable = False
                models[i] = (th if self.ft_step is None
                             else self._finetune(self.clients[i], th, round_index))
        w.flags.writeable = False  # RunHistory's arrays are read-only
        global_acc, _, w_losses, _ = per_class_stats(self._pooled_model(w), w, self.global_x,
                                                     self.global_y, self.num_classes)
        pooled = {id(w): w_losses}  # per-class losses on the pooled set of this call, by array
        groups: dict = {}  # (array, split size) -> the clients whose splits it scores
        for i, params in models.items():
            groups.setdefault((id(params), self.sizes[i]), []).append(i)
        for members in groups.values():
            idx = np.stack([self.clients[i].test_rows for i in members])  # (k, m) rows
            stats = stacked_class_stats(self.model, models[members[0]], self.features[idx],
                                        self.labels[idx], self.num_classes)
            for rows, column in zip(self._rows, stats):
                rows[members] = column
        acc, loss, per_class, counts, on_pooled = self._rows
        for i, params in models.items():
            if self.track_deviations:
                if id(params) not in pooled:
                    pooled[id(params)] = self._pooled_class_losses(params)
                on_pooled[i] = pooled[id(params)]
            self._scored[i] = thetas[i]
        weights = self.sizes / self.sizes.sum()
        dev_global, dev_local = {}, {}
        if self.track_deviations:
            dg = loss_deviation(on_pooled, np.ones(len(self.clients)))
            dl = loss_deviation(per_class, counts)
            dev_global = {c: float(dg[0, c]) for c in range(self.num_classes)}
            dev_local = {c: float(dl[0, c]) for c in range(self.num_classes)}
        gce_value = None
        if len(env_grads) >= 2:
            try:
                gce_value = gce(env_grads)
            except DegenerateInputError:
                gce_value = None
        return RoundMetrics(
            round=round_index,
            global_acc_globaltest=global_acc,
            personalized_acc_localtest=float(weights @ acc),
            mean_local_loss=float(weights @ loss),
            gce=gce_value,
            per_class_deviation_global=dev_global,
            per_class_deviation_local=dev_local,
        )


@functools.cache
def _openblas():
    """The thread-count getter and setter of numpy's bundled OpenBLAS, looked up once."""
    try:
        [path] = (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_-*.so")
        lib = ctypes.CDLL(str(path))
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        get.argtypes, get.restype, set_.argtypes = [], ctypes.c_int, [ctypes.c_int]
        return get, set_
    except (ValueError, OSError, AttributeError):  # not a numpy wheel's OpenBLAS: run unpinned
        print("warning: numpy's bundled OpenBLAS was not found; the metrics may depend on the "
              "BLAS thread count", file=sys.stderr)
        return (lambda: None), (lambda count: None)


@contextlib.contextmanager
def _one_blas_thread():
    """Pin numpy's bundled OpenBLAS to one thread (see above), restoring its count on exit."""
    get, set_ = _openblas()
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


@_one_blas_thread()
def _run(cfg: RunConfig, dataset, partition, model, local_update,
         personalize=None) -> RunHistory:
    """The round loop every method shares: sample, update locally, aggregate, personalize.

    ``local_update(client, w, rng, t)`` returns the client's local model and
    its last envelope gradient (None for methods without one).
    ``personalize(client, w, t)``, when given, returns each client's new theta
    after aggregation.  Round t is evaluated after round t + 1's local updates
    and aggregation (see the module docstring).
    """
    cfg.validate()
    if partition.num_clients != cfg.num_clients:
        raise ConfigError(
            f"partition has {partition.num_clients} clients, config expects {cfg.num_clients}")
    w = model.init_params(init_rng(cfg.seed))
    clients = make_clients(dataset, partition, model, cfg.batch_size, w)
    rounds, previous = [], None
    with Evaluator(model, dataset, clients, ft_step=cfg.alpha if cfg.ft else None,
                   track_deviations=cfg.track_deviations) as evaluator:
        for t in range(1, cfg.num_rounds + 1):
            try:
                sampled = sample_clients(cfg.seed, t, cfg.num_clients, cfg.sample_size)
                results = []
                for client in (clients[i] for i in sampled):
                    theta, rng = client.theta, client_rng(cfg.seed, client.index, t)
                    results.append(local_update(client, w, rng, t))
                    if client.theta is not theta:
                        evaluator.start_personalized(client.theta)
                w = aggregate(w, [w_local for w_local, _ in results], cfg.beta)
                evaluator.start_pooled(w)
            finally:  # also when training failed: an error of round t - 1 is raised first
                if previous is not None:
                    rounds.append(evaluator.compute(*previous))
            if personalize is not None:
                for c in clients:
                    c.theta = personalize(c, w, t)
                    evaluator.start_personalized(c.theta)
            previous = (t, w, [g for _, g in results if g is not None],
                        [c.theta for c in clients])
        rounds.append(evaluator.compute(*previous))
    return RunHistory(rounds=rounds, final_global=w, final_thetas=[c.theta for c in clients])


def run_pfedbred(cfg: RunConfig, dataset, partition, model,
                 mmap: MirrorMap = SQUARED_NORM) -> RunHistory:
    """Full federated run with personalized Bregman-proximal local objectives."""
    def update(client, w, rng, t):
        return local_round(client, w, cfg, mmap, rng, round_index=t)

    return _run(cfg, dataset, partition, model, update)


def run_fedavg(cfg: RunConfig, dataset, partition, model) -> RunHistory:
    """FedAvg baseline; the global model doubles as every client's personalized model."""
    def update(client, w, rng, t):
        return fedavg_local_round(client, w, cfg, rng, round_index=t), None

    def personalize(client, w, t):
        return w

    return _run(cfg, dataset, partition, model, update, personalize)


def run_perfedavg_fo(cfg: RunConfig, dataset, partition, model) -> RunHistory:
    """First-order meta-learning baseline; personalization is fine-tuning from the global model."""
    def update(client, w, rng, t):
        return perfedavg_local_round(client, w, cfg, rng, round_index=t), None

    def personalize(client, w, t):
        theta = perfedavg_personalize(client, w, cfg, eval_rng(cfg.seed, client.index, t))
        _check_bounded(theta, t, client.index)
        return theta

    return _run(cfg, dataset, partition, model, update, personalize)
