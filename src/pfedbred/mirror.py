"""Mirror maps and Bregman proximal machinery.

A mirror map is a strictly convex, differentiable potential g whose gradient
pair (grad g, grad g*) moves points between the primal domain of g and the
domain of its convex conjugate g*.  The Bregman divergence of g,

    D_g(x, y) = g(x) - g(y) - <grad g(y), x - y>,

generalizes the squared Euclidean distance, which is recovered by
g(x) = 0.5 ||x||^2.  Personalized local objectives regularize with the
divergence of the conjugate, D_{g*}(theta, mu), so the proximal operator and
envelope below are expressed in conjugate form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, DomainError, NumericalError, is_int

# Domains are open sets; boundary points are rejected rather than clamped.
_DOMAIN_CHECKS: dict[str, Callable[[np.ndarray], bool]] = {
    "reals": lambda x: bool(np.logical_and.reduce(np.isfinite(x), axis=None)),
    "positive": lambda x: bool(np.isfinite(x).all() and (x > 0.0).all()),
    "unit_interval": lambda x: bool(np.isfinite(x).all() and (x > 0.0).all() and (x < 1.0).all()),
}


@dataclass(frozen=True)
class MirrorMap:
    """A convex potential with the callables needed by the proximal machinery.

    Every registered conjugate g* is defined on all of the reals, where prox
    iterates and prior means live, so those are checked only for finiteness.

    Attributes:
        name: registry key.
        domain: where g itself is defined ("reals", "positive", "unit_interval").
        eval_g: x -> g(x).
        grad_g: x -> grad g(x), the primal-to-dual map.
        grad_g_conj: s -> grad g*(s), the dual-to-primal map (inverse of grad_g).
        hess_g_conj_apply: (s, d) -> hess g*(s) @ d without materializing the matrix.
    """

    name: str
    domain: str
    eval_g: Callable[[np.ndarray], float]
    grad_g: Callable[[np.ndarray], np.ndarray]
    grad_g_conj: Callable[[np.ndarray], np.ndarray]
    hess_g_conj_apply: Callable[[np.ndarray, np.ndarray], np.ndarray]


def check_domain(name: str, x: np.ndarray, what: str = "point") -> None:
    """Raise DomainError when x falls outside the named open domain."""
    try:
        ok = _DOMAIN_CHECKS[name](x)
    except KeyError:
        raise ValueError(f"unknown domain {name!r}") from None
    if not ok:
        raise DomainError(f"{what} violates domain {name!r}")


def _as_vector(x, what: str) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise DimensionError(f"{what} must be a 1-d vector, got shape {a.shape}")
    return a


def _check_same_shape(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape:
        raise DimensionError(f"shape mismatch: {x.shape} vs {y.shape}")


def conjugate_value(mmap: MirrorMap, s: np.ndarray) -> float:
    """Evaluate g*(s) through the Fenchel identity g*(s) = <s, x> - g(x) at x = grad g*(s)."""
    s = _as_vector(s, "dual point")
    check_domain("reals", s, "dual point")
    x = mmap.grad_g_conj(s)
    return float(s @ x) - float(mmap.eval_g(x))


def bregman_divergence(mmap: MirrorMap, x, y) -> float:
    """D_g(x, y) = g(x) - g(y) - <grad g(y), x - y>.

    Nonnegative for any strictly convex g, zero only at x == y.
    """
    x = _as_vector(x, "x")
    y = _as_vector(y, "y")
    _check_same_shape(x, y)
    check_domain(mmap.domain, x, "x")
    check_domain(mmap.domain, y, "y")
    return float(mmap.eval_g(x)) - float(mmap.eval_g(y)) - float(mmap.grad_g(y) @ (x - y))


def bregman_divergence_conjugate(mmap: MirrorMap, x, y) -> float:
    """D_{g*}(x, y), the divergence of the conjugate potential."""
    x = _as_vector(x, "x")
    y = _as_vector(y, "y")
    _check_same_shape(x, y)
    return conjugate_value(mmap, x) - conjugate_value(mmap, y) - float(mmap.grad_g_conj(y) @ (x - y))


def bregman_prox(mmap: MirrorMap, lam: float, loss, mu, steps: int, step_size: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Approximate argmin_theta f(theta) + lam * D_{g*}(theta, mu).

    Runs ``steps`` stochastic gradient steps from ``mu`` at constant
    ``step_size``, drawing one mini-batch per step from ``loss``.  ``loss``
    must expose ``draw_batch(rng)`` and ``gradient(params, idx)``.
    """
    if not lam > 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    if not (is_int(steps) and steps >= 1):
        raise ValueError(f"steps must be >= 1 (an integer), got {steps!r}")
    if not 0.0 < step_size < np.inf:
        raise ValueError(f"step_size must be positive and finite, got {step_size}")
    mu = _as_vector(mu, "mu")
    check_domain("reals", mu, "mu")
    draw, gradient, grad_g_conj = loss.draw_batch, loss.gradient, mmap.grad_g_conj
    grad_ref = grad_g_conj(mu)
    theta = mu
    for k in range(steps):
        grad = gradient(theta, draw(rng)) + lam * (grad_g_conj(theta) - grad_ref)
        if not np.logical_and.reduce(np.isfinite(grad), axis=None):
            raise NumericalError(f"non-finite proximal gradient at inner step {k}")
        theta = theta - step_size * grad
        check_domain("reals", theta, f"prox iterate at inner step {k}")
    return theta


def envelope_value(mmap: MirrorMap, lam: float, loss, mu, theta) -> float:
    """Objective value f(theta) + lam * D_{g*}(theta, mu) at a candidate theta."""
    if not lam > 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    mu = _as_vector(mu, "mu")
    theta = _as_vector(theta, "theta")
    _check_same_shape(theta, mu)
    return float(loss.value(theta, None)) + lam * bregman_divergence_conjugate(mmap, theta, mu)


def envelope_gradient(mmap: MirrorMap, lam: float, mu, theta_tilde) -> np.ndarray:
    """Gradient of the envelope mu -> min_theta f(theta) + lam * D_{g*}(theta, mu).

    By Danskin's theorem it is the gradient of lam * D_{g*}(theta, mu) in mu
    at the minimizer theta_tilde, lam * hess g*(mu) @ (mu - theta_tilde).
    For the squared-norm map the Hessian is the identity and this is
    lam * (mu - theta_tilde).
    """
    mu = _as_vector(mu, "mu")
    theta_tilde = _as_vector(theta_tilde, "theta_tilde")
    _check_same_shape(mu, theta_tilde)
    return lam * mmap.hess_g_conj_apply(mu, mu - theta_tilde)


def _neg_entropy(x: np.ndarray) -> float:
    return float(np.sum(x * np.log(x)))


def _sigmoid(s: np.ndarray) -> np.ndarray:
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    es = np.exp(s[~pos])
    out[~pos] = es / (1.0 + es)
    return out


def _make_squared_norm() -> MirrorMap:
    return MirrorMap(
        name="squared_norm",
        domain="reals",
        eval_g=lambda x: 0.5 * float(x @ x),
        grad_g=lambda x: np.asarray(x, dtype=np.float64),
        grad_g_conj=lambda s: np.asarray(s, dtype=np.float64),
        hess_g_conj_apply=lambda s, d: np.asarray(d, dtype=np.float64),
    )


def _make_negative_entropy() -> MirrorMap:
    return MirrorMap(
        name="negative_entropy",
        domain="positive",
        eval_g=_neg_entropy,
        grad_g=lambda x: np.log(x) + 1.0,
        grad_g_conj=lambda s: np.exp(s - 1.0),
        hess_g_conj_apply=lambda s, d: np.exp(s - 1.0) * d,
    )


def _make_logistic() -> MirrorMap:
    def eval_g(x):
        return float(np.sum(x * np.log(x) + (1.0 - x) * np.log1p(-x)))

    def hess_apply(s, d):
        p = _sigmoid(s)
        return p * (1.0 - p) * d

    return MirrorMap(
        name="logistic",
        domain="unit_interval",
        eval_g=eval_g,
        grad_g=lambda x: np.log(x) - np.log1p(-x),
        grad_g_conj=_sigmoid,
        hess_g_conj_apply=hess_apply,
    )


MIRROR_MAPS: dict[str, MirrorMap] = {
    m.name: m
    for m in (_make_squared_norm(), _make_negative_entropy(), _make_logistic())
}

SQUARED_NORM = MIRROR_MAPS["squared_norm"]


def get_mirror_map(name: str) -> MirrorMap:
    try:
        return MIRROR_MAPS[name]
    except KeyError:
        known = ", ".join(sorted(MIRROR_MAPS))
        raise KeyError(f"unknown mirror map {name!r}; registered: {known}") from None
