import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfedbred import (MIRROR_MAPS, SQUARED_NORM, DimensionError, DomainError,
                      bregman_divergence, bregman_divergence_conjugate, bregman_prox,
                      conjugate_value, envelope_gradient, envelope_value,
                      get_mirror_map)
from pfedbred.errors import NumericalError

from .helpers import QuadraticLoss, ZeroLoss

NEG_ENTROPY = MIRROR_MAPS["negative_entropy"]


def test_squared_norm_divergence_is_half_squared_distance():
    assert bregman_divergence(SQUARED_NORM, [1.0, 2.0], [0.0, 0.0]) == pytest.approx(2.5)


def test_divergence_identity_is_zero():
    for mmap in MIRROR_MAPS.values():
        x = np.array([0.3, 0.7]) if mmap.domain != "reals" else np.array([-1.2, 4.0])
        assert bregman_divergence(mmap, x, x) == pytest.approx(0.0, abs=1e-12)


def test_negative_entropy_divergence_is_kl():
    x = np.array([0.5, 0.5])
    y = np.array([0.25, 0.75])
    kl = float(np.sum(x * np.log(x / y)))
    got = bregman_divergence(NEG_ENTROPY, x, y)
    assert got == pytest.approx(kl, abs=1e-12)
    assert got == pytest.approx(0.14384, abs=1e-5)


def test_divergence_rejects_domain_violations():
    with pytest.raises(DomainError):
        bregman_divergence(NEG_ENTROPY, [0.5, -0.1], [0.5, 0.5])
    with pytest.raises(DomainError):
        bregman_divergence(MIRROR_MAPS["logistic"], [0.5, 1.5], [0.5, 0.5])
    with pytest.raises(DomainError):
        bregman_divergence(SQUARED_NORM, [np.nan, 0.0], [0.0, 0.0])


def test_divergence_rejects_shape_mismatch():
    with pytest.raises(DimensionError):
        bregman_divergence(SQUARED_NORM, [1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DimensionError):
        bregman_divergence(SQUARED_NORM, np.ones((2, 2)), np.ones((2, 2)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=6),
       st.lists(st.floats(0.05, 0.95), min_size=1, max_size=6))
def test_divergence_nonnegative_all_maps(xs, ys):
    n = min(len(xs), len(ys))
    x = np.array(xs[:n])
    y = np.array(ys[:n])
    for mmap in MIRROR_MAPS.values():
        assert bregman_divergence(mmap, x, y) >= -1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6))
def test_conjugacy_round_trip(ss):
    s = np.array(ss)
    for mmap in MIRROR_MAPS.values():
        x = mmap.grad_g_conj(s)
        back = mmap.grad_g(x)
        assert np.linalg.norm(back - s) <= 1e-8


def test_conjugate_value_squared_norm_is_self():
    s = np.array([1.5, -2.0, 0.25])
    assert conjugate_value(SQUARED_NORM, s) == pytest.approx(0.5 * float(s @ s))


def test_conjugate_value_negative_entropy():
    # g*(s) = sum exp(s - 1) for g(x) = sum x ln x
    s = np.array([0.2, -1.0])
    assert conjugate_value(NEG_ENTROPY, s) == pytest.approx(float(np.exp(s - 1.0).sum()))


def test_conjugate_divergence_matches_primal_for_self_dual_map():
    x = np.array([0.4, -1.0])
    y = np.array([1.0, 2.0])
    assert bregman_divergence_conjugate(SQUARED_NORM, x, y) == pytest.approx(
        bregman_divergence(SQUARED_NORM, x, y))


def test_hessian_apply_matches_grad_conj_jacobian():
    rng = np.random.default_rng(3)
    s = rng.normal(size=4)
    d = rng.normal(size=4)
    h = 1e-6
    for name in ("squared_norm", "negative_entropy", "logistic"):
        mmap = MIRROR_MAPS[name]
        fd = (mmap.grad_g_conj(s + h * d) - mmap.grad_g_conj(s - h * d)) / (2 * h)
        assert np.allclose(mmap.hess_g_conj_apply(s, d), fd, atol=1e-6)


def test_prox_quadratic_reaches_closed_form():
    # argmin 0.5||t - a||^2 + 0.5||t||^2 = a / 2
    loss = QuadraticLoss([1.0, 0.0])
    theta = bregman_prox(SQUARED_NORM, 1.0, loss, np.zeros(2), 200, 0.1, np.random.default_rng(0))
    assert np.linalg.norm(theta - np.array([0.5, 0.0])) <= 1e-6


def test_prox_large_lam_collapses_to_anchor():
    loss = QuadraticLoss([1.0, 0.0])
    lam = 1e6
    mu = np.zeros(2)
    theta = bregman_prox(SQUARED_NORM, lam, loss, mu, 5, 1.0 / (1.0 + lam),
                         np.random.default_rng(0))
    assert np.linalg.norm(theta - mu) <= 1e-5


def test_prox_zero_loss_returns_anchor():
    mu = np.array([0.7, -0.3])
    theta = bregman_prox(SQUARED_NORM, 2.0, loss=ZeroLoss(), mu=mu, steps=17, step_size=0.05,
                         rng=np.random.default_rng(0))
    assert np.array_equal(theta, mu)


def test_prox_rejects_nonpositive_lam():
    with pytest.raises(ValueError):
        bregman_prox(SQUARED_NORM, 0.0, QuadraticLoss([0.0]), np.zeros(1), 1, 0.1,
                     np.random.default_rng(0))


@pytest.mark.parametrize("steps, step_size, match", [
    (0, 0.1, "steps must be >= 1"),
    (-1, 0.1, "steps must be >= 1"),
    (3, 0.0, "step_size must be positive and finite"),
    (3, -0.1, "step_size must be positive and finite"),
    (3, np.inf, "step_size must be positive and finite"),
    (3, np.nan, "step_size must be positive and finite"),
])
def test_prox_rejects_bad_steps_and_step_size(steps, step_size, match):
    # zero steps would return mu unsolved, a negative step would ascend
    with pytest.raises(ValueError, match=match):
        bregman_prox(SQUARED_NORM, 1.0, QuadraticLoss([1.0, 0.0]), np.zeros(2), steps,
                     step_size, np.random.default_rng(0))


@pytest.mark.parametrize("steps", [True, 2.5, 3.0, np.float64(2.0), "3"])
def test_prox_rejects_non_integer_steps(steps):
    # True would run one step and 2.5 would fail inside range(); both are config mistakes
    with pytest.raises(ValueError, match=r"steps must be >= 1 \(an integer\)"):
        bregman_prox(SQUARED_NORM, 1.0, QuadraticLoss([1.0, 0.0]), np.zeros(2), steps, 0.1,
                     np.random.default_rng(0))


def test_prox_reports_nonfinite_gradient_step():
    class BadLoss(ZeroLoss):
        def gradient(self, params, idx=None):
            return np.array([np.nan])

    with pytest.raises(NumericalError, match="step 0"):
        bregman_prox(SQUARED_NORM, 1.0, BadLoss(), np.zeros(1), 3, 0.1,
                     np.random.default_rng(0))


def test_prox_respects_dual_domain():
    # the gradient stays finite, but a huge step overflows the iterate to +inf,
    # which must be rejected rather than carried into the next step
    loss = QuadraticLoss([5.0])
    with np.errstate(over="ignore"), pytest.raises(DomainError,
                                                   match="prox iterate at inner step 0"):
        bregman_prox(SQUARED_NORM, 0.1, loss, np.array([0.0]), 50, 1e308,
                     np.random.default_rng(0))


def test_envelope_value_at_exact_prox():
    loss = QuadraticLoss([1.0, 0.0])
    assert envelope_value(SQUARED_NORM, 1.0, loss, np.zeros(2),
                          np.array([0.5, 0.0])) == pytest.approx(0.25)


def test_envelope_value_zero_loss_at_anchor():
    mu = np.array([0.2, 0.4])
    assert envelope_value(SQUARED_NORM, 3.0, ZeroLoss(), mu, mu) == pytest.approx(0.0)


def test_envelope_value_at_anchor_is_loss_value():
    loss = QuadraticLoss([2.0, -1.0])
    mu = np.array([0.5, 0.5])
    assert envelope_value(SQUARED_NORM, 7.0, loss, mu, mu) == pytest.approx(loss.value(mu))


def test_envelope_gradient_examples():
    got = envelope_gradient(SQUARED_NORM, 1.0, np.zeros(2), np.array([0.5, 0.0]))
    assert np.allclose(got, [-0.5, 0.0])
    assert np.allclose(envelope_gradient(SQUARED_NORM, 15.0, np.array([0.1, -0.2]),
                                         np.zeros(2)), [1.5, -3.0])
    mu = np.array([0.3, 0.9])
    assert np.allclose(envelope_gradient(SQUARED_NORM, 4.0, mu, mu), 0.0)


def test_envelope_gradient_matches_finite_differences():
    # d/dmu [min_t f(t) + lam D(t, mu)] = lam (mu - prox(mu)) for the
    # squared-norm map; the quadratic makes both sides cheap and exact.
    loss = QuadraticLoss([1.0, -2.0])
    lam = 3.0
    step = 1.0 / (1.0 + lam)  # one-step exact solve for this quadratic
    rng = np.random.default_rng(0)
    mu = np.array([0.25, 0.5])

    def psi(m):
        t = bregman_prox(SQUARED_NORM, lam, loss, m, 200, step, rng)
        return envelope_value(SQUARED_NORM, lam, loss, m, t)

    theta = bregman_prox(SQUARED_NORM, lam, loss, mu, 200, step, rng)
    analytic = envelope_gradient(SQUARED_NORM, lam, mu, theta)
    h = 1e-4
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (psi(mu + e) - psi(mu - e)) / (2 * h)
        assert abs(fd - analytic[i]) <= 1e-5


@pytest.mark.parametrize("name", ["squared_norm", "negative_entropy", "logistic"])
def test_envelope_gradient_exact_for_every_map(name):
    # Danskin: d/dmu [min_t f(t) + lam D_{g*}(t, mu)] = lam hess g*(mu) (mu - prox(mu));
    # dropping the Hessian is off by more than 1 here for the two non-quadratic maps
    mmap = MIRROR_MAPS[name]
    loss = QuadraticLoss([1.0, -2.0])
    lam = 3.0
    rng = np.random.default_rng(0)
    mu = np.array([0.25, 0.5])

    def prox(m):
        return bregman_prox(mmap, lam, loss, m, 200, 1.0 / (1.0 + lam), rng)

    def psi(m):
        return envelope_value(mmap, lam, loss, m, prox(m))

    analytic = envelope_gradient(mmap, lam, mu, prox(mu))
    h = 1e-4
    fd = np.array([(psi(mu + h * e) - psi(mu - h * e)) / (2 * h) for e in np.eye(2)])
    assert np.max(np.abs(fd - analytic)) <= 1e-7


def test_registry_lookup():
    assert sorted(MIRROR_MAPS) == ["logistic", "negative_entropy", "squared_norm"]
    assert get_mirror_map("squared_norm") is SQUARED_NORM
    with pytest.raises(KeyError, match="negative_entropy"):
        get_mirror_map("nope")
