import numpy as np
import pytest

from pfedbred import Dataset, Dnn, Mclr, make_model
from pfedbred.errors import DimensionError, NumericalError
from pfedbred.models import LossOracle, softmax

from .helpers import dnn_pre_activations


def random_problem(model, scale, seed, n=8):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, model.num_features))
    y = rng.integers(0, model.num_classes, size=n)
    params = scale * rng.normal(size=model.num_params)
    return params, x, y


def finite_difference_check(model, params, x, y, coords, h=1e-5, tol=1e-4):
    analytic = model.grad(params, x, y)
    for i in coords:
        e = np.zeros_like(params)
        e[i] = h
        fd = (model.loss(params + e, x, y) - model.loss(params - e, x, y)) / (2 * h)
        denom = max(abs(analytic[i]), 1e-3)
        assert abs(fd - analytic[i]) / denom <= tol, (
            f"coord {i}: fd={fd}, analytic={analytic[i]}")


def test_mclr_zero_params_gives_log_c_loss():
    for c in (2, 5, 10):
        model = Mclr(4, c)
        rng = np.random.default_rng(c)
        x = rng.normal(size=(6, 4))
        y = rng.integers(0, c, size=6)
        assert model.loss(np.zeros(model.num_params), x, y) == pytest.approx(np.log(c))


def test_mclr_zero_params_predicts_uniform():
    model = Mclr(3, 4)
    probs = softmax(model.logits(np.zeros(model.num_params),
                                 np.random.default_rng(0).normal(size=(5, 3))))
    assert np.allclose(probs, 0.25)


def test_separable_loss_decreases_with_scale():
    # one example, params already pointing the right way: growing the margin
    # must shrink the loss toward zero
    model = Mclr(2, 2)
    x = np.array([[1.0, 0.0]])
    y = np.array([0])
    params = np.array([1.0, 0.0, -1.0, 0.0, 0.0, 0.0])
    losses = [model.loss(s * params, x, y) for s in (1.0, 2.0, 5.0, 20.0)]
    assert all(a > b for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 1e-8


def test_softmax_translation_invariance():
    model = Mclr(3, 4)
    rng = np.random.default_rng(1)
    params = rng.normal(size=model.num_params)
    x = rng.normal(size=(7, 3))
    shifted = params.copy()
    shifted[-4:] += 10.0  # same constant onto every class bias
    assert np.allclose(softmax(model.logits(params, x)),
                       softmax(model.logits(shifted, x)), atol=1e-9)


def test_mclr_loss_matches_per_example_loop():
    model = Mclr(5, 3)
    params, x, y = random_problem(model, 1.0, seed=7, n=8)
    per = []
    for i in range(8):
        logits = x[i] @ params[:15].reshape(3, 5).T + params[15:]
        logits = logits - logits.max()
        per.append(-np.log(np.exp(logits[y[i]]) / np.exp(logits).sum()))
    assert model.loss(params, x, y) == pytest.approx(np.mean(per), abs=1e-12)
    assert np.allclose(model.per_example_loss(params, x, y), per, atol=1e-12)


def test_batch_gradient_is_mean_of_single_example_gradients():
    for kind in ("mclr", "dnn"):
        model = make_model(kind, 4, 3)
        params, x, y = random_problem(model, 1.0, seed=11, n=6)
        singles = np.stack([model.grad(params, x[i:i + 1], y[i:i + 1]) for i in range(6)])
        assert np.max(np.abs(model.grad(params, x, y) - singles.mean(axis=0))) <= 1e-10


@pytest.mark.parametrize("scale", [0.01, 1.0, 10.0])
def test_mclr_gradient_matches_finite_differences(scale):
    model = Mclr(6, 4)
    params, x, y = random_problem(model, scale, seed=13)
    coords = np.random.default_rng(5).choice(model.num_params, size=20, replace=False)
    finite_difference_check(model, params, x, y, coords)


@pytest.mark.parametrize("scale", [0.01, 1.0, 10.0])
def test_dnn_gradient_matches_finite_differences(scale):
    model = Dnn(5, 3, hidden=16)
    params, x, y = random_problem(model, scale, seed=17)
    # a perturbation of h in one first-layer weight shifts a pre-activation
    # by at most h * |x|; keep every unit further than that from the kink
    assert np.abs(dnn_pre_activations(model, params, x)).min() > 5 * 1e-5 * np.abs(x).max()
    coords = np.random.default_rng(6).choice(model.num_params, size=20, replace=False)
    finite_difference_check(model, params, x, y, coords)


def test_dnn_leaky_relu_negative_side_in_gradient():
    # a hidden unit stuck on the negative side still passes a scaled signal
    model = Dnn(1, 2, hidden=1, negative_slope=0.25)
    x = np.array([[1.0]])
    y = np.array([0])
    # w1=-1, b1=-1 -> pre = -2 (negative side), w2=(1, 0), b2=0
    params = np.array([-1.0, -1.0, 1.0, 0.0, 0.0, 0.0])
    grad = model.grad(params, x, y)
    e = np.zeros(6)
    e[0] = 1e-6
    fd = (model.loss(params + e, x, y) - model.loss(params - e, x, y)) / 2e-6
    assert grad[0] == pytest.approx(fd, rel=1e-5)


def edge_batches(x, y, model, params):
    """Slices of the batch (x, y) that the bit-match tests cover, plus extreme rows.

    Three rows of ``x`` scaled by 1e3 push some softmax entries to exact
    zeros, on a label column and off it; a one-example batch is included too.
    """
    big = 1e3 * x[:3]
    probs = softmax(model.logits(params, big))
    assert (probs == 0.0).any() and (probs[np.arange(3), y[:3]] == 0.0).any()
    return [(x, y), (x[:1], y[:1]), (big, y[:3]), (big[:1], y[:1])]


def test_mclr_bit_matches_straight_line_softmax_regression():
    # the textbook gradient of the mean cross-entropy of softmax(W x + b), with
    # layout [W, b], written from scratch; every step must agree to the last bit
    d, c = 6, 4
    model = Mclr(d, c)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(9, d))
    y = rng.integers(0, c, size=9)
    params = 3.0 * model.init_params(np.random.default_rng(0))

    def grad(p, xb, yb):
        w, b = p[:c * d].reshape(c, d), p[c * d:]
        out = xb @ w.T + b
        e = np.exp(out - out.max(axis=1, keepdims=True))
        delta = e / e.sum(axis=1, keepdims=True)
        delta[np.arange(len(yb)), yb] -= 1.0
        delta /= len(yb)
        return np.concatenate([(delta.T @ xb).ravel(), delta.sum(axis=0)])

    for xb, yb in edge_batches(x, y, model, params):
        p = params
        for _ in range(4):
            g = grad(p, xb, yb)
            assert np.array_equal(model.grad(p, xb, yb), g)
            p = p - 0.5 * g


def test_dnn_bit_matches_straight_line_two_layer_net():
    # layout [W1, b1, W2, b2] and the leaky-ReLU forward and backward pass,
    # written from scratch; every step must agree to the last bit
    d, h, c, slope = 6, 5, 4, 0.01
    model = Dnn(d, c, hidden=h)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(9, d))
    y = rng.integers(0, c, size=9)

    init = np.random.default_rng(0)
    layer1 = init.uniform(-1.0 / np.sqrt(d), 1.0 / np.sqrt(d), size=h * d + h)
    layer2 = init.uniform(-1.0 / np.sqrt(h), 1.0 / np.sqrt(h), size=c * h + c)
    params = model.init_params(np.random.default_rng(0))
    assert np.array_equal(params, np.concatenate([layer1, layer2]))

    def forward(p, xb):
        w1, b1 = p[:h * d].reshape(h, d), p[h * d:h * d + h]
        w2, b2 = p[h * d + h:h * d + h + c * h].reshape(c, h), p[h * d + h + c * h:]
        pre = xb @ w1.T + b1
        act = np.where(pre > 0.0, pre, slope * pre)
        return w2, pre, act, act @ w2.T + b2

    def grad(p, xb, yb):
        w2, pre, act, out = forward(p, xb)
        shifted = out - out.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        delta2 = e / e.sum(axis=1, keepdims=True)
        delta2[np.arange(len(yb)), yb] -= 1.0
        delta2 /= len(yb)
        delta1 = (delta2 @ w2) * np.where(pre > 0.0, 1.0, slope)
        return np.concatenate([(delta1.T @ xb).ravel(), delta1.sum(axis=0),
                               (delta2.T @ act).ravel(), delta2.sum(axis=0)])

    params = 3.0 * params  # pre-activations on both sides of the kink
    for xb, yb in edge_batches(x, y, model, params):
        p = params
        for _ in range(4):
            assert np.array_equal(model.logits(p, xb), forward(p, xb)[3])
            g = grad(p, xb, yb)
            assert np.array_equal(model.grad(p, xb, yb), g)
            p = p - 0.5 * g


def test_init_params_bounds_and_determinism():
    mclr = Mclr(9, 4)
    p1 = mclr.init_params(np.random.default_rng(42))
    p2 = mclr.init_params(np.random.default_rng(42))
    assert np.array_equal(p1, p2)
    assert np.all(np.abs(p1) <= 1.0 / 3.0)

    dnn = Dnn(4, 3, hidden=8)
    pd = dnn.init_params(np.random.default_rng(0))
    layer1 = pd[: 8 * 4 + 8]
    layer2 = pd[8 * 4 + 8:]
    assert np.all(np.abs(layer1) <= 0.5)
    assert np.all(np.abs(layer2) <= 1.0 / np.sqrt(8))


def test_param_shape_mismatch_raises():
    model = Mclr(3, 2)
    with pytest.raises(DimensionError):
        model.logits(np.zeros(5), np.zeros((1, 3)))


def test_nonfinite_logits_raise():
    model = Mclr(2, 2)
    params = np.full(model.num_params, 1e308)
    with np.errstate(over="ignore"), pytest.raises(NumericalError):
        model.logits(params, np.full((1, 2), 10.0))


def test_make_model_rejects_unknown_kind():
    with pytest.raises(ValueError, match="mclr"):
        make_model("cnn", 4, 2)


def whole(x, y):
    """A two-class dataset of the rows ``x, y``, and the indices of all its rows."""
    return Dataset(features=x, labels=y, num_classes=2), np.arange(len(y))


FOUR = whole(np.zeros((4, 2)), np.array([0, 1, 0, 1]))


def test_oracle_full_batch_short_circuits_rng():
    model = Mclr(2, 2)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 2))
    y = np.array([0, 1, 0, 1, 0])
    oracle = LossOracle(model, *whole(x, y), batch_size=8)
    state_before = rng.bit_generator.state
    idx = oracle.draw_batch(rng)
    assert np.array_equal(idx, np.arange(5))
    assert rng.bit_generator.state == state_before


def test_oracle_minibatch_draws_without_replacement():
    model = Mclr(2, 2)
    rng = np.random.default_rng(1)
    x = np.random.default_rng(0).normal(size=(30, 2))
    y = np.tile([0, 1], 15)
    oracle = LossOracle(model, *whole(x, y), batch_size=10)
    idx = oracle.draw_batch(rng)
    assert idx.shape == (10,)
    assert len(np.unique(idx)) == 10
    assert idx.min() >= 0 and idx.max() < 30


def test_oracle_none_index_means_full_view():
    model = Mclr(2, 2)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 2))
    y = np.array([0, 0, 1, 1, 0, 1])
    oracle = LossOracle(model, *whole(x, y), batch_size=6)
    params = rng.normal(size=model.num_params)
    assert oracle.value(params, None) == pytest.approx(model.loss(params, x, y))
    assert np.array_equal(oracle.gradient(params, np.arange(6)),
                          oracle.gradient(params, None))


def test_oracle_indexes_the_shared_dataset():
    # the oracle keeps the dataset's arrays and gathers its rows per call, in row order
    model = Mclr(2, 2)
    rng = np.random.default_rng(3)
    ds = Dataset(features=rng.normal(size=(7, 2)), labels=np.array([0, 1, 1, 0, 1, 0, 0]),
                 num_classes=2)
    rows = np.array([5, 1, 3, 6])
    oracle = LossOracle(model, ds, rows, batch_size=2)
    assert oracle.features is ds.features and oracle.labels is ds.labels
    assert oracle.n == len(rows)
    params = rng.normal(size=model.num_params)
    x, y = ds.features[rows], ds.labels[rows]
    assert np.array_equal(oracle.gradient(params, None), model.grad(params, x, y))
    idx = np.array([3, 0])
    assert np.array_equal(oracle.gradient(params, idx), model.grad(params, x[idx], y[idx]))
    assert oracle.value(params, idx) == model.loss(params, x[idx], y[idx])


@pytest.mark.parametrize("batch_size, drawn", [(1, 1), (np.int64(3), 3), (10**30, 4)])
def test_oracle_accepts_integer_batch_size(batch_size, drawn):
    oracle = LossOracle(Mclr(2, 2), *FOUR, batch_size)
    assert len(oracle.draw_batch(np.random.default_rng(0))) == drawn


def test_gradient_determinism():
    model = Dnn(3, 2, hidden=5)
    params, x, y = random_problem(model, 1.0, seed=23, n=4)
    g1 = model.grad(params, x, y)
    g2 = model.grad(params.copy(), x.copy(), y.copy())
    assert np.array_equal(g1, g2)
