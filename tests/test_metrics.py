import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfedbred import (Dataset, DegenerateInputError, Dnn, Mclr, gce, loss_deviation,
                      partition_dirichlet, per_class_stats, savitzky_golay, synth_gaussian_mixture)
from pfedbred.errors import DimensionError
from pfedbred.fl import ClientState, Evaluator
from pfedbred.metrics import class_groups, class_means, stacked_class_stats
from pfedbred.models import LossOracle, cross_entropy, softmax

ALWAYS_ZERO = np.array([0.0, 0.0, 1.0, 0.0])  # Mclr(1, 2) params: bias favors class 0


def clients_on(model, params, test_sets):
    """A two-class dataset and one client per test split on it, each holding ``params``.

    Every client trains on the dataset's first five rows, of class 0.  Row 5, of class 1, is no
    client's: it gives every class an example.  The test splits follow, in order.
    """
    sizes = [len(y) for _, y in test_sets]
    ds = Dataset(features=np.concatenate([np.zeros((6, 1))] + [x for x, _ in test_sets]),
                 labels=np.concatenate([[0, 0, 0, 0, 0, 1]] + [y for _, y in test_sets]),
                 num_classes=2)
    ends = 6 + np.cumsum(sizes)
    return ds, [ClientState(index=i, oracle=LossOracle(model, ds, np.arange(5), 5),
                            test_rows=np.arange(end - size, end), theta=params,
                            memorized_local=params)
                for i, (size, end) in enumerate(zip(sizes, ends))]


def weighted_local(model, params, test_sets):
    """The round metrics of one model held by every client, as ``Evaluator.compute`` weighs them."""
    params = params.copy()  # compute marks what it scores read-only; the caller's stays writable
    ds, clients = clients_on(model, params, test_sets)
    return Evaluator(model, ds, clients).compute(1, params, [], [params] * len(clients))


def test_per_class_stats_marks_absent_classes():
    model = Mclr(1, 3)
    x = np.array([[0.1], [0.2], [0.3]])
    y = np.array([0, 0, 1])  # class 2 absent
    acc, mean_loss, per_class, counts = per_class_stats(model, np.zeros(6), x, y, 3)
    assert per_class[2] == 0.0
    assert counts.tolist() == [2, 1, 0]
    assert mean_loss == pytest.approx(np.log(3))


def test_perfect_memorizer_scores_one():
    model = Mclr(1, 2)
    x = np.array([[1.0], [-1.0]])
    y = np.array([0, 1])
    params = np.array([10.0, -10.0, 0.0, 0.0])  # w0=10, w1=-10: sign(x) decides
    acc = per_class_stats(model, params, x, y, 2)[0]
    assert acc == 1.0


def test_zero_params_scores_chance_on_balanced_data():
    model = Mclr(2, 4)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(400, 2))
    y = np.tile(np.arange(4), 100)
    acc = per_class_stats(model, np.zeros(model.num_params), x, y, 4)[0]
    assert acc == pytest.approx(0.25, abs=1e-9)  # argmax ties resolve to class 0


def test_weighted_local_accuracy_example():
    model = Mclr(1, 2)
    big = (np.zeros((30, 1)), np.zeros(30, dtype=np.int64))  # all class 0: acc 1.0
    small = (np.zeros((10, 1)), np.ones(10, dtype=np.int64))  # all class 1: acc 0.0
    result = weighted_local(model, ALWAYS_ZERO, [big, small])
    assert result.personalized_acc_localtest == pytest.approx(0.75)
    assert result.mean_local_loss == pytest.approx(
        0.75 * np.log1p(1 / np.e) + 0.25 * np.log1p(np.e))
    # class counts [[30, 0], [0, 10]] weigh the per-class means: each class is held by one client
    assert result.per_class_deviation_local == pytest.approx({0: 0.0, 1: -np.log1p(np.e)})


def test_weighted_local_equal_accuracy_passes_through():
    model = Mclr(1, 2)
    sets = [(np.zeros((5, 1)), np.zeros(5, dtype=np.int64)) for _ in range(3)]
    result = weighted_local(model, ALWAYS_ZERO, sets)
    assert result.personalized_acc_localtest == pytest.approx(1.0)


def test_evaluator_writes_no_gce_for_a_zero_envelope_gradient():
    model = Mclr(1, 2)
    sets = [(np.zeros((5, 1)), np.zeros(5, dtype=np.int64))]
    evaluator = Evaluator(model, *clients_on(model, ALWAYS_ZERO.copy(), sets))
    w, thetas = ALWAYS_ZERO.copy(), [c.theta for c in evaluator.clients]
    assert evaluator.compute(1, w, [np.eye(4)[0], np.eye(4)[1]], thetas).gce == 0.0
    assert evaluator.compute(2, w, [np.eye(4)[0], np.zeros(4)], thetas).gce is None


def test_gce_unit_values():
    assert gce([[1.0, 0.0], [0.0, 1.0]]) == pytest.approx(0.0, abs=1e-9)
    assert gce([[1.0, 0.0], [1.0, 0.0]]) == pytest.approx(1.0, abs=1e-9)
    forty_five = np.array([[1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)]])
    assert gce(forty_five) == pytest.approx(0.5, abs=1e-9)


def test_gce_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        gce([[1.0, 0.0]])
    with pytest.raises(DegenerateInputError):
        gce([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DimensionError):
        gce([1.0, 0.0])
    # a non-finite vector has no direction; it gave NaN
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(DegenerateInputError, match="non-finite"):
            gce([[1.0, bad], [0.0, 1.0]])


@pytest.mark.parametrize("scale", [1e160, 1e-170, 1e-310])
def test_gce_survives_norms_out_of_range(scale):
    # at 1e160 the norms overflowed and orthogonal vectors read 1.0; at 1e-170 they
    # underflowed and the vectors were taken for zero
    assert gce(scale * np.array([[1.0, 1.0], [1.0, -1.0]])) == pytest.approx(0.0, abs=1e-12)
    assert gce(scale * np.array([[1.0, 0.0], [1.0, 0.0]])) == pytest.approx(1.0, abs=1e-12)
    mixed = np.array([[scale, scale], [1.0, 0.0]])
    assert gce(mixed) == pytest.approx(gce([[1.0, 1.0], [1.0, 0.0]]), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=6, max_size=6),
       st.floats(0.1, 100.0), st.floats(0.1, 100.0))
def test_gce_scale_and_permutation_invariant(flat, c1, c2):
    mat = np.array(flat).reshape(2, 3)
    if np.any(np.linalg.norm(mat, axis=1) < 1e-6):
        return
    base = gce(mat)
    scaled = gce(mat * np.array([[c1], [c2]]))
    assert scaled == pytest.approx(base, abs=1e-9)
    assert gce(mat[::-1]) == pytest.approx(base, abs=1e-9)
    assert 0.0 <= base <= 1.0


def test_loss_deviation_equal_losses_vanish():
    losses = np.full((4, 3), 2.5)
    dev = loss_deviation(losses, np.ones(4))
    assert np.allclose(dev, 0.0)


def test_loss_deviation_examples():
    dev = loss_deviation(np.array([[2.0], [4.0]]), np.ones(2))
    assert np.allclose(dev[:, 0], [-1.0, 1.0])
    weighted = loss_deviation(np.array([[2.0], [6.0]]), np.array([0.75, 0.25]))
    assert np.allclose(weighted[:, 0], [-1.0, 3.0])


def test_loss_deviation_zero_weight_column_keeps_raw():
    losses = np.array([[1.0, 5.0], [3.0, 7.0]])
    weights = np.array([[1.0, 0.0], [1.0, 0.0]])
    dev = loss_deviation(losses, weights)
    assert np.allclose(dev[:, 0], [-1.0, 1.0])
    assert np.allclose(dev[:, 1], [5.0, 7.0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=6, max_size=6),
       st.lists(st.floats(0.1, 5.0), min_size=3, max_size=3))
def test_loss_deviation_weighted_zero_sum(flat, ws):
    losses = np.array(flat).reshape(3, 2)
    w = np.array(ws)
    dev = loss_deviation(losses, w)
    assert np.allclose(w @ dev, 0.0, atol=1e-8)


def test_loss_deviation_validation():
    with pytest.raises(DimensionError):
        loss_deviation(np.zeros(3), np.ones(3))
    with pytest.raises(DimensionError):
        loss_deviation(np.zeros((3, 2)), np.ones(2))
    with pytest.raises(ValueError, match="nonnegative"):
        loss_deviation(np.zeros((2, 2)), np.array([-1.0, 1.0]))
    # NaN weights kept the raw losses and inf ones gave NaN
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            loss_deviation(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([bad, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            loss_deviation(np.ones((2, 2)), np.array([[1.0, bad], [1.0, 1.0]]))


def test_savgol_reproduces_polynomials_including_edges():
    t = np.arange(25, dtype=np.float64)
    linear = 3.0 * t - 7.0
    assert np.allclose(savitzky_golay(linear, 5, 1), linear, atol=1e-9)
    quadratic = 0.5 * t ** 2 - 2.0 * t + 1.0
    assert np.allclose(savitzky_golay(quadratic, 5, 2), quadratic, atol=1e-9)
    constant = np.full(11, 4.2)
    assert np.allclose(savitzky_golay(constant, 7, 2), constant, atol=1e-12)
    # a fit of order 20 over positions 0..30 would be ill-conditioned and warn
    degree_20 = np.polynomial.Polynomial(np.linspace(1.0, -1.0, 21))(np.linspace(-1, 1, 45))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.allclose(savitzky_golay(degree_20, 31, 20), degree_20, atol=1e-9)


def test_savgol_smooths_noise():
    rng = np.random.default_rng(0)
    noisy = np.sin(np.linspace(0, 3, 60)) + 0.3 * rng.standard_normal(60)
    smooth = savitzky_golay(noisy, 11, 2)
    assert np.std(np.diff(smooth)) < np.std(np.diff(noisy))


def test_savgol_window_one_is_identity():
    series = np.array([1.0, 4.0, 2.0])
    out = savitzky_golay(series, 1, 0)
    assert np.array_equal(out, series)
    assert out is not series


def test_savgol_matches_scipy_interp_mode():
    signal = pytest.importorskip("scipy.signal")
    rng = np.random.default_rng(3)
    for _ in range(300):
        window = int(rng.choice(np.arange(1, 32, 2)))
        order = int(rng.integers(0, min(window, 5)))
        series = rng.standard_normal(int(rng.integers(window, window + 40)))
        series *= 10.0 ** rng.uniform(-3, 3)
        reference = signal.savgol_filter(series, window, order, mode="interp")
        assert np.max(np.abs(savitzky_golay(series, window, order) - reference)) \
            <= 1e-9 * np.max(np.abs(series))


def test_savgol_validation():
    series = np.arange(10, dtype=np.float64)
    with pytest.raises(ValueError, match="odd"):
        savitzky_golay(series, 4, 1)
    with pytest.raises(ValueError, match="order"):
        savitzky_golay(series, 5, 5)
    with pytest.raises(ValueError, match="shorter"):
        savitzky_golay(series[:3], 5, 1)
    with pytest.raises(DimensionError):
        savitzky_golay(series.reshape(2, 5), 3, 1)


@pytest.mark.parametrize("model", [Mclr(5, 4), Dnn(5, 4, hidden=7)], ids=["mclr", "dnn"])
def test_per_class_stats_matches_two_forward_passes(model):
    # one forward pass must give bit for bit what per_example_loss and softmax(logits) give
    rng = np.random.default_rng(1)
    x = rng.normal(size=(60, 5))
    y = rng.integers(0, 4, size=60)
    params = 3.0 * model.init_params(rng)
    acc, mean_loss, per_class, counts = per_class_stats(model, params, x, y, 4)
    losses = model.per_example_loss(params, x, y)
    preds = np.argmax(softmax(model.logits(params, x)), axis=1)
    assert acc == float(np.mean(preds == y))
    assert mean_loss == float(losses.mean())
    assert per_class.tolist() == [float(losses[y == c].mean()) for c in range(4)]
    assert counts.tolist() == np.bincount(y, minlength=4).tolist()


@pytest.mark.parametrize("model", [Mclr(10, 10), Dnn(784, 10)], ids=["mclr", "dnn"])
def test_stacked_class_stats_bit_matches_per_split_scoring(model):
    # each row of one stacked pass equals that split's own per_class_stats exactly
    ds = synth_gaussian_mixture(10, model.num_features, 30, 1.0, seed=0)
    part = partition_dirichlet(ds, 12, 0.3, seed=1)
    splits = [(ds.features[te], ds.labels[te]) for te in part.test]
    by_size = {}
    for x, y in splits:
        by_size.setdefault(y.size, []).append((x, y))
    assert len(by_size) > 1  # ragged split sizes
    assert max(len(group) for group in by_size.values()) > 1
    assert any(np.bincount(y, minlength=10).min() == 0 for _, y in splits)  # absent classes
    rng = np.random.default_rng(2)
    arrays = [model.init_params(rng)] + [3.0 * model.init_params(rng) for _ in range(3)]
    for params in arrays:  # one array shared by every split, then several distinct arrays
        for group in by_size.values():
            xs, ys = zip(*group)
            stacked = stacked_class_stats(model, params, np.stack(xs), np.stack(ys), 10)
            for row, (x, y) in enumerate(group):
                acc, mean_loss, per_class, counts = per_class_stats(model, params, x, y, 10)
                assert stacked[0][row] == acc and stacked[1][row] == mean_loss
                assert np.array_equal(stacked[2][row], per_class)
                assert stacked[2].dtype == per_class.dtype
                assert np.array_equal(stacked[3][row], counts)
                assert stacked[3].dtype == counts.dtype


def one_hot_split(model):
    """Rows e_c of classes 0, 2 and 4 (1 and 3 absent) and parameters whose logits are 1000 at
    the label and 0 elsewhere: a gap past 745, where exp underflows, so every loss is 0."""
    y = np.repeat([0, 2, 4], [3, 5, 2])
    x = np.eye(model.num_features)[y]
    gain = 1000.0 * np.eye(model.num_classes, model.num_features)
    if isinstance(model, Dnn):  # the hidden layer passes e_c on, the output layer scales it
        first = np.eye(model.hidden, model.num_features)
        gain = 1000.0 * np.eye(model.num_classes, model.hidden)
        params = np.concatenate([first.ravel(), np.zeros(model.hidden), gain.ravel(),
                                 np.zeros(model.num_classes)])
    else:
        params = np.concatenate([gain.ravel(), np.zeros(model.num_classes)])
    return x, y, params


@pytest.mark.parametrize("model", [Mclr(6, 5), Dnn(6, 5, hidden=7)], ids=["mclr", "dnn"])
def test_class_losses_bit_match_per_class_stats(model):
    # the evaluator scores a theta on the pooled set by its per-class losses alone; they must
    # be per_class_stats' bit for bit, and the mean of the loss written out in one pass
    ds = synth_gaussian_mixture(5, 6, 40, 1.0, seed=0)
    keep = np.isin(ds.labels, [0, 2, 4])  # classes 1 and 3 absent
    rng = np.random.default_rng(3)
    cases = [(ds.features[keep], ds.labels[keep], model.init_params(rng)),
             (ds.features[keep], ds.labels[keep], 30.0 * model.init_params(rng)),
             one_hot_split(model)]
    for x, y, params in cases:
        logits = model.logits(params, x)
        shifted = logits - logits.max(axis=1, keepdims=True)
        losses = -np.take_along_axis(
            shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)), y[:, None], axis=1)[:, 0]
        written_out = [losses[y == c].mean() if (y == c).any() else 0.0 for c in range(5)]
        lean = class_means(cross_entropy(model.logits(params, x[None]), y[None]),
                           *class_groups(y[None], 5))[0]
        assert np.array_equal(lean, per_class_stats(model, params, x, y, 5)[2])
        assert lean.tolist() == written_out
        assert lean.dtype == np.float64
    assert not lean.any()  # the one-hot case: every loss is exactly 0
