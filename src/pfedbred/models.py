"""Classification models with closed-form gradients.

One network class covers both models: a stack of dense layers with a leaky
ReLU between layers and a softmax cross-entropy head.  Multinomial logistic
regression (``Mclr``) is the one-layer case and the two-layer network
(``Dnn``) has one hidden layer.  Parameters are one flat vector holding each
layer's weight matrix (row-major, outputs x inputs) and then its bias, layer
after layer.  Gradients are written out by hand so that training needs no
autodiff framework and stays bit-reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericalError

LEAKY_SLOPE = 0.01


def _shift_exp_sum(logits: np.ndarray):
    """The softmax head's pass over the last axis: logits less their max, its exp, the exp's sum."""
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, np.add.reduce(e, axis=-1, keepdims=True)


def softmax(logits: np.ndarray) -> np.ndarray:
    _, e, total = _shift_exp_sum(logits)
    return e / total


def _label_losses(shifted: np.ndarray, total: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """-log softmax at each label, from the softmax pass: shifted[label] less log(total)."""
    return -(np.take_along_axis(shifted, labels[..., None], axis=-1)[..., 0]
             - np.log(total[..., 0]))


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-example loss -log softmax(logits)[..., label], without the probabilities."""
    shifted, _, total = _shift_exp_sum(logits)
    return _label_losses(shifted, total, labels)


def cross_entropy_and_softmax(logits: np.ndarray, labels: np.ndarray):
    """``cross_entropy`` and the probabilities, from one pass."""
    shifted, e, total = _shift_exp_sum(logits)
    return _label_losses(shifted, total, labels), e / total


def _check_finite(arr: np.ndarray, what: str) -> None:
    # the ufunc reduce skips the Python-level dispatch of .all(), a large share of a small check
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise NumericalError(f"non-finite values in {what}")


class Network:
    """Dense layers of widths ``sizes`` = (features, hidden..., classes) under a softmax head.

    Every layer but the last is followed by a leaky ReLU with slope
    ``negative_slope`` below zero.
    """

    def __init__(self, sizes: tuple, negative_slope: float = LEAKY_SLOPE):
        if min(sizes) < 1 or sizes[-1] < 2:
            raise ValueError("need num_features >= 1, num_classes >= 2, hidden >= 1")
        self.num_features, self.num_classes = sizes[0], sizes[-1]
        self.negative_slope = negative_slope
        # per layer: weight slice, weight shape (fan_out, fan_in), bias slice of the flat vector
        self._layers, offset = [], 0
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            bias = offset + fan_out * fan_in
            self._layers.append((slice(offset, bias), (fan_out, fan_in), slice(bias, bias + fan_out)))
            offset = bias + fan_out
        self.num_params = offset
        self._eye = np.eye(self.num_classes)  # one-hot rows of the labels

    def _unpack(self, params: np.ndarray) -> list:
        if params.shape != (self.num_params,):
            raise DimensionError(f"expected {self.num_params} parameters, got shape {params.shape}")
        return [(params[w].reshape(shape), params[b]) for w, shape, b in self._layers]

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        """One uniform(+-1/sqrt(fan_in)) draw per layer, weights then bias, in layer order."""
        draws = []
        for w, (_, fan_in), b in self._layers:
            bound = 1.0 / np.sqrt(fan_in)
            draws.append(rng.uniform(-bound, bound, size=b.stop - w.start))
        return np.concatenate(draws)

    def _forward(self, layers: list, features: np.ndarray):
        """Each layer's input, each hidden layer's pre-activation, and the logits."""
        inputs, pres = [features], []
        out = features @ layers[0][0].T + layers[0][1]
        for w, b in layers[1:]:
            pres.append(out)
            inputs.append(np.where(out > 0.0, out, self.negative_slope * out))
            out = inputs[-1] @ w.T + b
        _check_finite(out, "logits")
        return inputs, pres, out

    def logits(self, params: np.ndarray, features: np.ndarray) -> np.ndarray:
        return self._forward(self._unpack(params), features)[2]

    def per_example_loss(self, params, features, labels) -> np.ndarray:
        return cross_entropy(self.logits(params, features), labels)

    def loss(self, params, features, labels) -> float:
        return float(self.per_example_loss(params, features, labels).mean())

    def grad(self, params, features, labels) -> np.ndarray:
        layers = self._unpack(params)
        inputs, pres, out = self._forward(layers, features)
        _, e, total = _shift_exp_sum(out)
        # d(mean cross-entropy)/d(logits); p - 0.0 is p, so the one-hot rows touch only the labels
        delta = (e / total - self._eye[labels]) / out.shape[0]
        g = np.empty(self.num_params)
        for i in range(len(layers) - 1, -1, -1):
            w, shape, b = self._layers[i]
            np.add.reduce(delta, axis=0, out=g[b])
            np.matmul(delta.T, inputs[i], out=g[w].reshape(shape))
            if i:
                delta = (delta @ layers[i][0]) * np.where(pres[i - 1] > 0.0, 1.0,
                                                           self.negative_slope)
        return g


class Mclr(Network):
    """Multinomial logistic regression: softmax(W x + b)."""

    def __init__(self, num_features: int, num_classes: int):
        super().__init__((num_features, num_classes))


class Dnn(Network):
    """Two-layer network: softmax(W2 leaky_relu(W1 x + b1) + b2)."""

    def __init__(self, num_features: int, num_classes: int, hidden: int = 100,
                 negative_slope: float = LEAKY_SLOPE):
        super().__init__((num_features, hidden, num_classes), negative_slope)
        self.hidden = hidden


def make_model(kind: str, num_features: int, num_classes: int):
    if kind == "mclr":
        return Mclr(num_features, num_classes)
    if kind == "dnn":
        return Dnn(num_features, num_classes)
    raise ValueError(f"unknown model kind {kind!r}; expected 'mclr' or 'dnn'")


class LossOracle:
    """Internal: mini-batch loss/gradient access to one client's rows of a shared dataset.

    The oracle keeps the dataset's ``features`` and ``labels`` and the client's
    ``rows`` into them, never a copy of those rows.  ``draw_batch`` samples
    ``batch_size`` of the ``n`` positions in ``rows`` uniformly without
    replacement.  When the batch covers all of them it returns ``arange(n)``
    without consuming the generator, so full-batch runs are reproducible
    regardless of how often batches are drawn.
    """

    def __init__(self, model, dataset, rows: np.ndarray, batch_size: int):
        self.model = model
        self.features = dataset.features
        self.labels = dataset.labels
        self.rows = rows
        self.n = rows.shape[0]
        self.batch_size = batch_size

    def draw_batch(self, rng: np.random.Generator) -> np.ndarray:
        if self.batch_size >= self.n:
            return np.arange(self.n)
        return rng.choice(self.n, size=self.batch_size, replace=False)

    def _select(self, idx):
        rows = self.rows if idx is None else self.rows[idx]
        return self.features[rows], self.labels[rows]

    def value(self, params: np.ndarray, idx=None) -> float:
        x, y = self._select(idx)
        return self.model.loss(params, x, y)

    def gradient(self, params: np.ndarray, idx=None) -> np.ndarray:
        x, y = self._select(idx)
        return self.model.grad(params, x, y)
