"""Small loss oracles and dataset builders shared across test modules."""

from __future__ import annotations

import gzip
import struct

import numpy as np

from pfedbred import Dataset, Partition, fl


class QuadraticLoss:
    """f(p) = 0.5 (p - a)^T A (p - a), full-batch only.

    Matches the oracle interface the proximal solver expects.  draw_batch
    always reports the single "example" and never consumes the generator,
    like a real oracle whose batch covers its whole view.
    """

    def __init__(self, a, matrix=None):
        self.a = np.asarray(a, dtype=np.float64)
        self.matrix = None if matrix is None else np.asarray(matrix, dtype=np.float64)

    def draw_batch(self, rng):
        return np.arange(1)

    def value(self, params, idx=None):
        d = np.asarray(params, dtype=np.float64) - self.a
        if self.matrix is None:
            return 0.5 * float(d @ d)
        return 0.5 * float(d @ self.matrix @ d)

    def gradient(self, params, idx=None):
        d = np.asarray(params, dtype=np.float64) - self.a
        if self.matrix is None:
            return d
        return self.matrix @ d


def dnn_pre_activations(model, params, features):
    """Hidden pre-activations x @ W1.T + b1 of a one-hidden-layer network.

    Reads the documented flat layout: W1 (hidden x features, row-major),
    then b1, then the output layer.
    """
    d, h = model.num_features, model.hidden
    w1 = params[:h * d].reshape(h, d)
    b1 = params[h * d:h * d + h]
    return features @ w1.T + b1


class ZeroLoss:
    """f identically zero; the prox should return its anchor unchanged."""

    def draw_batch(self, rng):
        return np.arange(1)

    def value(self, params, idx=None):
        return 0.0

    def gradient(self, params, idx=None):
        return np.zeros_like(np.asarray(params, dtype=np.float64))


def two_blob_dataset(n_per_class=30, dims=2, spread=2.0, seed=0) -> Dataset:
    rng = np.random.default_rng(seed)
    means = np.zeros((2, dims))
    means[0, 0] = -spread
    means[1, 0] = spread
    labels = np.repeat(np.arange(2, dtype=np.int64), n_per_class)
    features = means[labels] + rng.standard_normal((labels.size, dims))
    order = rng.permutation(labels.size)
    return Dataset(features=features[order], labels=labels[order], num_classes=2)


def even_partition(dataset: Dataset, num_clients: int, train_fraction=0.9) -> Partition:
    """Deterministic contiguous split into equally sized clients."""
    blocks = np.array_split(np.arange(dataset.n), num_clients)
    train, test = [], []
    for block in blocks:
        cut = max(1, min(int(round(len(block) * train_fraction)), len(block) - 1))
        train.append(block[:cut])
        test.append(block[cut:])
    return Partition(train=tuple(train), test=tuple(test))


def record_global_models(monkeypatch) -> list:
    """Patch ``fl.aggregate`` to append every round's new global model to the returned list.

    The round loop looks ``aggregate`` up in ``fl``'s globals, so the patch sees each
    server update, in order, without the trainer keeping a copy.
    """
    aggregate, trajectory = fl.aggregate, []

    def recording(*args):
        trajectory.append(aggregate(*args))
        return trajectory[-1]

    monkeypatch.setattr(fl, "aggregate", recording)
    return trajectory


def write_idx_images(path, array, magic=0x00000803, compress=False):
    dims = array.shape
    payload = struct.pack(">I", magic) + b"".join(struct.pack(">I", d) for d in dims)
    payload += array.astype(np.uint8).tobytes()
    opener = gzip.open if compress else open
    with opener(path, "wb") as fh:
        fh.write(payload)


def write_idx_labels(path, labels, magic=0x00000801, compress=False):
    payload = struct.pack(">I", magic) + struct.pack(">I", len(labels))
    payload += np.asarray(labels, dtype=np.uint8).tobytes()
    opener = gzip.open if compress else open
    with opener(path, "wb") as fh:
        fh.write(payload)
