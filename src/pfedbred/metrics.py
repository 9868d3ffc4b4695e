"""Evaluation metrics for federated runs.

Covers the two accuracy views (global model on pooled test data, personalized
models on their own clients' test data), per-class loss deviations against the
population mean, the generalized coherence estimate over client update
directions, and Savitzky-Golay smoothing for plotting noisy round series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateInputError, DimensionError
from .models import cross_entropy_and_softmax

_ZERO_NORM_TOL = 1e-300


@dataclass
class RoundMetrics:
    """What gets recorded after each aggregation."""

    round: int
    global_acc_globaltest: float
    personalized_acc_localtest: float
    mean_local_loss: float
    gce: float | None = None
    per_class_deviation_global: dict[int, float] = field(default_factory=dict)
    per_class_deviation_local: dict[int, float] = field(default_factory=dict)


def class_groups(labels, num_classes):
    """Each split's rows by class, for ``class_means``: labels (k, m) -> a stable argsort of
    each split's labels, which lists each class's rows in ascending order, and the (k,
    num_classes) counts."""
    counts = np.bincount((labels + num_classes * np.arange(len(labels))[:, None]).ravel(),
                         minlength=len(labels) * num_classes).reshape(-1, num_classes)
    return np.argsort(labels, axis=-1, kind="stable"), counts


def class_means(losses, order, counts):
    """Per-class mean of (k, m) losses, 0 for an absent class; ``order, counts`` are
    ``class_groups(labels, num_classes)``.

    Gathered in ``order``, each class's losses are one contiguous run, in the order
    ``losses[j][labels[j] == c]`` lists them, and its mean is the sum and division that
    ``.mean()`` runs on that array.
    """
    grouped = np.take_along_axis(losses, order, axis=-1)
    ends = np.cumsum(counts, axis=-1)
    means = np.zeros(counts.shape)
    present = np.nonzero(counts)
    for j, c, end, n in zip(*present, ends[present].tolist(), counts[present].tolist()):
        means[j, c] = np.add.reduce(grouped[j, end - n:end]) / n
    return means


def stacked_class_stats(model, params, features, labels, num_classes):
    """``per_class_stats`` of one model on k splits: features (k, m, D), labels (k, m).

    One forward and one softmax pass run each split's float operations unchanged, so row j
    is split j's result bit for bit.  Absent classes get loss 0 and count 0.  Predictions are
    the probabilities' argmax: the logits' can break ties differently once values underflow.
    """
    losses, probs = cross_entropy_and_softmax(model.logits(params, features), labels)
    accs = np.mean(np.argmax(probs, axis=-1) == labels, axis=-1)
    order, counts = class_groups(labels, num_classes)
    return accs, losses.mean(axis=-1), class_means(losses, order, counts), counts


def per_class_stats(model, params, features, labels, num_classes):
    """Accuracy, mean loss, per-class loss and counts on one split: k = 1 of the stacked form."""
    acc, loss, per_class, counts = (column[0] for column in stacked_class_stats(
        model, params, features[None], labels[None], num_classes))
    return float(acc), float(loss), per_class, counts


def gce(vectors) -> float:
    """Generalized coherence estimate of a set of finite, nonzero vectors.

    One minus the determinant of the normalized Gram matrix: 0 for mutually
    orthogonal directions, 1 when any two directions coincide.  The Gram
    matrix is positive semidefinite with unit diagonal, so the result lies
    in [0, 1].
    """
    mat = np.asarray(vectors, dtype=np.float64)
    if mat.ndim != 2:
        raise DimensionError(f"expected a 2-d stack of vectors, got shape {mat.shape}")
    if mat.shape[0] < 2:
        raise DegenerateInputError("coherence needs at least two vectors")
    if not np.isfinite(mat).all():
        raise DegenerateInputError("coherence is undefined for non-finite vectors")
    with np.errstate(over="ignore"):  # an overflowed norm is rescaled below
        norms = np.linalg.norm(mat, axis=1)
    odd = ~((norms > _ZERO_NORM_TOL) & (norms < np.inf))
    if odd.any():  # a norm over- or underflowed: scale those rows by their largest magnitude
        peaks = np.where(odd, np.abs(mat).max(axis=1), 1.0)
        if not peaks.all():
            raise DegenerateInputError("coherence is undefined for zero vectors")
        mat = mat / peaks[:, None]  # other rows divide by 1.0, which moves no bit
        norms = np.linalg.norm(mat, axis=1)
    unit = mat / norms[:, None]
    gram = unit @ unit.T
    det = float(np.linalg.det(gram))
    return float(min(max(1.0 - det, 0.0), 1.0))


def loss_deviation(losses, weights) -> np.ndarray:
    """Per-client deviation from the weighted per-class mean loss.

    ``losses`` is (clients, classes).  ``weights`` is either one weight per
    client or a full (clients, classes) matrix, e.g. per-class test counts.
    Columns whose weights sum to zero keep their raw losses (mean taken as 0).
    """
    losses = np.asarray(losses, dtype=np.float64)
    if losses.ndim != 2:
        raise DimensionError(f"losses must be 2-d, got shape {losses.shape}")
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim == 1:
        if w.shape[0] != losses.shape[0]:
            raise DimensionError("one weight per client is required")
        w = np.broadcast_to(w[:, None], losses.shape)
    elif w.shape != losses.shape:
        raise DimensionError(f"weights shape {w.shape} does not match losses {losses.shape}")
    if not np.all(np.isfinite(w) & (w >= 0)):
        raise ValueError("weights must be finite and nonnegative")
    totals = w.sum(axis=0)
    means = np.zeros(losses.shape[1])
    nonzero = totals > 0
    means[nonzero] = (w[:, nonzero] * losses[:, nonzero]).sum(axis=0) / totals[nonzero]
    return losses - means


def savitzky_golay(series, window: int, order: int) -> np.ndarray:
    """Least-squares polynomial smoothing over a sliding window.

    Edges are handled by fitting a polynomial to the first and last full
    windows and evaluating it at the edge positions, so polynomial inputs of
    degree <= order pass through unchanged everywhere.
    """
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"series must be 1-d, got shape {arr.shape}")
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and positive, got {window}")
    if not 0 <= order < window:
        raise ValueError(f"order must lie in [0, window), got {order}")
    if arr.size < window:
        raise ValueError(f"series of length {arr.size} is shorter than window {window}")
    half = window // 2
    # Legendre basis over window positions scaled to [-1, 1]: well conditioned
    # where monomials are not (condition 69 against 4.5e7 at window 31, order 20)
    vander = np.polynomial.legendre.legvander(np.linspace(-1.0, 1.0, window), order)
    hat = vander @ np.linalg.pinv(vander)  # window values -> their least-squares fit
    return np.concatenate([hat[:half] @ arr[:window],
                           sliding_window_view(arr, window) @ hat[half],
                           hat[half + 1:] @ arr[-window:]])
