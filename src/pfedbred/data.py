"""Datasets, client partitioners, and file loaders.

Partitioners map a labeled corpus onto client-local train/test index sets.
Two heterogeneity regimes are supported: a label-shard split where each
client holds a fixed number of classes, and a Dirichlet split whose
concentration parameter interpolates between near-single-class clients and
a uniform spread.
"""

from __future__ import annotations

import gzip
import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IdxFormatError, PartitionError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

_DIRICHLET_MAX_TRIES = 100


@dataclass(frozen=True)
class Dataset:
    """A labeled corpus: float features, integer labels in [0, num_classes)."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must align with features rows")
        if not np.issubdtype(self.labels.dtype, np.integer):  # bool is not an integer dtype
            raise ValueError(f"labels must be integers, got dtype {self.labels.dtype}")
        if self.features.shape[0] < 1:
            raise ValueError("dataset is empty")
        if not np.isfinite(self.features).all():
            raise ValueError("features contain non-finite values")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError("labels out of range for num_classes")
        counts = np.bincount(self.labels, minlength=self.num_classes)  # np.unique imports numpy.ma
        if not counts.all():
            raise ValueError(f"classes without examples: {np.flatnonzero(counts == 0).tolist()}")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class Partition:
    """Per-client train/test index sets over one dataset; ``make_clients`` checks the rows."""

    train: tuple
    test: tuple

    def __post_init__(self):
        if len(self.train) != len(self.test):
            raise ValueError("train and test must list the same clients")
        if len(self.train) < 1:
            raise ValueError("partition has no clients")

    @property
    def num_clients(self) -> int:
        return len(self.train)

    def client_sizes(self) -> np.ndarray:
        return np.array([len(tr) + len(te) for tr, te in zip(self.train, self.test)])


def _split_clients(per_client: list[np.ndarray], train_fraction: float,
                   rng: np.random.Generator) -> Partition:
    """Shuffle each client's indices and cut off a train prefix, to within one example of
    the fraction; a client with fewer than two examples is a PartitionError."""
    train, test = [], []
    for client, idx in enumerate(per_client):
        if idx.size < 2:
            raise PartitionError(f"client {client} received {idx.size} example(s); a client "
                                 "needs two, one to train on and one to test on")
        idx = rng.permutation(idx)
        train_n = min(max(int(round(len(idx) * train_fraction)), 1), len(idx) - 1)
        train.append(idx[:train_n])
        test.append(idx[train_n:])
    return Partition(train=tuple(train), test=tuple(test))


def _validate_partition_args(num_clients: int, train_fraction: float) -> None:
    if num_clients < 1:
        raise PartitionError(f"num_clients must be >= 1, got {num_clients}")
    if not 0.0 < train_fraction < 1.0:
        raise PartitionError(f"train_fraction must lie in (0, 1), got {train_fraction}")


def partition_label_shard(dataset: Dataset, num_clients: int, classes_per_client: int,
                          train_fraction: float = 0.9, seed: int = 0) -> Partition:
    """Assign each client a fixed number of classes, round-robin over a shuffled class list.

    Every class must land on at least one client, so
    num_clients * classes_per_client must reach num_classes, and each class's
    examples are split evenly among the clients holding it.  A client that
    gets fewer than two examples is a PartitionError.
    """
    _validate_partition_args(num_clients, train_fraction)
    c = dataset.num_classes
    if not 1 <= classes_per_client <= c:
        raise PartitionError(
            f"classes_per_client must lie in [1, {c}], got {classes_per_client}")
    if num_clients * classes_per_client < c:
        raise PartitionError(
            f"{num_clients} clients x {classes_per_client} classes cannot cover {c} classes")

    rng = np.random.default_rng(seed)
    shuffled = rng.permutation(c)
    holders: list[list[int]] = [[] for _ in range(c)]
    slot = 0
    for client in range(num_clients):
        for _ in range(classes_per_client):
            holders[shuffled[slot % c]].append(client)
            slot += 1

    per_client: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
    for cls in range(c):
        owners = holders[cls]
        cls_idx = np.flatnonzero(dataset.labels == cls)
        if len(cls_idx) < len(owners):
            raise PartitionError(
                f"class {cls} has {len(cls_idx)} examples for {len(owners)} holders")
        cls_idx = rng.permutation(cls_idx)
        for owner, chunk in zip(owners, np.array_split(cls_idx, len(owners))):
            per_client[owner].append(chunk)

    # each client holds classes_per_client >= 1 classes, so its list is nonempty
    return _split_clients([np.concatenate(chunks) for chunks in per_client], train_fraction, rng)


def _dirichlet_allocate(labels: np.ndarray, num_classes: int, num_clients: int,
                        alpha: float, rng: np.random.Generator):
    """One candidate allocation: per-class Dirichlet proportions over clients."""
    assignment: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
    for cls in range(num_classes):
        cls_idx = rng.permutation(np.flatnonzero(labels == cls))
        props = rng.dirichlet(np.full(num_clients, alpha))
        cuts = (np.cumsum(props)[:-1] * len(cls_idx)).astype(np.int64)
        for client, chunk in enumerate(np.split(cls_idx, cuts)):
            if chunk.size:
                assignment[client].append(chunk)
    return [np.concatenate(ch) if ch else np.empty(0, dtype=np.int64) for ch in assignment]


def _equalize_sizes(per_client: list[np.ndarray]) -> list[np.ndarray]:
    """Move surplus examples from the largest clients to the smallest ones."""
    sizes = np.array([len(a) for a in per_client])
    target = int(np.floor(sizes.sum() / len(per_client)))
    pools = [list(a) for a in per_client]
    surplus: list[int] = []
    for pool in pools:
        while len(pool) > target:
            surplus.append(pool.pop())
    order = np.argsort([len(p) for p in pools], kind="stable")
    for client in order:
        while len(pools[client]) < target and surplus:
            pools[client].append(surplus.pop())
    # Leftover examples (fewer than num_clients of them) go to the smallest pools.
    for client in np.argsort([len(p) for p in pools], kind="stable"):
        if not surplus:
            break
        pools[client].append(surplus.pop())
    return [np.array(sorted(p), dtype=np.int64) for p in pools]


def partition_dirichlet(dataset: Dataset, num_clients: int, alpha: float,
                        train_fraction: float = 0.9, seed: int = 0,
                        equalize: bool = False) -> Partition:
    """Split each class across clients with Dirichlet(alpha) proportions.

    Small alpha concentrates each class on few clients; large alpha
    approaches a uniform split.  Allocations leaving a client fewer than two
    examples are redrawn, up to a retry cap.  ``equalize`` additionally levels
    client sizes to at least n // num_clients by moving surplus examples,
    trading some skew for balance, so it redraws only an empty client.
    """
    _validate_partition_args(num_clients, train_fraction)
    if not 0.0 < alpha < np.inf:
        raise PartitionError(f"alpha must be positive and finite, got {alpha}")
    if 2 * num_clients > dataset.n:
        raise PartitionError(f"{num_clients} clients need two examples each, "
                             f"the dataset has {dataset.n}")

    least = 1 if equalize else 2  # leveling gives each client n // num_clients >= 2
    rng = np.random.default_rng(seed)
    for _ in range(_DIRICHLET_MAX_TRIES):
        per_client = _dirichlet_allocate(dataset.labels, dataset.num_classes,
                                         num_clients, alpha, rng)
        if all(a.size >= least for a in per_client):
            break
    else:
        raise PartitionError(
            f"could not give every client {least} example(s) in {_DIRICHLET_MAX_TRIES} tries; "
            f"alpha={alpha} with {num_clients} clients is too extreme")
    if equalize:
        per_client = _equalize_sizes(per_client)
    return _split_clients(per_client, train_fraction, rng)


def _open_maybe_gzip(path):
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(fh, count: int, offset: int, path, what: str) -> bytes:
    chunks, left = [], count  # 64 MiB a read at most: a corrupt header may claim 2**48 bytes
    while left and (chunk := fh.read(min(left, 1 << 26))):
        chunks.append(chunk)
        left -= len(chunk)
    buf = b"".join(chunks)  # one chunk is returned as it is, without a copy
    if len(buf) != count:
        raise IdxFormatError(
            f"{path}: truncated {what} at byte offset {offset}: "
            f"wanted {count} bytes, got {len(buf)}")
    return buf


def _read_idx(path, expected_magic: int) -> np.ndarray:
    with _open_maybe_gzip(path) as fh:
        magic = struct.unpack(">I", _read_exact(fh, 4, 0, path, "magic"))[0]
        if magic != expected_magic:
            raise IdxFormatError(
                f"{path}: bad magic 0x{magic:08x} at byte offset 0, "
                f"expected 0x{expected_magic:08x}")
        ndim = magic & 0xFF
        dims = struct.unpack(f">{ndim}I", _read_exact(fh, 4 * ndim, 4, path, "dimension header"))
        offset = 4 + 4 * ndim
        count = math.prod(dims)  # exact: an int64 product would wrap past 2**63
        if count == 0:
            raise IdxFormatError(f"{path}: empty dimension header at byte offset 4")
        raw = _read_exact(fh, count, offset, path, "payload")
        data = np.frombuffer(raw, dtype=np.uint8)
    return data.reshape(dims)


def load_idx(images_path, labels_path) -> Dataset:
    """Load a big-endian IDX image/label pair; pixels are scaled to [0, 1]."""
    images = _read_idx(images_path, IDX_IMAGES_MAGIC)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"image count {images.shape[0]} != label count {labels.shape[0]}")
    features = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
    labels = labels.astype(np.int64)
    return Dataset(features=features, labels=labels, num_classes=int(labels.max()) + 1)


def load_csv(path) -> Dataset:
    """Load ``label,f0,f1,...`` rows written by :func:`save_csv`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
    cols = header.split(",")
    if not cols or cols[0] != "label" or any(c != f"f{i}" for i, c in enumerate(cols[1:])):
        raise ValueError(f"{path}: expected header 'label,f0,f1,...', got {header!r}")
    with warnings.catch_warnings():  # an empty file is the error below, not a warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if raw.shape[0] == 0:
        raise ValueError(f"{path}: no data rows")
    if raw.shape[1] != len(cols):
        raise ValueError(f"{path}: rows have {raw.shape[1]} fields, header has {len(cols)}")
    labels = raw[:, 0].astype(np.int64)
    if not np.array_equal(raw[:, 0], labels):
        raise ValueError(f"{path}: labels must be integers")
    features = raw[:, 1:].astype(np.float64)
    return Dataset(features=features, labels=labels, num_classes=int(labels.max()) + 1)


def save_csv(dataset: Dataset, path) -> None:
    header = "label," + ",".join(f"f{i}" for i in range(dataset.num_features))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for label, row in zip(dataset.labels, dataset.features):
            fh.write(str(int(label)) + "," + ",".join(repr(float(v)) for v in row) + "\n")


def synth_gaussian_mixture(num_classes: int, dims: int, per_class: int,
                           separation: float, seed: int = 0) -> Dataset:
    """Gaussian mixture with class c centered at separation * e_c and unit noise.

    Zero separation collapses every class onto the same cloud, so any
    classifier degenerates to chance accuracy.
    """
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    if dims < num_classes:
        raise ValueError(f"dims must be >= num_classes to place the means, got {dims}")
    if per_class < 1:
        raise ValueError(f"per_class must be >= 1, got {per_class}")
    if separation < 0.0:
        raise ValueError(f"separation must be nonnegative, got {separation}")

    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    means = np.zeros((num_classes, dims))
    means[np.arange(num_classes), np.arange(num_classes)] = separation
    features = means[labels] + rng.standard_normal((labels.size, dims))
    order = rng.permutation(labels.size)
    return Dataset(features=features[order], labels=labels[order], num_classes=num_classes)
