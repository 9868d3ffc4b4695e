import gzip
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfedbred import (Dataset, IdxFormatError, Mclr, Partition, PartitionError, load_csv,
                      load_idx, partition_dirichlet, partition_label_shard, save_csv,
                      synth_gaussian_mixture)
from pfedbred.fl import make_clients
from pfedbred.models import softmax

from .helpers import write_idx_images, write_idx_labels


@pytest.fixture(scope="module")
def corpus():
    return synth_gaussian_mixture(10, 12, 120, 1.0, seed=0)


def all_indices(partition):
    return np.concatenate([np.concatenate([tr, te])
                           for tr, te in zip(partition.train, partition.test)])


def client_labels(dataset, partition, i):
    idx = np.concatenate([partition.train[i], partition.test[i]])
    return dataset.labels[idx]


def test_dataset_validation():
    with pytest.raises(ValueError, match="2-d"):
        Dataset(features=np.zeros(3), labels=np.zeros(3, dtype=np.int64), num_classes=2)
    with pytest.raises(ValueError, match="align"):
        Dataset(features=np.zeros((3, 2)), labels=np.zeros(2, dtype=np.int64), num_classes=2)
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(features=np.array([[np.inf, 0.0]]), labels=np.array([0]), num_classes=1)
    with pytest.raises(ValueError, match="without examples"):
        Dataset(features=np.zeros((2, 2)), labels=np.array([0, 0]), num_classes=2)
    with pytest.raises(ValueError, match=r"classes without examples: \[1, 3\]$"):
        Dataset(features=np.zeros((2, 2)), labels=np.array([0, 2]), num_classes=4)
    # a float label failed inside np.bincount, and bool labels were taken as 0 and 1
    for labels in (np.array([0.0, 1.0]), np.array([False, True])):
        with pytest.raises(ValueError, match="labels must be integers"):
            Dataset(features=np.zeros((2, 2)), labels=labels, num_classes=2)
    Dataset(features=np.zeros((2, 2)), labels=np.array([0, 1], dtype=np.uint8), num_classes=2)
    with pytest.raises(ValueError, match="dataset is empty"):
        Dataset(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=np.int64), num_classes=2)
    for labels in (np.array([0, 2]), np.array([-1, 1])):
        with pytest.raises(ValueError, match="labels out of range for num_classes"):
            Dataset(features=np.zeros((2, 2)), labels=labels, num_classes=2)


def test_partition_checks_only_its_shape():
    Partition(train=(np.arange(3), np.array([9, 4])), test=(np.array([7]), np.arange(3)))
    Partition(train=(np.arange(3), np.array([])), test=(np.array([]), np.array([5])))
    # rows are checked against the dataset when a run builds its clients (test_fl's row table)
    Partition(train=(np.arange(3), np.array([9, 4])), test=(np.array([4]), np.array([5, 4])))
    Partition(train=(np.array([0.0, 1.0]),), test=(np.array([10**6]),))
    with pytest.raises(ValueError, match="train and test must list the same clients"):
        Partition(train=(np.arange(3),), test=(np.array([4]), np.array([5])))
    with pytest.raises(ValueError, match="partition has no clients"):
        Partition(train=(), test=())


def test_label_shard_each_client_sees_exact_class_count(corpus):
    part = partition_label_shard(corpus, 100, 3, seed=4)
    for i in range(100):
        assert len(np.unique(client_labels(corpus, part, i))) == 3


def test_label_shard_single_client_holds_everything(corpus):
    part = partition_label_shard(corpus, 1, corpus.num_classes, seed=0)
    assert np.array_equal(np.sort(all_indices(part)), np.arange(corpus.n))


def test_label_shard_no_leakage_and_full_coverage(corpus):
    part = partition_label_shard(corpus, 20, 3, seed=1)
    idx = all_indices(part)
    assert np.array_equal(np.sort(idx), np.arange(corpus.n))  # each example exactly once
    for tr, te in zip(part.train, part.test):
        assert np.intersect1d(tr, te).size == 0
        assert te.size >= 1


def test_label_shard_determinism(corpus):
    a = partition_label_shard(corpus, 20, 3, seed=9)
    b = partition_label_shard(corpus, 20, 3, seed=9)
    c = partition_label_shard(corpus, 20, 3, seed=10)
    assert all(np.array_equal(x, y) for x, y in zip(a.train, b.train))
    assert all(np.array_equal(x, y) for x, y in zip(a.test, b.test))
    assert any(not np.array_equal(x, y) for x, y in zip(a.train, c.train))


def test_label_shard_rejects_uncovered_classes(corpus):
    with pytest.raises(PartitionError, match="cannot cover"):
        partition_label_shard(corpus, 2, 3, seed=0)


def test_label_shard_rejects_class_with_too_few_examples():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(103, 2))
    labels = np.concatenate([np.zeros(100, dtype=np.int64), np.array([1, 1, 1])])
    ds = Dataset(features=features, labels=labels, num_classes=2)
    with pytest.raises(PartitionError, match="class 1"):
        partition_label_shard(ds, 8, 1, seed=0)
    # class 1's three holders get one example each, which leaves no test split
    with pytest.raises(PartitionError, match=r"^client 1 received 1 example\(s\)"):
        partition_label_shard(ds, 6, 1, seed=0)


def test_label_shard_param_validation(corpus):
    with pytest.raises(PartitionError):
        partition_label_shard(corpus, 10, 0, seed=0)
    with pytest.raises(PartitionError):
        partition_label_shard(corpus, 10, 11, seed=0)
    with pytest.raises(PartitionError):
        partition_label_shard(corpus, 10, 3, train_fraction=1.0, seed=0)


def test_dirichlet_conservation_and_no_leakage(corpus):
    part = partition_dirichlet(corpus, 10, 1.0, seed=3)
    assert np.array_equal(np.sort(all_indices(part)), np.arange(corpus.n))
    for tr, te in zip(part.train, part.test):
        assert np.intersect1d(tr, te).size == 0


def test_dirichlet_determinism(corpus):
    a = partition_dirichlet(corpus, 10, 0.5, seed=7)
    b = partition_dirichlet(corpus, 10, 0.5, seed=7)
    assert all(np.array_equal(x, y) for x, y in zip(a.train, b.train))
    assert all(np.array_equal(x, y) for x, y in zip(a.test, b.test))


def test_dirichlet_low_alpha_concentrates_classes(corpus):
    # with alpha=0.01 most clients effectively hold a couple of classes
    medians = []
    for seed in range(5):
        part = partition_dirichlet(corpus, 10, 0.01, seed=seed)
        effective = []
        for i in range(10):
            labels = client_labels(corpus, part, i)
            shares = np.bincount(labels, minlength=corpus.num_classes) / len(labels)
            effective.append(int(np.sum(shares > 0.01)))
        medians.append(np.median(effective))
    assert np.median(medians) <= 3


def test_dirichlet_high_alpha_spreads_classes(corpus):
    part = partition_dirichlet(corpus, 10, 1000.0, seed=0)
    worst = 0.0
    for i in range(10):
        labels = client_labels(corpus, part, i)
        shares = np.bincount(labels, minlength=corpus.num_classes) / len(labels)
        worst = max(worst, shares.max())
    assert worst <= 0.15


def test_dirichlet_entropy_nondecreasing_in_alpha(corpus):
    def mean_entropy(alpha):
        values = []
        for seed in range(3):
            part = partition_dirichlet(corpus, 10, alpha, seed=seed)
            for i in range(10):
                labels = client_labels(corpus, part, i)
                p = np.bincount(labels, minlength=corpus.num_classes) / len(labels)
                p = p[p > 0]
                values.append(float(-(p * np.log(p)).sum()))
        return np.mean(values)

    entropies = [mean_entropy(a) for a in (0.01, 1.0, 1000.0)]
    assert entropies[0] < entropies[1] < entropies[2]


def test_dirichlet_equalize_levels_sizes(corpus):
    part = partition_dirichlet(corpus, 10, 0.01, seed=1, equalize=True)
    sizes = part.client_sizes()
    assert sizes.max() - sizes.min() <= 1
    assert np.array_equal(np.sort(all_indices(part)), np.arange(corpus.n))


def test_dirichlet_param_validation(corpus):
    for alpha in (0.0, np.nan, np.inf):
        with pytest.raises(PartitionError, match="alpha must be positive and finite"):
            partition_dirichlet(corpus, 10, alpha, seed=0)
    with pytest.raises(PartitionError):
        partition_dirichlet(corpus, corpus.n + 1, 1.0, seed=0)
    with pytest.raises(PartitionError, match="601 clients need two examples each"):
        partition_dirichlet(corpus, corpus.n // 2 + 1, 1.0, seed=0)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(classes=st.integers(2, 5), per_class=st.integers(1, 6), num_clients=st.integers(1, 8),
       spec=st.one_of(st.tuples(st.just("label_shard"), st.integers(1, 5)),
                      st.tuples(st.just("dirichlet"), st.floats(0.02, 20.0))),
       equalize=st.booleans(), train_fraction=st.floats(0.05, 0.95), seed=st.integers(0, 50))
# pfedbred --synth 2,2,1,1.0 --N 2 --partition label_shard:1: one example a client
@example(classes=2, per_class=1, num_clients=2, spec=("label_shard", 1), equalize=False,
         train_fraction=0.9, seed=0)
# pfedbred --synth 4,4,5,1.0 --N 4 --partition dirichlet:0.5 --seed 1: the first
# allocation gives client 1 one example
@example(classes=4, per_class=5, num_clients=4, spec=("dirichlet", 0.5), equalize=False,
         train_fraction=0.9, seed=1)
def test_a_partition_raises_or_gives_every_client_both_splits(
        classes, per_class, num_clients, spec, equalize, train_fraction, seed):
    ds = synth_gaussian_mixture(classes, classes, per_class, 1.0, seed=seed)
    kind, param = spec
    try:
        if kind == "label_shard":
            part = partition_label_shard(ds, num_clients, param, train_fraction, seed)
        else:
            part = partition_dirichlet(ds, num_clients, param, train_fraction, seed,
                                       equalize=equalize)
    except PartitionError:
        return
    model = Mclr(ds.num_features, classes)
    make_clients(ds, part, model, 1, np.zeros(model.num_params))  # raises for an unusable row
    assert np.array_equal(np.sort(all_indices(part)), np.arange(ds.n))


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(6, 2, 2), dtype=np.uint8)
    labels = np.array([0, 1, 2, 0, 1, 2], dtype=np.uint8)
    img_path = tmp_path / "images-idx3-ubyte"
    lab_path = tmp_path / "labels-idx1-ubyte"
    write_idx_images(img_path, images)
    write_idx_labels(lab_path, labels)
    return img_path, lab_path, images, labels


def test_idx_round_trip(idx_pair):
    img_path, lab_path, images, labels = idx_pair
    ds = load_idx(img_path, lab_path)
    assert ds.n == 6
    assert ds.num_features == 4
    assert ds.num_classes == 3
    assert np.array_equal(ds.labels, labels.astype(np.int64))
    assert np.allclose(ds.features, images.reshape(6, -1) / 255.0)
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0


def test_idx_gzip_transparent(tmp_path, idx_pair):
    _, lab_path, images, labels = idx_pair
    gz_path = tmp_path / "images.gz"
    write_idx_images(gz_path, images, compress=True)
    ds = load_idx(gz_path, lab_path)
    assert np.allclose(ds.features, images.reshape(6, -1) / 255.0)


def test_idx_bad_magic_names_offset(tmp_path, idx_pair):
    _, lab_path, images, _ = idx_pair
    bad = tmp_path / "bad-magic"
    write_idx_images(bad, images, magic=0x00000804)
    with pytest.raises(IdxFormatError, match="byte offset 0"):
        load_idx(bad, lab_path)


def test_idx_truncated_payload_names_offset(tmp_path, idx_pair):
    _, lab_path, images, _ = idx_pair
    full = struct.pack(">I", 0x00000803)
    full += b"".join(struct.pack(">I", d) for d in images.shape)
    full += images.tobytes()[:-5]
    trunc = tmp_path / "truncated"
    trunc.write_bytes(full)
    with pytest.raises(IdxFormatError, match="truncated payload at byte offset 16"):
        load_idx(trunc, lab_path)


@pytest.mark.parametrize("dims, opener", [
    ((65536, 65536, 65536), open), ((65536, 65536, 65536), gzip.open), ((2**31, 2**31, 4), open),
], ids=["claims-2**48", "claims-2**48-gzip", "wraps-int64"])
def test_idx_header_claiming_more_than_the_file_holds(tmp_path, idx_pair, dims, opener):
    # 116 bytes: a read of the header's count raised MemoryError, and the int64 product of
    # (2**31, 2**31, 4) wrapped to 0, an "empty" header
    _, lab_path, _, _ = idx_pair
    path = tmp_path / "claims-too-much"
    with opener(path, "wb") as fh:
        fh.write(struct.pack(">4I", 0x00000803, *dims) + bytes(100))
    with pytest.raises(IdxFormatError, match=rf"truncated payload at byte offset 16: "
                                             rf"wanted {math.prod(dims)} bytes, got 100$"):
        load_idx(path, lab_path)


def test_idx_empty_dimension_header(tmp_path, idx_pair):
    _, lab_path, _, _ = idx_pair
    empty = tmp_path / "empty-images"
    write_idx_images(empty, np.zeros((0, 2, 2), dtype=np.uint8))
    with pytest.raises(IdxFormatError, match="empty dimension header at byte offset 4"):
        load_idx(empty, lab_path)


def test_idx_count_mismatch(tmp_path, idx_pair):
    img_path, _, _, _ = idx_pair
    short = tmp_path / "short-labels"
    write_idx_labels(short, np.array([0, 1], dtype=np.uint8))
    with pytest.raises(IdxFormatError, match="6 != label count 2"):
        load_idx(img_path, short)


def test_csv_round_trip(tmp_path):
    ds = synth_gaussian_mixture(3, 4, 5, 1.3, seed=2)
    path = tmp_path / "corpus.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert back.num_classes == ds.num_classes


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,x0,x1\n0,1.0,2.0\n")
    with pytest.raises(ValueError, match="header"):
        load_csv(path)


@pytest.mark.parametrize("text, message", [
    ("label,f0,f1\n0,1.0\n1,2.0\n", "rows have 2 fields, header has 3"),
    ("label,f0\n0,1.0\n0.5,2.0\n", "labels must be integers"),
    ("label,f0\n0,1.0\n2.00001,3.0\n", "labels must be integers"),
    ("label,f0,f1\n", "bad.csv: no data rows$"),
], ids=["field-count", "float-label", "near-integer-label", "no-rows"])
def test_csv_rejects_bad_rows(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with warnings.catch_warnings(), pytest.raises(ValueError, match=message):
        warnings.simplefilter("error")  # the error is the one report: no loadtxt warning
        load_csv(path)


def test_synth_shapes_and_determinism():
    a = synth_gaussian_mixture(4, 6, 25, 2.0, seed=5)
    b = synth_gaussian_mixture(4, 6, 25, 2.0, seed=5)
    c = synth_gaussian_mixture(4, 6, 25, 2.0, seed=6)
    assert a.n == 100 and a.num_features == 6 and a.num_classes == 4
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)
    assert np.array_equal(np.bincount(a.labels), np.full(4, 25))


def test_synth_requires_enough_dims():
    with pytest.raises(ValueError, match="dims"):
        synth_gaussian_mixture(5, 4, 10, 1.0, seed=0)


def test_synth_zero_separation_is_chance_level():
    ds = synth_gaussian_mixture(4, 4, 200, 0.0, seed=0)
    model = Mclr(4, 4)
    params = np.zeros(model.num_params)
    for _ in range(200):
        params = params - 0.1 * model.grad(params, ds.features, ds.labels)
    preds = np.argmax(softmax(model.logits(params, ds.features)), axis=1)
    assert np.mean(preds == ds.labels) <= 0.25 + 0.05
