"""Seeded MNIST-shaped IDX pair for the idx784_perfedavg_dnn workload.

10 classes x 600 uint8 28x28 images.  Each class has a fixed random template
u**3 with u ~ U(0, 1) per pixel; an image is its class template plus N(0, 1)
pixel noise, clipped to [0, 1] and stored as round(255 * x).  The noise is
large enough that the classes overlap and accuracy keeps rising for many
rounds instead of saturating at once.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

NUM_CLASSES = 10
PER_CLASS = 600
SIDE = 28
NOISE = 1.0

IMAGES_NAME = "images-idx3-ubyte"
LABELS_NAME = "labels-idx1-ubyte"


def make_images(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """uint8 images (n, 28, 28) and uint8 labels (n,), shuffled."""
    rng = np.random.default_rng(seed)
    templates = rng.uniform(0.0, 1.0, size=(NUM_CLASSES, SIDE, SIDE)) ** 3
    labels = np.repeat(np.arange(NUM_CLASSES, dtype=np.uint8), PER_CLASS)
    pixels = templates[labels] + NOISE * rng.standard_normal((labels.size, SIDE, SIDE))
    images = np.rint(255.0 * np.clip(pixels, 0.0, 1.0)).astype(np.uint8)
    order = rng.permutation(labels.size)
    return images[order], labels[order]


def write_idx_pair(directory: Path, seed: int) -> tuple[Path, Path]:
    """Write the big-endian IDX image/label pair for ``seed``; return their paths."""
    images, labels = make_images(seed)
    images_path = Path(directory) / IMAGES_NAME
    labels_path = Path(directory) / LABELS_NAME
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, *images.shape))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, labels.size))
        fh.write(labels.tobytes())
    return images_path, labels_path
