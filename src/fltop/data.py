"""Dataset ingestion, synthetic generation, partitioning, and public batches."""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, FormatError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray   # (m, d) float64, features in [0, 1]
    labels: np.ndarray   # (m,) integer class ids

    def __post_init__(self):
        if len(self.inputs) != len(self.labels):
            raise DataError("inputs and labels disagree on sample count")

    def __len__(self):
        return len(self.inputs)

    @property
    def n_classes(self):
        return int(self.labels.max()) + 1


def to_targets(labels, arch):
    """Training targets for a label vector: one-hot for cross-entropy,
    a {0,1} column for binary cross-entropy."""
    labels = np.asarray(labels, dtype=np.int64)
    if arch.loss == "binary_cross_entropy":
        return labels.astype(np.float64).reshape(-1, 1)
    out = np.zeros((len(labels), arch.output_width))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def _read_idx(path, expected_magic):
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 4:
        raise FormatError(f"{path}: truncated header at byte {len(raw)}")
    magic, = struct.unpack(">I", raw[:4])
    if magic != expected_magic:
        raise FormatError(
            f"{path}: bad magic 0x{magic:08x} at byte 0, expected 0x{expected_magic:08x}")
    ndim = magic & 0xFF
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise FormatError(f"{path}: truncated dimension header at byte {len(raw)}")
    dims = struct.unpack(f">{ndim}I", raw[4:header_len])
    count = int(np.prod(dims))
    if len(raw) != header_len + count:
        raise FormatError(
            f"{path}: expected {header_len + count} bytes, got {len(raw)} "
            f"(truncation at byte {len(raw)})")
    data = np.frombuffer(raw, dtype=np.uint8, offset=header_len)
    return data.reshape(dims)


def load_idx(images_path, labels_path):
    """Load an MNIST-style IDX image/label pair; pixels rescaled to [0, 1]."""
    images = _read_idx(images_path, IDX_IMAGES_MAGIC)
    if not len(images):
        raise FormatError(f"{images_path}: holds no images")
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC)
    if len(images) != len(labels):
        raise FormatError("image and label files disagree on sample count")
    flat = images.reshape(len(images), -1).astype(np.float64) / 255.0
    return Dataset(flat, labels.astype(np.int64))


def write_idx(images, labels, images_path, labels_path):
    """Write uint8 images (m, h, w) and labels (m,) in IDX format."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, *images.shape))
        f.write(images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, len(labels)))
        f.write(labels.tobytes())


def synth_imbalanced(n_samples, n_features, positive_rate, seed, separation=2.0):
    """Two Gaussian class-conditional clusters with controllable separation.

    Stand-in for a proprietary imbalanced binary task: labels are Bernoulli
    with the given positive rate, features are clipped to [0, 1]. With
    separation 0 the classes are indistinguishable.
    """
    if not 0 < positive_rate < 1:
        raise ConfigError(f"positive_rate must be in (0, 1), got {positive_rate}")
    rng = np.random.default_rng(seed)
    labels = (rng.random(n_samples) < positive_rate).astype(np.int64)
    spread = 0.08
    offset = rng.standard_normal(n_features)
    offset *= separation * spread / max(np.linalg.norm(offset), 1e-12)
    base = rng.uniform(0.3, 0.7, n_features)
    x = base + rng.standard_normal((n_samples, n_features)) * spread
    x[labels == 1] += offset
    return Dataset(np.clip(x, 0.0, 1.0), labels)


def train_test_split(d, test_fraction, seed):
    """Seeded random split; returns (train, test)."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(d))
    n_test = int(round(len(d) * test_fraction))
    test, train = order[:n_test], order[n_test:]
    return (Dataset(d.inputs[train], d.labels[train]),
            Dataset(d.inputs[test], d.labels[test]))


def partition(d, n_clients, seed=0):
    """Split a dataset into equal-size, disjoint, iid random client shards:
    an (n_clients, len(d) // n_clients) array, row i client i's sorted rows."""
    if n_clients > len(d):
        raise ConfigError(f"federation.n_clients must be at most the {len(d)} "
                          f"training samples, got {n_clients}")
    order = np.random.default_rng(seed).permutation(len(d))
    per = len(d) // n_clients
    return np.sort(order[:n_clients * per].reshape(n_clients, per), axis=1)


def downsample(d, seed):
    """Balance a binary dataset by subsampling the majority class to 1:1."""
    classes = np.unique(d.labels)
    if len(classes) < 2:
        raise DataError("downsampling needs both classes present")
    counts = {c: np.flatnonzero(d.labels == c) for c in classes}
    minority = min(counts, key=lambda c: len(counts[c]))
    n_min = len(counts[minority])
    rng = np.random.default_rng(seed)
    keep = [counts[minority]]
    for c in classes:
        if c != minority:
            keep.append(rng.choice(counts[c], size=n_min, replace=False))
    idx = np.sort(np.concatenate(keep))
    return Dataset(d.inputs[idx], d.labels[idx])


def public_batch(source, size, seed):
    """Uniform random batch from a (separate) public dataset."""
    if size > len(source):
        raise ConfigError(f"dataset.public_size {size} exceeds the {len(source)} "
                          f"public samples")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(source), size=size, replace=False)
    return source.inputs[idx], source.labels[idx]
