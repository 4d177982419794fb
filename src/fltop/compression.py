"""Retained-coordinate selection and the linear compress/expand operators."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .nn import gradient


@dataclass(frozen=True)
class IndexSet:
    """Strictly increasing coordinate positions within a model of size n."""
    indices: np.ndarray
    n: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indices", idx)
        if idx.size > self.n:
            raise ConfigError(f"K={idx.size} exceeds model size n={self.n}")
        if idx.size:
            if idx[0] < 0 or idx[-1] >= self.n:
                raise ConfigError("index out of range")
            if np.any(np.diff(idx) <= 0):
                raise ConfigError("indices must be strictly increasing")

    @property
    def k(self):
        return int(self.indices.size)

    @property
    def ratio(self):
        return self.k / self.n


def full_set(n):
    return IndexSet(np.arange(n, dtype=np.int64), n)


def select_topk(w0, arch, public_x, public_y, t_init, k, eta):
    """Coordinates with the largest |gradient| accumulated over t_init SGD steps.

    Runs t_init full-batch SGD steps on the public batch starting from w0,
    summing per-step absolute gradients per coordinate; the weights evolve
    between steps. Ties broken toward the lowest index.
    """
    n = len(w0)
    if not 1 <= k <= n:
        raise ConfigError(f"K must be in [1, {n}], got {k}")
    if t_init < 1:
        raise ConfigError(f"t_init must be >= 1, got {t_init}")
    w = np.array(w0, dtype=np.float64)
    acc = np.zeros(n)
    for _ in range(t_init):
        g = gradient(w, arch, public_x, public_y)
        acc += np.abs(g)
        w = w + (-eta) * g
    # Stable sort on descending magnitude keeps the lowest index first on ties.
    order = np.argsort(-acc, kind="stable")[:k]
    return IndexSet(np.sort(order), n)


def select_random(n, k, seed):
    """Uniform random K-subset of [0, n), deterministic from seed."""
    if not 1 <= k <= n:
        raise ConfigError(f"K must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    return IndexSet(np.sort(rng.choice(n, size=k, replace=False)), n)


def compress(v, index_set):
    """Pick the retained coordinates, in index order."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (index_set.n,):
        raise DimensionError(f"vector length {v.shape} != n={index_set.n}")
    return v[index_set.indices]


def expand(c, index_set, base):
    """Scatter compressed values into a copy of base at the retained coordinates."""
    c = np.asarray(c, dtype=np.float64)
    base = np.asarray(base, dtype=np.float64)
    if c.shape != (index_set.k,):
        raise DimensionError(f"compressed length {c.shape} != K={index_set.k}")
    if base.shape != (index_set.n,):
        raise DimensionError(f"base length {base.shape} != n={index_set.n}")
    out = base.copy()
    out[index_set.indices] = c
    return out


def save_index_set(index_set, path):
    """Newline-delimited decimal indices, ascending."""
    with open(path, "w") as f:
        for i in index_set.indices:
            f.write(f"{int(i)}\n")


def load_index_set(path, n):
    with open(path) as f:
        idx = [int(line) for line in f if line.strip()]
    return IndexSet(np.asarray(idx, dtype=np.int64), n)
