"""Retained-coordinate index sets: Top-K and random selection."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
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

