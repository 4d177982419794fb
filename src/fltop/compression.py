"""Retained-coordinate index sets: Top-K and random selection.

An index set is a sorted int64 array of distinct coordinate positions in
[0, n); `nn` validates each set that reaches `topk_sgd` or `layer0_columns`.
"""

import numpy as np

from .errors import ConfigError
from .nn import gradient


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
    return np.sort(order)


def select_random(n, k, seed):
    """Uniform random K-subset of [0, n), deterministic from seed."""
    if not 1 <= k <= n:
        raise ConfigError(f"K must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=k, replace=False))

