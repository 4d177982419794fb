"""Retained-coordinate index sets: Top-K and random selection.

An index set is a sorted int64 array of distinct coordinate positions in
[0, n); `nn` validates each set that reaches `topk_sgd` or `layer0_columns`.
"""

import numpy as np

from .nn import gradient


def select_topk(w0, arch, public_x, public_y, t_init, k, eta):
    """Coordinates with the largest |gradient| accumulated over t_init SGD steps.

    Runs t_init full-batch SGD steps on the public batch starting from w0,
    summing per-step absolute gradients per coordinate; the weights evolve
    between steps. Ties broken toward the lowest index.
    """
    n = len(w0)
    if not 1 <= k <= n:
        raise ValueError(f"K must be in [1, {n}], got {k}")
    if t_init < 1:
        raise ValueError(f"t_init must be >= 1, got {t_init}")
    w = np.array(w0, dtype=np.float64)
    acc = np.zeros(n)
    for _ in range(t_init):
        g = gradient(w, arch, public_x, public_y)
        acc += np.abs(g)
        w = w + (-eta) * g
    return _largest(acc, k)


def _largest(acc, k):
    """The first k of a stable argsort of -acc, sorted, for `acc` without
    negative values (NaN ranks last), from an O(n) partition."""
    key = np.fmax(acc, -1.0)  # NaN -> -1
    kth = np.partition(key, len(key) - k)[len(key) - k]
    chosen = key > kth
    chosen[np.flatnonzero(key == kth)[:k - np.count_nonzero(chosen)]] = True
    return np.flatnonzero(chosen)


def select_random(n, k, seed):
    """Uniform random K-subset of [0, n), deterministic from seed."""
    if not 1 <= k <= n:
        raise ValueError(f"K must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=k, replace=False))

