"""Reference implementations the tests compare the package against."""

import numpy as np

from fltop import nn


def finite_difference_gradient(w, arch, x, y, h=1e-5):
    """Central-difference gradient oracle, independent of backprop."""
    g = np.zeros_like(w)
    for i in range(len(w)):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        lp, _ = nn.forward_loss(wp, arch, x, y)
        lm, _ = nn.forward_loss(wm, arch, x, y)
        g[i] = (lp - lm) / (2 * h)
    return g


def reference_topk_sgd(x, y, w, w0, arch, t_gd, indices, eta, batch_size, seed):
    """Restricted-coordinate SGD from the dense gradient: each step computes
    all n entries with `nn.gradient` and applies the retained ones."""
    indices = np.asarray(indices, dtype=np.int64)
    cur = np.array(w0, dtype=np.float64)
    cur[indices] = np.asarray(w, dtype=np.float64)[indices]
    batch_size = min(batch_size, len(x))
    stream = nn._batch_stream(len(x), batch_size, seed)
    for _ in range(t_gd):
        idx = next(stream)
        u = (-eta) * nn.gradient(cur, arch, x[idx], y[idx])
        cur[indices] = cur[indices] + u[indices]
    return cur
