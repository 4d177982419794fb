"""Reference implementations the tests compare the package against."""

import math

import numpy as np
from scipy import integrate
from scipy.stats import rankdata

from fltop import nn

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _loss_value(preds, targets, loss):
    eps = 1e-12
    if loss == "cross_entropy":
        return float(-np.mean(np.sum(targets * np.log(preds + eps), axis=1)))
    p = np.clip(preds, eps, 1.0 - eps)
    return float(-np.mean(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p)))


def forward_loss(w, arch, x, targets):
    """Mean loss and predictions for one batch."""
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    preds = nn.predict(w, arch, x)
    return _loss_value(preds, targets, arch.loss), preds


def finite_difference_gradient(w, arch, x, y, h=1e-5):
    """Central-difference gradient oracle, independent of backprop."""
    g = np.zeros_like(w)
    for i in range(len(w)):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        lp, _ = forward_loss(wp, arch, x, y)
        lm, _ = forward_loss(wm, arch, x, y)
        g[i] = (lp - lm) / (2 * h)
    return g


def dense_gradient(w, arch, x, targets):
    """Backprop gradient of the mean batch loss, flat like w: every layer's
    full weight and bias gradient, written independently of `nn._backward`."""
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    acts = nn._forward(nn._layers(w, arch), arch, x)
    m = x.shape[0]
    grad = np.zeros_like(w)
    # Softmax+CE and sigmoid+BCE share the same output delta.
    delta = (acts[-1] - targets) / m
    slices = arch.slices()
    for i in range(len(arch.layers) - 1, -1, -1):
        layer = arch.layers[i]
        w_sl, b_sl = slices[i]
        grad[w_sl] = (acts[i].T @ delta).ravel()
        grad[b_sl] = delta.sum(axis=0)
        if i > 0:
            mat = w[w_sl].reshape(layer.in_width, layer.out_width)
            delta = delta @ mat.T
            prev = acts[i]
            prev_kind = arch.layers[i - 1].activation
            if prev_kind == "relu":
                delta = delta * (prev > 0)
            elif prev_kind == "sigmoid":
                delta = delta * prev * (1.0 - prev)
    return grad


def batch_stream(n_samples, batch_size, seed):
    """Yield index arrays: uniform without replacement, reshuffled per epoch.
    The batches `nn.topk_sgd` draws are the first of these."""
    rng = np.random.default_rng(seed)
    while True:
        order = rng.permutation(n_samples)
        for start in range(0, n_samples, batch_size):
            chunk = order[start:start + batch_size]
            if len(chunk) == batch_size or start == 0:
                yield chunk


def reference_topk_sgd(x, y, w, w0, arch, t_gd, indices, eta, batch_size, seed):
    """Restricted-coordinate SGD from the dense gradient: each step computes
    all n entries with `dense_gradient` and applies the retained ones."""
    indices = np.asarray(indices, dtype=np.int64)
    cur = np.array(w0, dtype=np.float64)
    cur[indices] = np.asarray(w, dtype=np.float64)[indices]
    batch_size = min(batch_size, len(x))
    stream = batch_stream(len(x), batch_size, seed)
    for _ in range(t_gd):
        idx = next(stream)
        u = (-eta) * dense_gradient(cur, arch, x[idx], y[idx])
        cur[indices] = cur[indices] + u[indices]
    return cur


def sgd(x, y, w, arch, t_gd, eta, batch_size, seed):
    """Plain SGD on every coordinate from the dense gradient: t_gd steps of
    w -= eta * grad on the seeded batches `nn.topk_sgd` draws."""
    return reference_topk_sgd(x, y, w, w, arch, t_gd, np.arange(arch.n_params),
                              eta, batch_size, seed)


def update_norms(x, y, w0, arch, sets, steps, eta, seed):
    """Per index set, the L2 norm of one local round's change at the set's
    coordinates: `reference_topk_sgd` from w0 on all of x as one batch,
    with every other coordinate pinned at w0."""
    return [float(np.linalg.norm(reference_topk_sgd(
        x, y, w0, w0, arch, steps, idx, eta, len(x), seed)[idx] - w0[idx]))
        for idx in sets]


def touched_units(arch, indices):
    """Layer 0's output units that hold a weight or bias of `indices`."""
    w_sl, b_sl = arch.slices()[0]
    width = arch.layers[0].out_width
    first = indices[indices < b_sl.stop]
    return np.unique(np.where(first < w_sl.stop, (first - w_sl.start) % width,
                              first - b_sl.start))


def reference_global_update(spec, w, w0, indices, avg):
    """The global model after a round that averaged to `avg` on `indices`,
    one case per scheme family: the full set adds `avg` everywhere, a pinning
    scheme rebuilds from w0, any other adds `avg` at the set in place."""
    if spec.selection == "all":
        return w + avg
    if spec.reinit_nonselected:
        new_w = w0.copy()
        new_w[indices] = w[indices] + avg
        return new_w
    new_w = w.copy()
    new_w[indices] += avg
    return new_w


def _log_mix_densities(x, sigma, c):
    """Log pdfs of N(0, sigma^2) and the mixture (1-c)N(0,sigma^2) + cN(1,sigma^2)."""
    log_n0 = -0.5 * (x / sigma) ** 2 - math.log(sigma) - _LOG_SQRT_2PI
    log_n1_shift = -0.5 * ((x - 1.0) / sigma) ** 2 - math.log(sigma) - _LOG_SQRT_2PI
    if c >= 1.0:
        log_mix = log_n1_shift
    else:
        log_mix = np.logaddexp(math.log1p(-c) + log_n0, math.log(c) + log_n1_shift)
    return log_n0, log_mix


def _log_quad(exponent, bound, lam):
    """log of the integral of exp(exponent(x)) over [-bound, bound].

    The exponent can reach thousands for large lambda, so the integrand is
    shifted by its maximum (located on a dense grid) before quadrature.
    """
    grid = np.linspace(-bound, bound, 4097)
    shift = float(np.max(exponent(grid)))
    val, err = integrate.quad(lambda x: np.exp(exponent(x) - shift),
                              -bound, bound, points=[0.0, 1.0, float(lam + 1)],
                              limit=200, epsabs=1e-13, epsrel=1e-11)
    if not math.isfinite(val) or val <= 0 or err > 1e-6 * val:
        raise ArithmeticError(f"quadrature did not converge: value={val}, err={err}")
    return math.log(val) + shift


def quadrature_log_moments(lam, sigma, c):
    """(log E1, log E2) of the subsampled Gaussian by adaptive quadrature:
    E1 = int n0 (n0/n1)^lam and E2 = int n1 (n1/n0)^lam, with n0 the pdf of
    N(0, sigma^2) and n1 = (1-c) n0 + c pdf of N(1, sigma^2). Densities are
    evaluated in log space; no binomial expansion is used."""

    def e1_exponent(x):
        log_n0, log_n1 = _log_mix_densities(x, sigma, c)
        return log_n0 + lam * (log_n0 - log_n1)

    def e2_exponent(x):
        log_n0, log_n1 = _log_mix_densities(x, sigma, c)
        return log_n1 + lam * (log_n1 - log_n0)

    # The E2 integrand peaks near x = lam + 1; the bound must cover that peak
    # plus 12 sigma of Gaussian width on either side.
    bound = 12.0 * sigma + lam + 2.0
    return _log_quad(e1_exponent, bound, lam), _log_quad(e2_exponent, bound, lam)


def rankdata_auroc(scores, labels):
    """AUROC from the Mann-Whitney U statistic with scipy's average ranks."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    pos = np.asarray(labels) == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    u = rankdata(scores)[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))
