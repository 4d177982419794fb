"""Minimal dense feed-forward network on flat weight vectors.

Models are plain float64 numpy arrays holding all weights and biases; the
architecture object knows how to slice them back into per-layer matrices.
Everything is a pure function of (inputs, seed) so federated clients can be
evaluated independently and reproducibly.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DimensionError

ACTIVATIONS = ("relu", "sigmoid", "softmax", "identity")
LOSSES = ("cross_entropy", "binary_cross_entropy")


@dataclass(frozen=True)
class LayerSpec:
    in_width: int
    out_width: int
    activation: str


@dataclass(frozen=True)
class ArchSpec:
    layers: tuple
    loss: str

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("architecture needs at least one layer")
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_width != b.in_width:
                raise ConfigError(
                    f"layer widths do not chain: {a.out_width} -> {b.in_width}")
        for i, layer in enumerate(self.layers):
            if layer.activation not in ACTIVATIONS:
                raise ConfigError(f"unknown activation {layer.activation!r}")
            if layer.in_width < 1 or layer.out_width < 1:
                raise ConfigError("layer widths must be positive")
            if layer.activation == "softmax" and i != len(self.layers) - 1:
                raise ConfigError("softmax is only valid as the final activation")
        final = self.layers[-1].activation
        if self.loss == "cross_entropy" and final != "softmax":
            raise ConfigError("cross_entropy requires a softmax output layer")
        if self.loss == "binary_cross_entropy" and final != "sigmoid":
            raise ConfigError("binary_cross_entropy requires a sigmoid output layer")

    @property
    def n_params(self):
        return sum(l.in_width * l.out_width + l.out_width for l in self.layers)

    @property
    def input_width(self):
        return self.layers[0].in_width

    @property
    def output_width(self):
        return self.layers[-1].out_width

    def slices(self):
        """Per-layer (weight, bias) slices into the flat parameter vector."""
        out = []
        pos = 0
        for l in self.layers:
            w_end = pos + l.in_width * l.out_width
            out.append((slice(pos, w_end), slice(w_end, w_end + l.out_width)))
            pos = w_end + l.out_width
        return out


def mlp_arch(input_width, hidden_widths, output_width, loss,
             hidden_activation="relu"):
    """Convenience builder: dense stack with a loss-matched output activation."""
    final_act = "softmax" if loss == "cross_entropy" else "sigmoid"
    widths = [input_width] + list(hidden_widths)
    layers = [LayerSpec(a, b, hidden_activation) for a, b in zip(widths, widths[1:])]
    layers.append(LayerSpec(widths[-1], output_width, final_act))
    return ArchSpec(tuple(layers), loss)


def init_model(arch, seed):
    """Glorot-uniform weights, zero biases; deterministic for (arch, seed)."""
    rng = np.random.default_rng(seed)
    w = np.zeros(arch.n_params)
    for layer, (w_sl, _) in zip(arch.layers, arch.slices()):
        limit = math.sqrt(6.0 / (layer.in_width + layer.out_width))
        w[w_sl] = rng.uniform(-limit, limit, layer.in_width * layer.out_width)
    return w


def _activate(z, kind):
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if kind == "softmax":
        shifted = z - z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)
    return z


def _forward(w, arch, x):
    """Returns the list of post-activation values per layer, input included."""
    acts = [x]
    for layer, (w_sl, b_sl) in zip(arch.layers, arch.slices()):
        mat = w[w_sl].reshape(layer.in_width, layer.out_width)
        z = acts[-1] @ mat + w[b_sl]
        acts.append(_activate(z, layer.activation))
    return acts


def _loss_value(preds, targets, loss):
    eps = 1e-12
    if loss == "cross_entropy":
        return float(-np.mean(np.sum(targets * np.log(preds + eps), axis=1)))
    p = np.clip(preds, eps, 1.0 - eps)
    return float(-np.mean(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p)))


def _check_inputs(arch, x):
    if x.ndim != 2 or x.shape[1] != arch.input_width:
        raise DimensionError(
            f"inputs of width {x.shape[-1] if x.ndim == 2 else '?'} do not match "
            f"architecture input width {arch.input_width}")


def _check_batch(arch, x, y):
    _check_inputs(arch, x)
    if y.shape != (x.shape[0], arch.output_width):
        raise DimensionError(
            f"targets {y.shape} do not match (batch, {arch.output_width})")


def forward_loss(w, arch, x, targets):
    """Mean loss and predictions for one batch."""
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    _check_batch(arch, x, targets)
    preds = _forward(w, arch, x)[-1]
    return _loss_value(preds, targets, arch.loss), preds


def predict(w, arch, x):
    """Output-layer activations for a batch of inputs (forward pass only)."""
    x = np.asarray(x, dtype=np.float64)
    _check_inputs(arch, x)
    return _forward(w, arch, x)[-1]


def gradient(w, arch, x, targets):
    """Backprop gradient of the mean batch loss, flat like w."""
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    _check_batch(arch, x, targets)
    acts = _forward(w, arch, x)
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
            # identity: unchanged
    return grad


def _batch_stream(n_samples, batch_size, seed):
    """Yield index arrays: uniform without replacement, reshuffled per epoch."""
    rng = np.random.default_rng(seed)
    while True:
        order = rng.permutation(n_samples)
        for start in range(0, n_samples, batch_size):
            chunk = order[start:start + batch_size]
            if len(chunk) == batch_size or start == 0:
                yield chunk


def sgd(x, y, w, arch, t_gd, eta, batch_size, seed):
    """Plain SGD: t_gd steps of w -= eta * grad on seeded random batches."""
    if t_gd < 1:
        raise ConfigError(f"t_gd must be >= 1, got {t_gd}")
    if len(x) == 0:
        raise DataError("empty training set")
    w = np.array(w, dtype=np.float64)
    batch_size = min(batch_size, len(x))
    stream = _batch_stream(len(x), batch_size, seed)
    for _ in range(t_gd):
        idx = next(stream)
        w = w + (-eta) * gradient(w, arch, x[idx], y[idx])
    return w


def _selector(offsets):
    """A slice when the sorted offsets form one contiguous run, as for the
    full set, so that gathers become copies; else the offsets themselves,
    read-only as the layout cache hands them to every caller."""
    if offsets.size and offsets[-1] - offsets[0] == offsets.size - 1:
        return slice(int(offsets[0]), int(offsets[-1]) + 1)
    offsets.flags.writeable = False
    return offsets


@functools.lru_cache(maxsize=8)
def _topk_layout(arch, key):
    """Where a retained index set falls in each layer's weight and bias block.

    `key` holds the set's int64 bytes, so equal sets share one cache entry
    whatever array they come in. Returns `(k, sel, layers)`: `k` is the set's
    size; `sel` picks the set out of a flat vector; `layers[i]` is
    `(w_pos, w_sel, b_pos, b_sel)`, where positions `w_pos` of the set are
    the weights of layer i that `w_sel` picks out of its flattened (in, out)
    matrix (None if there are none), and likewise for the biases.
    """
    indices = np.frombuffer(key, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= arch.n_params):
        raise IndexError("index set out of range for this architecture")
    if np.any(np.diff(indices) <= 0):
        raise IndexError("index set must be strictly increasing")
    layers = []
    for w_sl, b_sl in arch.slices():
        w_lo, b_lo, b_hi = np.searchsorted(indices, (w_sl.start, b_sl.start, b_sl.stop))
        w_sel = _selector(indices[w_lo:b_lo] - w_sl.start) if b_lo > w_lo else None
        b_sel = _selector(indices[b_lo:b_hi] - b_sl.start) if b_hi > b_lo else None
        layers.append((slice(w_lo, b_lo), w_sel, slice(b_lo, b_hi), b_sel))
    return indices.size, _selector(indices), tuple(layers)


def topk_sgd(x, y, w, w0, arch, t_gd, indices, eta, batch_size, seed):
    """SGD that only moves the coordinates in `indices`; the rest stay at w0.

    `indices` must be strictly increasing. Each step runs the full forward
    pass but computes only the retained gradient entries: a layer's weight
    gradient comes from the same matmul as in `gradient`, written into a
    buffer reused across steps, and only its retained entries are gathered.
    The result equals SGD on `gradient(...)[indices]` bit for bit, and
    agrees with w0 outside the index set exactly. Only `w[indices]` is read.
    """
    if t_gd < 1:
        raise ConfigError(f"t_gd must be >= 1, got {t_gd}")
    if len(x) == 0:
        raise DataError("empty training set")
    k, sel, layout = _topk_layout(
        arch, np.asarray(indices, dtype=np.int64).tobytes())
    # Start from w0 outside the set, caller-provided values inside it.
    cur = np.array(w0, dtype=np.float64)
    cur[sel] = np.asarray(w, dtype=np.float64)[sel]
    slices = arch.slices()
    bufs = [None if w_sel is None else np.empty((l.in_width, l.out_width))
            for l, (_, w_sel, _, _) in zip(arch.layers, layout)]
    g = np.empty(k)
    batch_size = min(batch_size, len(x))
    stream = _batch_stream(len(x), batch_size, seed)
    for _ in range(t_gd):
        idx = next(stream)
        xb = np.asarray(x[idx], dtype=np.float64)
        yb = np.asarray(y[idx], dtype=np.float64)
        _check_batch(arch, xb, yb)
        acts = _forward(cur, arch, xb)
        # Softmax+CE and sigmoid+BCE share the same output delta.
        delta = (acts[-1] - yb) / xb.shape[0]
        for i in range(len(arch.layers) - 1, -1, -1):
            w_pos, w_sel, b_pos, b_sel = layout[i]
            if w_sel is not None:
                np.matmul(acts[i].T, delta, out=bufs[i])
                g[w_pos] = bufs[i].ravel()[w_sel]
            if b_sel is not None:
                g[b_pos] = delta.sum(axis=0)[b_sel]
            if i > 0:
                layer = arch.layers[i]
                mat = cur[slices[i][0]].reshape(layer.in_width, layer.out_width)
                delta = delta @ mat.T
                prev = acts[i]
                prev_kind = arch.layers[i - 1].activation
                if prev_kind == "relu":
                    delta = delta * (prev > 0)
                elif prev_kind == "sigmoid":
                    delta = delta * prev * (1.0 - prev)
        cur[sel] += (-eta) * g
    return cur
