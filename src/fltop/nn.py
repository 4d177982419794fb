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

    # n_params and slices are cached per instance, outside the fields, so
    # equality and hashing (which key `_topk_layout`'s cache) stay field-based.
    @functools.cached_property
    def n_params(self):
        return sum(l.in_width * l.out_width + l.out_width for l in self.layers)

    @property
    def input_width(self):
        return self.layers[0].in_width

    @property
    def output_width(self):
        return self.layers[-1].out_width

    @functools.cached_property
    def _slices(self):
        out = []
        pos = 0
        for l in self.layers:
            w_end = pos + l.in_width * l.out_width
            out.append((slice(pos, w_end), slice(w_end, w_end + l.out_width)))
            pos = w_end + l.out_width
        return tuple(out)

    def slices(self):
        """Per-layer (weight, bias) slices into the flat parameter vector."""
        return self._slices


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


def predict(w, arch, x):
    """Output-layer activations for a batch of inputs (forward pass only)."""
    x = np.asarray(x, dtype=np.float64)
    _check_inputs(arch, x)
    return _forward(w, arch, x)[-1]


def _weight_outs(arch, layout, g):
    """Per layer of `layout` (see `_topk_layout`), where `_backward` writes
    its weight-gradient matmul and whether to gather from there: a view of
    `g` when the whole block is retained, else a buffer; None when no weight
    of the layer is retained."""
    outs = []
    for l, (w_pos, w_sel, _, _) in zip(arch.layers, layout):
        shape = (l.in_width, l.out_width)
        if w_sel is None:
            outs.append((None, False))
        elif w_pos.stop - w_pos.start == l.in_width * l.out_width:
            outs.append((g[w_pos].reshape(shape), False))
        else:
            outs.append((np.empty(shape), True))
    return outs


def _backward(w, arch, x, targets, layout, g, outs):
    """One forward and backward pass of the mean batch loss at `w`. Writes
    the gradient entries that `layout` retains into `g`, in set order;
    `outs` comes from `_weight_outs(arch, layout, g)`."""
    acts = _forward(w, arch, x)
    # Softmax+CE and sigmoid+BCE share the same output delta.
    delta = (acts[-1] - targets) / x.shape[0]
    slices = arch.slices()
    for i in range(len(arch.layers) - 1, -1, -1):
        w_pos, w_sel, b_pos, b_sel = layout[i]
        w_out, gather = outs[i]
        if w_out is not None:
            np.matmul(acts[i].T, delta, out=w_out)
            if gather:
                g[w_pos] = w_out.ravel()[w_sel]
        if b_sel is not None:
            g[b_pos] = delta.sum(axis=0)[b_sel]
        if i > 0:
            layer = arch.layers[i]
            mat = w[slices[i][0]].reshape(layer.in_width, layer.out_width)
            delta = delta @ mat.T
            prev = acts[i]
            prev_kind = arch.layers[i - 1].activation
            if prev_kind == "relu":
                delta = delta * (prev > 0)
            elif prev_kind == "sigmoid":
                delta = delta * prev * (1.0 - prev)
            # identity: unchanged


def gradient(w, arch, x, targets):
    """Backprop gradient of the mean batch loss, flat like w."""
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    _check_batch(arch, x, targets)
    k, _, layout = _full(arch)[1]
    g = np.empty(k)
    _backward(w, arch, x, targets, layout, g, _weight_outs(arch, layout, g))
    return g


def _batch_stream(n_samples, batch_size, seed):
    """Yield index arrays: uniform without replacement, reshuffled per epoch."""
    rng = np.random.default_rng(seed)
    while True:
        order = rng.permutation(n_samples)
        for start in range(0, n_samples, batch_size):
            chunk = order[start:start + batch_size]
            if len(chunk) == batch_size or start == 0:
                yield chunk


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


@functools.lru_cache(maxsize=8)
def _full(arch):
    # The shared array is a read-only view of the layout cache's own key.
    key = np.arange(arch.n_params, dtype=np.int64).tobytes()
    return np.frombuffer(key, dtype=np.int64), _topk_layout(arch, key)


def full_indices(arch):
    """Every coordinate of `arch`, as one shared read-only array.

    `topk_sgd` recognises this array by identity and uses the layout built
    with it, so a full-set call neither hashes nor validates n indices.
    """
    return _full(arch)[0]


def topk_sgd(x, y, w, w0, arch, t_gd, indices, eta, batch_size, seed):
    """SGD that only moves the coordinates in `indices`; the rest stay at w0.

    `indices` must be strictly increasing. Each step runs the backward pass
    `gradient` runs, but writes only the retained gradient entries: a layer
    whose weights are all retained has its matmul written straight into the
    update, any other has its retained entries gathered from a buffer reused
    across steps. `full_indices(arch)` is recognised by
    identity, so the full set costs no per-call index bookkeeping; any other
    array is validated and its layout cached by content. The result equals
    SGD on `gradient(...)[indices]` bit for bit, and agrees with w0 outside
    the index set exactly. Only `w[indices]` is read.
    """
    if t_gd < 1:
        raise ConfigError(f"t_gd must be >= 1, got {t_gd}")
    if len(x) == 0:
        raise DataError("empty training set")
    # Every batch is a row subset of the shard, so one check covers them all.
    _check_batch(arch, x, y)
    full, full_layout = _full(arch)
    if indices is full:
        k, sel, layout = full_layout
        cur = np.array(w, dtype=np.float64)
    else:
        k, sel, layout = _topk_layout(
            arch, np.asarray(indices, dtype=np.int64).tobytes())
        # Start from w0 outside the set, caller-provided values inside it.
        cur = np.array(w0, dtype=np.float64)
        cur[sel] = np.asarray(w, dtype=np.float64)[sel]
    g = np.empty(k)
    outs = _weight_outs(arch, layout, g)
    batch_size = min(batch_size, len(x))
    stream = _batch_stream(len(x), batch_size, seed)
    for _ in range(t_gd):
        idx = next(stream)
        _backward(cur, arch, np.asarray(x[idx], dtype=np.float64),
                  np.asarray(y[idx], dtype=np.float64), layout, g, outs)
        g *= -eta
        cur[sel] += g
    return cur
