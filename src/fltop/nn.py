"""Minimal dense feed-forward network on flat weight vectors.

Models are plain float64 numpy arrays holding all weights and biases; the
architecture object knows how to slice them back into per-layer matrices.
Everything is a pure function of (inputs, seed) so federated clients can be
evaluated independently and reproducibly.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, DimensionError

HIDDEN_ACTIVATIONS = ("relu", "sigmoid", "identity")
ACTIVATIONS = HIDDEN_ACTIVATIONS + ("softmax",)
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
    # equality and hashing (which key `_index_set`'s cache) stay field-based.
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
        with np.errstate(over="ignore"):  # exp(-z) = inf: the limit, 0
            return 1.0 / (1.0 + np.exp(-z))
    if kind == "softmax":
        shifted = z - z.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=-1, keepdims=True)
    return z


def _layers(w, arch, cols=None):
    """Each layer's weight matrix and bias row as views of `w`: (in, out) and
    (1, out) for a flat model, with a leading group axis for a (G, n) stack.
    The views follow in-place updates of `w`, so SGD takes them once. A
    layer is one (in + 1, out) block, its bias the last row. With `cols`,
    `w` is a compact sub-model (see `_index_set`) whose layer-0 block is
    stored transposed, as one row of weights and bias per unit in `cols`."""
    lead, out, pos = w.shape[:-1], [], 0
    for i, layer in enumerate(arch.layers):
        width = layer.out_width if i or cols is None else len(cols)
        end = pos + (layer.in_width + 1) * width
        if i or cols is None:
            block = w[..., pos:end].reshape(lead + (layer.in_width + 1, width))
        else:
            block = w[..., pos:end].reshape(
                lead + (width, layer.in_width + 1)).swapaxes(-1, -2)
        out.append((block[..., :-1, :], block[..., -1:, :]))
        pos = end
    return out


def _forward(layers, arch, x, z0=None, cols=None):
    """Returns the list of post-activation values per layer, input included.

    `layers` comes from `_layers(w, arch)`. Rank-polymorphic: a flat model
    `w` with (rows, width) inputs, or a (G, n) stack of models with a
    (G, rows, width) stack of inputs, one per model. With `z0`, `layers[0]`
    holds only layer 0's units `cols`, and layer 0's pre-activation is `z0`
    (which this overwrites) with those columns recomputed; see `Layer0Cache`.
    """
    acts = [x]
    for i, layer in enumerate(arch.layers):
        mat, bias = layers[i]
        z = acts[-1] @ mat + bias
        if i == 0 and z0 is not None:
            z0[..., cols] = z
            z = z0
        acts.append(_activate(z, layer.activation))
    return acts


def _check_batch(arch, x, y=None):
    if x.ndim != 2 or x.shape[1] != arch.input_width:
        raise DimensionError(
            f"inputs of width {x.shape[1] if x.ndim == 2 else '?'} do not "
            f"match architecture input width {arch.input_width}")
    if y is not None and y.shape != x.shape[:-1] + (arch.output_width,):
        raise DimensionError(
            f"targets {y.shape} do not match (batch, {arch.output_width})")


class Layer0Cache(NamedTuple):
    """Layer 0's pre-activation `z = x @ W0 + b0` at a base model w0, one row
    per input row, and the sorted layer-0 output units `cols` whose weights
    or bias a model may hold away from w0. `predict` and `topk_sgd` take one
    and recompute only those units, and `topk_sgd` then trains the compact
    sub-model that holds only them in layer 0. Build it with `layer0_cache`,
    and only where `layer0_columns` says it pays."""
    z: np.ndarray
    cols: np.ndarray


def predict(w, arch, x, layer0=None):
    """Output-layer activations for a batch of inputs (forward pass only).

    `layer0` is an optional `Layer0Cache` for the rows of x. Every layer-0
    weight and bias of `w` outside its columns must equal the base model's;
    the scores then match the dense forward pass up to rounding in those
    columns.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_batch(arch, x)
    layers, z0, cols = _layers(w, arch), None, None
    if layer0 is not None:
        z0, cols = layer0.z.copy(), layer0.cols
        layers[0] = tuple(a[:, cols] for a in layers[0])
    return _forward(layers, arch, x, z0, cols)[-1]


def _backward(layers, arch, x, targets, grads, z0=None, cols=None):
    """One forward and backward pass of the mean batch loss at the model
    whose `_layers` are `layers`. Writes each layer's weight and bias
    gradient into `grads`, the `_layers` of a buffer shaped like the model.
    A (G, n) stack of models runs on (G, batch, width) stacks and fills a
    (G, n) buffer, each row as its own flat pass would. With `z0`, both are
    compact sub-models, `_layers(w, arch, cols)`, and layer 0 runs on the
    cached pre-activation; see `_forward`."""
    acts = _forward(layers, arch, x, z0, cols)
    # Softmax+CE and sigmoid+BCE share the same output delta.
    delta = (acts[-1] - targets) / x.shape[-2]
    for i in range(len(arch.layers) - 1, -1, -1):
        g_mat, g_bias = grads[i]
        if i or z0 is None:
            np.matmul(acts[i].swapaxes(-1, -2), delta, out=g_mat)
            # `ndarray.sum`, not `np.sum`, whose Python wrapper costs µs a call.
            delta.sum(axis=-2, keepdims=True, out=g_bias)
        else:  # into the (units, in) rows; a lone column would sum pairwise
            np.matmul(delta.take(cols, axis=-1).swapaxes(-1, -2), x,
                      out=g_mat.swapaxes(-1, -2))
            delta.sum(axis=-2, keepdims=True).take(cols, axis=-1, out=g_bias)
        if i > 0:
            delta = delta @ layers[i][0].swapaxes(-1, -2)
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
    g = np.empty(arch.n_params)
    _backward(_layers(w, arch), arch, x, targets, _layers(g, arch))
    return g


def _batches(n_rows, batch_size, steps, seed):
    """(steps, batch) positions in range(n_rows): uniform without replacement,
    reshuffled per epoch; each batch is full, and at most all n_rows."""
    rng = np.random.default_rng(seed)
    size = min(batch_size, n_rows)
    usable = n_rows - n_rows % size  # an epoch's positions in full batches
    order = np.concatenate([rng.permutation(n_rows)[:usable]
                            for _ in range(-(-steps * size // usable))])
    return order[:steps * size].reshape(steps, size)


@functools.lru_cache(maxsize=8)
def full_indices(arch):
    """Every coordinate of `arch`, as one shared read-only array.

    `topk_sgd` recognises this array by identity, so a full-set call
    neither hashes nor validates n indices, and gathers none.
    """
    full = np.arange(arch.n_params, dtype=np.int64)
    full.flags.writeable = False
    return full


@functools.lru_cache(maxsize=8)
def _index_set(arch, key):
    """The index set whose int64 bytes are `key`, validated; equal sets
    share one cache entry whatever array they come in.

    Returns read-only `(indices, cols, pos, src)`. `cols` are the layer-0
    output units that hold a weight or bias of the set, sorted. The set's
    compact sub-model, which `_layers(sub, arch, cols)` reads, holds those
    units' layer-0 weights and bias, as one row each, and every later layer:
    `w[src]` is the sub-model of `w`, and `pos` the set's positions in it.
    """
    indices = np.frombuffer(key, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= arch.n_params):
        raise IndexError("index set out of range for this architecture")
    if np.any(np.diff(indices) <= 0):
        raise IndexError("index set must be strictly increasing")
    # Layer 0's weights and bias are the rows of one (in + 1, out) block.
    first, stop = arch.layers[0], arch.slices()[0][1].stop
    n_first = np.searchsorted(indices, stop)
    rows, units = np.divmod(indices[:n_first], first.out_width)
    cols = np.flatnonzero(np.bincount(units))  # np.unique would import numpy.ma
    pos = indices - (first.in_width + 1) * (first.out_width - cols.size)
    pos[:n_first] = np.searchsorted(cols, units) * (first.in_width + 1) + rows
    src = np.concatenate([(cols[:, None] + first.out_width * np.arange(
        first.in_width + 1)).ravel(), np.arange(stop, arch.n_params)])
    cols.flags.writeable = pos.flags.writeable = src.flags.writeable = False
    return indices, cols, pos, src


# The floor of `layer0_columns`' predicate, in layer-0 multiply-adds per
# input row. Timings of both paths (5 steps, batch 10, 1 BLAS thread, 2-vCPU
# 2.1 GHz Xeon VM) broke even near 2**14 (256→64 and 128→128 with 4 units
# touched); the floor is twice that, for margin.
LAYER0_CACHE_MIN_SAVED = 1 << 15


def layer0_columns(arch, indices):
    """The layer-0 output units that the index set `indices` touches, or
    None when a `Layer0Cache` for it would not pay.

    Per input row, the cached path skips `in_width` multiply-adds for every
    unit the set leaves clean, and gathers about as many per touched unit.
    So it is taken only when in_width × (clean − touched units) reaches
    LAYER0_CACHE_MIN_SAVED: a Top-K set on 784→100 touching 3 units passes
    (784 × 94); the README config's set (20 × 48) and the full set do not.
    """
    cols = _index_set(arch, np.asarray(indices, dtype=np.int64).tobytes())[1]
    first = arch.layers[0]
    clean = first.out_width - cols.size
    if first.in_width * (clean - cols.size) < LAYER0_CACHE_MIN_SAVED:
        return None
    return cols


def layer0_cache(w0, arch, x, cols):
    """The `Layer0Cache` of the base model w0 for the rows of x; `cols`
    comes from `layer0_columns`."""
    x = np.asarray(x, dtype=np.float64)
    _check_batch(arch, x)
    mat, bias = _layers(w0, arch)[0]
    return Layer0Cache(x @ mat + bias, cols)


def topk_sgd(x, y, w, w0, arch, t_gd, indices, eta, batch_size, seed,
             layer0=None, rows=None):
    """SGD that only moves the coordinates in `indices`, with the rest held
    at w0; returns the trained values at `indices`, in index order.

    Trains one client, or a group of G clients at once, on rows of the
    training set `x`, `y`. `rows` is None for every row, one client's
    (shard,) array of row indices, which gives a K-vector, or a group's
    (G, shard) array with a sequence of G batch `seed`s, which gives (G, K)
    for G = 1 too, each row equal bit for bit to its client's own call.
    Every client begins from the same `w`, of which only `w[indices]` is
    read. A call draws every client's batches as it begins, and each step
    is one forward and backward pass over all of them.

    `indices` must be strictly increasing; `full_indices(arch)` is
    recognised by identity and gathers nothing, and any other array is
    validated and cached by content. Each step backpropagates into one
    buffer shaped like the model, gathers the set's entries and adds them,
    scaled by -eta, into the model: SGD on `gradient(...)[indices]`, bit for
    bit.

    `layer0` is an optional `Layer0Cache` of w0 for every row of x, for
    exactly the layer-0 units the set touches (`layer0_columns` says where
    it pays). A client's model and gradient buffer then hold only the set's
    compact sub-model (see `_index_set`), and each step recomputes only
    those units. This matches the dense result up to rounding.
    """
    if t_gd < 1:
        raise ConfigError(f"t_gd must be >= 1, got {t_gd}")
    x, y = np.asarray(x), np.asarray(y)
    # Every batch is a row subset of x, so one check covers them all.
    _check_batch(arch, x, y)
    rows = np.arange(len(x)) if rows is None else np.asarray(rows)
    if rows.shape[-1] == 0:
        raise DataError("empty training set")
    group = rows.shape[:-1]  # (G,) for a group, () for one client
    seeds = list(seed) if group else [seed]
    if len(seeds) != math.prod(group):
        raise DimensionError(f"{len(seeds)} batch seeds for {math.prod(group)} shards")
    # Every step's batch as rows of x: (steps, batch) for one client and
    # (steps, G, batch) for G > 1; numpy runs a group of one faster in 2-D.
    plans = [r[_batches(len(r), batch_size, t_gd, s)]
             for r, s in zip(rows.reshape(len(seeds), -1), seeds)]
    at = plans[0] if len(plans) == 1 else np.stack(plans, axis=1)
    lead = at.shape[1:-1]
    # One model row per client, holding the set at `pos`: w for the shared
    # full set, else w0 or its sub-model `w0[src]` with w's values at the set.
    cols = z = None
    if indices is full_indices(arch) and layer0 is None:
        start, pos = w, slice(None)
    else:
        indices, touched, pos, src = _index_set(
            arch, np.asarray(indices, dtype=np.int64).tobytes())
        if layer0 is not None:
            cols, z = touched, layer0.z
            if not np.array_equal(cols, layer0.cols) or len(z) != len(x):
                raise ValueError("layer-0 cache does not match the index set "
                                 "and training set")
        start, pos = (w0, indices) if z is None else (w0[src], pos)
    # numpy indexes a flat model faster without a leading slice.
    in_set = (slice(None),) * len(lead) + (pos,)
    cur = np.tile(start, lead + (1,))
    if start is not w:
        cur[in_set] = np.asarray(w, dtype=np.float64)[indices]
    layers = _layers(cur, arch, cols)
    g = np.empty_like(cur)
    grads = _layers(g, arch, cols)
    for batch in at:
        _backward(layers, arch, np.asarray(x[batch], dtype=np.float64),
                  np.asarray(y[batch], dtype=np.float64), grads,
                  None if z is None else z[batch], cols)
        step = g[in_set]
        step *= -eta
        cur[in_set] += step
    return cur[in_set].reshape(group + (-1,))
