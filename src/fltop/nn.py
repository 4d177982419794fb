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
        return 1.0 / (1.0 + np.exp(-z))
    if kind == "softmax":
        shifted = z - z.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=-1, keepdims=True)
    return z


def _layers(w, arch, cols=None):
    """Each layer's weight matrix and bias row as views of `w`: (in, out) and
    (1, out) for a flat model, with a leading group axis for a (G, n) stack.
    The views follow in-place updates of `w`, so SGD takes them once. With
    `cols`, layer 0's matrix is only those columns, (in, len(cols)), packed
    at the front of its block: a gradient buffer for a `Layer0Cache`."""
    lead = w.shape[:-1]
    out = []
    for i, (layer, (w_sl, b_sl)) in enumerate(zip(arch.layers, arch.slices())):
        width = layer.out_width if i or cols is None else len(cols)
        mat = w[..., w_sl.start:w_sl.start + layer.in_width * width]
        out.append((mat.reshape(lead + (layer.in_width, width)), w[..., None, b_sl]))
    return out


def _forward(layers, arch, x, z0=None, cols=None):
    """Returns the list of post-activation values per layer, input included.

    `layers` comes from `_layers(w, arch)`. Rank-polymorphic: a flat model
    `w` with (rows, width) inputs, or a (G, n) stack of models with a
    (G, rows, width) stack of inputs, one per model. With `z0`, layer 0's
    pre-activation is `z0` (which this overwrites) with only the columns
    `cols` recomputed from `w`; see `Layer0Cache`.
    """
    acts = [x]
    for i, layer in enumerate(arch.layers):
        mat, bias = layers[i]
        if i == 0 and z0 is not None:
            z0[..., cols] = x @ mat[..., cols] + bias.take(cols, axis=-1)
            z = z0
        else:
            z = acts[-1] @ mat + bias
        acts.append(_activate(z, layer.activation))
    return acts


def _check_inputs(arch, x):
    if x.ndim != 2 or x.shape[1] != arch.input_width:
        raise DimensionError(
            f"inputs of width {x.shape[1] if x.ndim == 2 else '?'} do not "
            f"match architecture input width {arch.input_width}")


def _check_batch(arch, x, y):
    _check_inputs(arch, x)
    if y.shape != x.shape[:-1] + (arch.output_width,):
        raise DimensionError(
            f"targets {y.shape} do not match (batch, {arch.output_width})")


class Layer0Cache(NamedTuple):
    """Layer 0's pre-activation `z = x @ W0 + b0` at a base model w0, one row
    per input row, and the sorted layer-0 output units `cols` whose weights
    or bias a model may hold away from w0. `predict` and `topk_sgd` take one
    and recompute only those columns of layer 0; build it with
    `layer0_cache`, and only where `layer0_columns` says it pays."""
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
    _check_inputs(arch, x)
    if layer0 is None:
        return _forward(_layers(w, arch), arch, x)[-1]
    return _forward(_layers(w, arch), arch, x, layer0.z.copy(), layer0.cols)[-1]


def _backward(layers, arch, x, targets, grads, z0=None, cols=None):
    """One forward and backward pass of the mean batch loss at the model
    whose `_layers` are `layers`. Writes each layer's weight and bias
    gradient into `grads`, the `_layers` of a buffer shaped like the model.
    A (G, n) stack of models runs on (G, batch, width) stacks and fills a
    (G, n) buffer, each row as its own flat pass would. With `z0`, layer 0
    runs on the cached pre-activation (see `_forward`) and its weight
    gradient covers only the columns `cols`, as `_layers(g, arch, cols)`
    lays them out."""
    acts = _forward(layers, arch, x, z0, cols)
    # Softmax+CE and sigmoid+BCE share the same output delta.
    delta = (acts[-1] - targets) / x.shape[-2]
    for i in range(len(arch.layers) - 1, -1, -1):
        g_mat, g_bias = grads[i]
        np.matmul(acts[i].swapaxes(-1, -2),
                  delta if i or z0 is None else delta.take(cols, axis=-1),
                  out=g_mat)
        # `ndarray.sum`, not `np.sum`, whose Python wrapper costs µs a call.
        delta.sum(axis=-2, keepdims=True, out=g_bias)
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

    Returns read-only `(indices, cols, packed)`: `cols` are the layer-0
    output units that hold a weight or bias of the set, sorted; `packed`
    are the set's positions in a gradient buffer laid out by
    `_layers(g, arch, cols)`, where layer 0's weight gradient is only those
    columns, packed at the front of its block.
    """
    indices = np.frombuffer(key, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= arch.n_params):
        raise IndexError("index set out of range for this architecture")
    if np.any(np.diff(indices) <= 0):
        raise IndexError("index set must be strictly increasing")
    # Layer 0's weight block begins at 0, and its bias block follows it.
    (w_sl, b_sl), first = arch.slices()[0], arch.layers[0]
    n_weights, n_first = np.searchsorted(indices, (w_sl.stop, b_sl.stop))
    rows, units = np.divmod(indices[:n_weights], first.out_width)
    cols = np.union1d(units, indices[n_weights:n_first] - b_sl.start)
    packed = indices.copy()
    packed[:n_weights] = rows * cols.size + np.searchsorted(cols, units)
    cols.flags.writeable = packed.flags.writeable = False
    return indices, cols, packed


# The floor of `layer0_columns`' predicate, in layer-0 multiply-adds per
# input row. Timings of both paths (5 steps, batch 10, 1 BLAS thread, 2-vCPU
# 2.1 GHz Xeon VM) broke even near 2**14 (256→64 and 128→128 with 4 units
# touched); the floor is twice that, for margin.
LAYER0_CACHE_MIN_SAVED = 1 << 15


def layer0_columns(arch, indices):
    """The layer-0 output units that the index set `indices` touches, or
    None when a `Layer0Cache` for it would not pay.

    Per input row, the cached path skips `in_width` multiply-adds for every
    unit the set leaves clean, and gathers about as many per touched unit
    (their weight columns, delta columns and pre-activation rows). So it is
    taken only when in_width × (clean − touched units) reaches
    LAYER0_CACHE_MIN_SAVED. A Top-K set on 784→100 touching 3 units passes
    (784 × 94); the README config's set (20 × 48), a set that touches at
    least half the units and the full set do not.
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
    _check_inputs(arch, x)
    mat, bias = _layers(w0, arch)[0]
    return Layer0Cache(x @ mat + bias, cols)


def topk_sgd(x, y, w, w0, arch, t_gd, indices, eta, batch_size, seed,
             layer0=None, rows=None):
    """SGD that only moves the coordinates in `indices`; the rest stay at w0.

    Trains one client, or a group of G clients at once, on rows of the
    training set `x`, `y`. `rows` is None for every row, one client's
    (shard,) array of row indices, or a group's (G, shard) array, and
    `seed` is then a sequence of G batch seeds. Every client begins from
    the same `w` and shares `w0`, the index set and `layer0`; a group (of
    one too) returns (G, n), each row equal bit for bit to its client's own
    call. A call draws every client's batches from its seed as it begins,
    and each step is one forward and backward pass over all of them.

    `indices` must be strictly increasing. Each step runs the backward pass
    `gradient` runs into one model-shaped buffer, gathers the set's entries
    from it and adds them, scaled by -eta, into the model.
    `full_indices(arch)` is recognised by identity and gathers nothing; any
    other array is validated and cached by content. The result equals SGD on
    `gradient(...)[indices]` bit for bit, and agrees with w0 outside the
    index set exactly. Only `w[indices]` is read.

    `layer0` is an optional `Layer0Cache` of w0 for every row of x, built
    for exactly the layer-0 units the set touches (as `layer0_columns`
    returns them where the cache pays). Each step then takes layer 0's
    pre-activation from its rows and recomputes only those units, and
    computes layer 0's weight gradient only there. The model still agrees
    with w0 outside the set exactly; inside it, the result matches the dense
    one up to rounding, not bit for bit.
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
    # One model row per client. in_set picks each row's entries in the set,
    # in_g the same entries of the gradient buffer (numpy indexes a flat
    # model faster without a leading slice).
    cur = np.empty(lead + (arch.n_params,))
    cols = z = None
    if indices is full_indices(arch) and layer0 is None:
        cur[...] = w
        in_set = in_g = ...
    else:
        indices, touched, packed = _index_set(
            arch, np.asarray(indices, dtype=np.int64).tobytes())
        if layer0 is not None:
            cols, z = touched, layer0.z
            if not np.array_equal(cols, layer0.cols) or len(z) != len(x):
                raise ValueError("layer-0 cache does not match the index set "
                                 "and training set")
        group_axes = (slice(None),) * len(lead)
        in_set = group_axes + (indices,)
        in_g = group_axes + (indices if cols is None else packed,)
        # Start from w0 outside the set, caller-provided values inside it.
        cur[...] = w0
        cur[in_set] = np.asarray(w, dtype=np.float64)[indices]
    layers = _layers(cur, arch)
    g = np.empty(lead + (arch.n_params,))
    grads = _layers(g, arch, cols)
    for batch in at:
        _backward(layers, arch, np.asarray(x[batch], dtype=np.float64),
                  np.asarray(y[batch], dtype=np.float64), grads,
                  None if z is None else z[batch], cols)
        step = g[in_g]
        step *= -eta
        cur[in_set] += step
    return cur.reshape(group + (arch.n_params,))
