"""Minimal dense feed-forward network on flat weight vectors.

Models are plain float64 numpy arrays holding all weights and biases, one
(in + 1, out) block a layer; `_layers` views them as per-layer matrices.
Everything is a pure function of (inputs, seed) so federated clients can be
evaluated independently and reproducibly.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError

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

    # n_params is cached per instance, outside the fields, so equality and
    # hashing (which key `_index_set`'s cache) stay field-based.
    @functools.cached_property
    def n_params(self):
        return sum(l.in_width * l.out_width + l.out_width for l in self.layers)

    @property
    def input_width(self):
        return self.layers[0].in_width

    @property
    def output_width(self):
        return self.layers[-1].out_width


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
    for layer, (mat, _) in zip(arch.layers, _layers(w, arch)):
        limit = math.sqrt(6.0 / (layer.in_width + layer.out_width))
        mat[...] = rng.uniform(-limit, limit, mat.shape)
    return w


def _activate(z, kind):
    """The activation of the pre-activation `z`, written into `z`."""
    if kind == "relu":
        np.maximum(z, 0.0, out=z)
    elif kind == "sigmoid":
        np.negative(z, out=z)
        with np.errstate(over="ignore"):  # exp(-z) = inf: the limit, 0
            np.exp(z, out=z)
        z += 1.0
        np.divide(1.0, z, out=z)
    elif kind == "softmax":
        z -= z.max(axis=-1, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=-1, keepdims=True)
    return z


def _layers(w, arch, first=None):
    """Each layer's weight matrix and bias row as views of `w`: (in, out) and
    (1, out) for a flat model, with a leading group axis for a (G, n) stack.
    The views follow in-place updates of `w`, so SGD takes them once. A
    layer is one (in + 1, out) block, its bias the last row. With `first`,
    an (inputs, cols) pair of sizes, `w` is an index set's sub-model (see
    `_index_set`), whose layer-0 block is (inputs + 1, cols)."""
    lead, out, pos = w.shape[:-1], [], 0
    for i, layer in enumerate(arch.layers):
        rows, width = first if first and not i else (layer.in_width, layer.out_width)
        end = pos + (rows + 1) * width
        block = w[..., pos:end].reshape(lead + (rows + 1, width))
        out.append((block[..., :-1, :], block[..., -1:, :]))
        pos = end
    return out


def _forward(layers, arch, x, z0=None, cols=None):
    """Returns the list of post-activation values per layer, input included.

    `layers` comes from `_layers(w, arch)`. Rank-polymorphic: a flat model
    `w` with (rows, width) inputs, or a (G, n) stack of models with a
    (G, rows, width) stack of inputs, one per model. With `z0`, a cached
    pre-activation of layer 0 at w0 (see `layer0_view`), `layers` is an
    index set's sub-model and x holds only its `inputs` columns: layer 0's
    units `cols` become z0's plus the set's change, x @ ΔW + Δb, written
    into z0, and every other unit keeps z0's value.
    """
    acts = [x]
    for i, layer in enumerate(arch.layers):
        mat, bias = layers[i]
        z = acts[-1] @ mat
        z += bias if i or z0 is None else z0[..., cols] + bias
        if i == 0 and z0 is not None:
            z0[..., cols] = z
            z = z0
        acts.append(_activate(z, layer.activation))
    return acts


def _check_batch(arch, x, y=None, inputs=None, z0=None):
    """x is (rows, input width), or under a `layer0_view` (x, z0) that
    gathered the columns `inputs`, (rows, inputs.size) with z0's rows; y, if
    given, is (rows, output width)."""
    width = arch.input_width if inputs is None else inputs.size
    if x.ndim != 2 or x.shape[1] != width:
        raise DimensionError(
            f"inputs of width {x.shape[1] if x.ndim == 2 else '?'} do not "
            f"match input width {width}")
    if z0 is not None and len(z0) != len(x):
        raise DimensionError(f"{len(x)} input rows against a layer-0 view of {len(z0)}")
    if y is not None and y.shape != x.shape[:-1] + (arch.output_width,):
        raise DimensionError(
            f"targets {y.shape} do not match (batch, {arch.output_width})")


def predictor(w, arch, x, layer0=None, indices=None, w0=None):
    """Output-layer activations for a batch of inputs, in two steps: this
    call checks the inputs and builds the model's layers, and returns a
    closure that runs the forward pass and gives them.

    With `layer0`, (x, layer0) is the `layer0_view` of the base model w0
    for the index set `indices`, outside which w's layer 0 equals w0's: x
    holds only the view's input columns, the layers are the set's sub-model,
    and layer 0's pre-activation is the cached one plus the set's change
    from w0. This matches the dense pass up to rounding, and bit for bit at
    w = w0.

    The closure reads only those layers (views of w on the dense path), x
    and the view, and writes none of them, so while the caller leaves them
    be it may run on another thread. It calls only private code, so a timer
    wrapped around this module's public functions never runs there."""
    x = np.asarray(x, dtype=np.float64)
    cols = None
    if layer0 is None:
        _check_batch(arch, x)
        layers = _layers(w, arch)
    else:
        key = np.asarray(indices, dtype=np.int64).tobytes()
        _, cols, _, inputs = _index_set(arch, key)
        _check_batch(arch, x, inputs=inputs, z0=layer0)
        layers = _layers(_sub_model(arch, key, w, w0, w), arch, (inputs.size, cols.size))

    def forward():
        return _forward(layers, arch, x, None if layer0 is None else layer0.copy(),
                        cols)[-1]

    return forward


def _backward(layers, arch, x, targets, grads, z0=None, cols=None):
    """One forward and backward pass of the mean batch loss at the model
    whose `_layers` are `layers`. Writes each layer's weight and bias
    gradient into `grads`, the `_layers` of a buffer shaped like the model.
    A (G, n) stack of models runs on (G, batch, width) stacks and fills a
    (G, n) buffer, each row as its own flat pass would. With `z0`, both are
    an index set's sub-model and layer 0 runs on the cached pre-activation;
    see `_forward`. Layer 0's delta is then that of its units `cols`."""
    acts = _forward(layers, arch, x, z0, cols)
    # Softmax+CE and sigmoid+BCE share the same output delta, built in the
    # output activations, which nothing reads after it.
    delta = acts[-1]
    delta -= targets
    delta /= x.shape[-2]
    for i in range(len(arch.layers) - 1, -1, -1):
        if i == 0 and z0 is not None:
            delta = delta.take(cols, axis=-1)
        g_mat, g_bias = grads[i]
        np.matmul(acts[i].swapaxes(-1, -2), delta, out=g_mat)
        # `ndarray.sum`, not `np.sum`, whose Python wrapper costs µs a call.
        delta.sum(axis=-2, keepdims=True, out=g_bias)
        if i > 0:
            delta = delta @ layers[i][0].swapaxes(-1, -2)
            prev = acts[i]
            prev_kind = arch.layers[i - 1].activation
            if prev_kind == "relu":
                delta *= prev > 0
            elif prev_kind == "sigmoid":
                delta *= prev
                delta *= 1.0 - prev
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

    Returns read-only `(indices, cols, pos, inputs)`: `cols` are the
    layer-0 units that hold a weight or bias of the set and `inputs` the
    input rows its layer-0 weights use, both sorted, and `pos` the set's
    positions in its sub-model (see `_sub_model`): layer 0 as one
    (inputs + 1, cols) block, bias row last, then every later layer in full.
    """
    indices = np.frombuffer(key, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= arch.n_params):
        raise IndexError("index set out of range for this architecture")
    if np.any(np.diff(indices) <= 0):
        raise IndexError("index set must be strictly increasing")
    # Layer 0's weights and bias are the rows of one (in + 1, out) block.
    first = arch.layers[0]
    stop = (first.in_width + 1) * first.out_width
    n_first = np.searchsorted(indices, stop)
    rows, units = np.divmod(indices[:n_first], first.out_width)
    cols = np.flatnonzero(np.bincount(units))  # np.unique would import numpy.ma
    # The bias row, in_width, sorts after every input row.
    inputs = np.flatnonzero(np.bincount(rows, minlength=first.in_width + 1)[:-1])
    pos = indices + ((inputs.size + 1) * cols.size - stop)
    pos[:n_first] = inputs.searchsorted(rows) * cols.size + cols.searchsorted(units)
    for a in (cols, pos, inputs):
        a.flags.writeable = False
    return indices, cols, pos, inputs


def _sub_model(arch, key, w, w0, rest):
    """The sub-model of the index set whose int64 bytes are `key`, for a
    model equal to w0 in layer 0 off the set, as `_layers(sub, arch,
    (inputs.size, cols.size))` reads it: layer 0 holds w's change from w0
    at the set, zero elsewhere, and later layers are `rest`'s, w's at the set."""
    indices, cols, pos, inputs = _index_set(arch, key)
    stop = (arch.input_width + 1) * arch.layers[0].out_width
    sub = np.concatenate([np.zeros((inputs.size + 1) * cols.size), rest[stop:]])
    sub[pos] = w[indices] - np.where(indices < stop, w0[indices], 0.0)
    return sub


# The floor of `layer0_columns`' predicate, in layer-0 multiply-adds per
# input row. Timings of both paths (5 steps, batch 10, 1 BLAS thread, 2-vCPU
# 2.1 GHz Xeon VM) broke even near 2**14 (256→64 and 128→128 with 4 units
# touched); the floor is twice that, for margin.
LAYER0_CACHE_MIN_SAVED = 1 << 15


def layer0_columns(arch, indices):
    """The layer-0 output units that the index set `indices` touches, or
    None when training or scoring it through a `layer0_view` would not pay.

    Per input row, the cached path skips `in_width` multiply-adds for every
    unit the set leaves clean, and gathers about as many per touched unit.
    So it is taken only when in_width × (clean − touched units) reaches
    LAYER0_CACHE_MIN_SAVED: a Top-K set on 784→100 touching 3 units passes
    (784 × 94); the README config's set (20 × 48) and the full set do not.
    `full_indices(arch)` is refused by identity, neither hashed nor held.
    """
    if indices is full_indices(arch):
        return None
    cols = _index_set(arch, np.asarray(indices, dtype=np.int64).tobytes())[1]
    first = arch.layers[0]
    clean = first.out_width - cols.size
    saved = first.in_width * (clean - cols.size)
    return cols if saved >= LAYER0_CACHE_MIN_SAVED else None


def model_size(arch, indices=None):
    """The float64 values of one client's model row in `topk_sgd`: n, or
    for a set `indices` whose `layer0_view` pays, its sub-model's (see
    `_sub_model`)."""
    if indices is None or layer0_columns(arch, indices) is None:
        return arch.n_params
    _, cols, _, inputs = _index_set(arch, np.asarray(indices, dtype=np.int64).tobytes())
    return arch.n_params + (inputs.size + 1) * cols.size - (
        arch.input_width + 1) * arch.layers[0].out_width


def layer0_view(w0, arch, x, indices):
    """The inputs x as `predictor` and `topk_sgd` read them for the index set
    `indices` at the base model w0, or None where `layer0_columns` says the
    dense pass is cheaper. The view is (x[:, R], x @ W0 + b0): the input
    rows R of the set's layer-0 weights, in order, and layer 0's
    pre-activation at w0. Both callers add the set's change from w0 to the
    units it touches, and never write the view."""
    x = np.asarray(x, dtype=np.float64)
    _check_batch(arch, x)
    if layer0_columns(arch, indices) is None:
        return None
    inputs = _index_set(arch, np.asarray(indices, dtype=np.int64).tobytes())[3]
    mat, bias = _layers(w0, arch)[0]
    # In 10-row products, whose bits do not depend on the BLAS thread
    # count; one product over every row does.
    z0 = np.empty((len(x), mat.shape[1]))
    for i in range(0, len(x), 10):
        np.matmul(x[i:i + 10], mat, out=z0[i:i + 10])
    z0 += bias
    return x.take(inputs, axis=1), z0


def topk_sgd(x, y, w, w0, arch, t_gd, indices, eta, batch_size, seeds, rows,
             layer0=None):
    """SGD that only moves the coordinates in `indices`, with the rest held
    at w0, for a group of G clients: `rows` holds their (G, shard) row
    indices into the training set `x`, `y`, and `seeds` their G batch seeds.

    Returns (G, K): row c is client c's trained values at `indices`, in
    index order, bit for bit whatever the rest of the group, so one client
    trains as a group of one. Every client begins from the same `w`, of
    which only `w[indices]` is read. A call draws every client's batches and
    gathers their rows as it begins, and each step is one forward and
    backward pass over all of them.

    `indices` must be strictly increasing; `full_indices(arch)` is
    recognised by identity and gathers nothing, and any other array is
    validated and cached by content. Each step backpropagates into one
    buffer shaped like the model, gathers the set's entries and adds them,
    scaled by -eta, into the model: SGD on `gradient(...)[indices]`, bit for
    bit.

    With `layer0`, (x, layer0) is the training set's `layer0_view` of w0
    for `indices`, so x holds only the view's input columns. A client's
    model and gradient buffer then hold only the set's sub-model (see
    `_sub_model`), and each step recomputes only the units the set touches:
    the dense result up to rounding, returned as w's values plus each step.
    """
    if t_gd < 1:
        raise ValueError(f"t_gd must be >= 1, got {t_gd}")
    x, y, rows = np.asarray(x), np.asarray(y), np.asarray(rows)
    if rows.ndim != 2 or len(rows) != len(seeds):
        raise DimensionError(f"{len(seeds)} batch seeds for rows of shape {rows.shape}")
    if 0 in rows.shape:
        raise DimensionError(f"rows {rows.shape}: a group of 0 clients or of empty shards")
    # One model row per client, holding the set at `pos`: w for the shared
    # full set, else w0 with w's values at the set or, under the view, the
    # set's sub-model of w with w0's later layers.
    first = cols = inputs = None
    if indices is full_indices(arch) and layer0 is None:
        start, pos = w, slice(None)
    else:
        key = np.asarray(indices, dtype=np.int64).tobytes()
        indices, cols, pos, inputs = _index_set(arch, key)
        w = np.asarray(w, dtype=np.float64)
        if layer0 is None:
            start, pos, cols, inputs = w0.copy(), indices, None, None
            start[indices] = w[indices]
        else:
            start, first = _sub_model(arch, key, w, w0, w0), (inputs.size, cols.size)
    # Every batch is a row subset of x, so one check covers them all.
    _check_batch(arch, x, y, inputs, layer0)
    # Every step's batch as rows of x: (steps, batch) for G = 1 and
    # (steps, G, batch) for G > 1; numpy runs a group of one faster in 2-D.
    plans = [r[_batches(len(r), batch_size, t_gd, s)] for r, s in zip(rows, seeds)]
    at = plans[0] if len(plans) == 1 else np.stack(plans, axis=1)
    lead = at.shape[1:-1]
    # numpy indexes a flat model faster without a leading slice.
    in_set = (slice(None),) * len(lead) + (pos,)
    cur = np.tile(start, lead + (1,))
    trained = None if layer0 is None else np.tile(w[indices], lead + (1,))
    layers = _layers(cur, arch, first)
    g = np.empty_like(cur)
    grads = _layers(g, arch, first)
    # Every step's rows, gathered once; a step writes its own rows of z0.
    xs = np.asarray(x[at], dtype=np.float64)
    ys = np.asarray(y[at], dtype=np.float64)
    z0s = None if layer0 is None else layer0[at]
    for i in range(t_gd):
        _backward(layers, arch, xs[i], ys[i], grads, None if z0s is None else z0s[i],
                  cols)
        step = g[in_set]
        step *= -eta
        cur[in_set] += step
        if trained is not None:
            trained += step
    return (cur[in_set] if trained is None else trained).reshape(len(rows), -1)
