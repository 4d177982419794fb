import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fltop import compression, nn
from fltop.errors import ConfigError, DataError, DimensionError

from oracles import (batch_stream, dense_gradient, finite_difference_gradient,
                     forward_loss, layer_slices, reference_layer0_view,
                     reference_topk_sgd, touched_inputs, touched_units)


def full_sgd(x, y, w, arch, t_gd, eta, batch_size, seed):
    """Plain SGD: `nn.topk_sgd` over the shared full index set."""
    return nn.topk_sgd(x, y, w, w, arch, t_gd, nn.full_indices(arch), eta,
                       batch_size, seed)


def forced_view(w0, arch, x, indices):
    """`nn.layer0_view`, or the reference view where `nn` would take the
    dense pass, so that every set can run the cached path."""
    return (nn.layer0_view(w0, arch, x, indices)
            or reference_layer0_view(w0, arch, x, indices))


def one_hot(labels, k):
    out = np.zeros((len(labels), k))
    out[np.arange(len(labels)), labels] = 1.0
    return out


@st.composite
def topk_cases(draw):
    """A small network, a shard, a batch size and an index set of one kind."""
    n_hidden = draw(st.integers(1, 3))
    widths = draw(st.lists(st.integers(1, 5), min_size=n_hidden + 1,
                           max_size=n_hidden + 1))
    loss = draw(st.sampled_from(nn.LOSSES))
    binary = loss == "binary_cross_entropy"
    out_width = 1 if binary else draw(st.integers(2, 3))
    kinds = draw(st.lists(st.sampled_from(("relu", "sigmoid")),
                          min_size=n_hidden, max_size=n_hidden))
    layers = [nn.LayerSpec(a, b, kind)
              for a, b, kind in zip(widths, widths[1:], kinds)]
    layers.append(nn.LayerSpec(widths[-1], out_width,
                               "sigmoid" if binary else "softmax"))
    arch = nn.ArchSpec(tuple(layers), loss)
    n = arch.n_params
    slices = layer_slices(arch)
    set_kind = draw(st.sampled_from(("empty", "bias", "one_layer", "random",
                                     "blocks", "full", "shared")))
    if set_kind == "empty":
        chosen = set()
    elif set_kind == "bias":
        biases = [j for _, b_sl in slices for j in range(b_sl.start, b_sl.stop)]
        chosen = draw(st.sets(st.sampled_from(biases), min_size=1))
    elif set_kind == "one_layer":
        w_sl, b_sl = slices[draw(st.integers(0, len(slices) - 1))]
        chosen = draw(st.sets(st.integers(w_sl.start, b_sl.stop - 1), min_size=1))
    elif set_kind == "random":
        chosen = draw(st.sets(st.integers(0, n - 1), min_size=1))
    elif set_kind == "blocks":
        # Whole weight blocks, plus any part of one layer's weights and bias.
        whole = draw(st.sets(st.integers(0, len(slices) - 1), min_size=1))
        chosen = {j for i in whole for j in range(slices[i][0].start,
                                                  slices[i][0].stop)}
        w_sl, b_sl = slices[draw(st.integers(0, len(slices) - 1))]
        chosen |= draw(st.sets(st.integers(w_sl.start, b_sl.stop - 1)))
    else:
        chosen = range(n)
    if set_kind == "shared":
        indices = nn.full_indices(arch)
    else:
        indices = np.array(sorted(chosen), dtype=np.int64)
    shard = draw(st.integers(1, 8))
    batch_size = draw(st.integers(1, 10))
    t_gd = draw(st.integers(1, 4))
    eta = draw(st.sampled_from((0.05, 0.3, 1.0)))
    data_seed = draw(st.integers(0, 2**32 - 1))
    return arch, indices, shard, batch_size, t_gd, eta, data_seed


@st.composite
def layer0_cases(draw):
    """A network whose layer 0 is wide enough for the layer-0 cache to pay,
    a shard, and an index set that touches one of layer 0's units, a few,
    up to half of them or every one, plus some deeper coordinates."""
    in_width = draw(st.integers(512, 784))
    widths = [in_width] + draw(st.lists(st.integers(96, 128), min_size=1,
                                        max_size=1))
    widths += draw(st.lists(st.integers(2, 6), max_size=1))
    loss = draw(st.sampled_from(nn.LOSSES))
    binary = loss == "binary_cross_entropy"
    kinds = draw(st.lists(st.sampled_from(("relu", "sigmoid")),
                          min_size=len(widths) - 1, max_size=len(widths) - 1))
    layers = [nn.LayerSpec(a, b, kind)
              for a, b, kind in zip(widths, widths[1:], kinds)]
    layers.append(nn.LayerSpec(widths[-1], 1 if binary else 10,
                               "sigmoid" if binary else "softmax"))
    arch = nn.ArchSpec(tuple(layers), loss)
    touched = draw(st.sampled_from(("one", "few", "half", "every")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hidden = widths[1]
    low, high = {"one": (1, 1), "few": (2, 8), "half": (9, hidden // 2),
                 "every": (hidden, hidden)}[touched]
    units = rng.choice(hidden, draw(st.integers(low, high)), replace=False)
    w_sl, b_sl = layer_slices(arch)[0]
    chosen = set()
    for u in units:
        # Some of the unit's weights, its bias, or both.
        rows = rng.choice(in_width, rng.integers(0, 4), replace=False)
        chosen.update(w_sl.start + rows * hidden + u)
        if rows.size == 0 or rng.random() < 0.5:
            chosen.add(b_sl.start + u)
    chosen.update(rng.choice(np.arange(b_sl.stop, arch.n_params),
                             rng.integers(0, 20), replace=False))
    indices = np.array(sorted(chosen), dtype=np.int64)
    shard = draw(st.integers(1, 12))
    batch_size = draw(st.integers(1, 10))
    t_gd = draw(st.integers(1, 4))
    eta = draw(st.sampled_from((0.05, 0.3, 1.0)))
    data_seed = draw(st.integers(0, 2**32 - 1))
    return arch, indices, touched, shard, batch_size, t_gd, eta, data_seed


def topk_inputs(arch, shard, data_seed):
    """Shard, targets, start point w and pinned w0 (w differs from w0 everywhere)."""
    rng = np.random.default_rng(data_seed)
    x = rng.uniform(-1, 1, (shard, arch.input_width))
    if arch.loss == "binary_cross_entropy":
        y = rng.integers(0, 2, (shard, 1)).astype(float)
    else:
        y = one_hot(rng.integers(0, arch.output_width, shard), arch.output_width)
    w0 = nn.init_model(arch, data_seed % 1000)
    w = w0 + rng.normal(0, 0.1, arch.n_params)
    return x, y, w, w0


def group_inputs(arch, group, shard, data_seed):
    """`topk_inputs` for a training set of group × shard + 3 rows, and a
    (group, shard) array of disjoint, unsorted client rows drawn from it."""
    x, y, w, w0 = topk_inputs(arch, group * shard + 3, data_seed)
    rows = np.random.default_rng(data_seed).permutation(len(x))[:group * shard]
    return x, y, w, w0, rows.reshape(group, shard)


class TestArchSpec:
    def test_param_counts(self):
        arch = nn.mlp_arch(784, [128], 10, "cross_entropy")
        assert arch.n_params == 784 * 128 + 128 + 128 * 10 + 10 == 101770
        medical = nn.mlp_arch(7280, [200, 200], 1, "binary_cross_entropy")
        assert medical.n_params == 1496601

    def test_cached_sizes_keep_field_equality(self):
        a = nn.mlp_arch(3, [4], 2, "cross_entropy")
        b = nn.mlp_arch(3, [4], 2, "cross_entropy")
        assert a.n_params == 26
        assert a == b and hash(a) == hash(b)
        assert a != nn.mlp_arch(3, [5], 2, "cross_entropy")

    def test_width_chaining_enforced(self):
        layers = (nn.LayerSpec(4, 3, "relu"), nn.LayerSpec(2, 2, "softmax"))
        with pytest.raises(ConfigError):
            nn.ArchSpec(layers, "cross_entropy")

    def test_loss_activation_pairing(self):
        with pytest.raises(ConfigError):
            nn.ArchSpec((nn.LayerSpec(4, 2, "relu"),), "cross_entropy")
        with pytest.raises(ConfigError):
            nn.ArchSpec((nn.LayerSpec(4, 1, "softmax"),), "binary_cross_entropy")
        with pytest.raises(ConfigError):
            nn.ArchSpec((nn.LayerSpec(4, 2, "softmax"),
                         nn.LayerSpec(2, 2, "softmax")), "cross_entropy")


class TestInit:
    def test_deterministic(self, toy_arch):
        a = nn.init_model(toy_arch, 7)
        b = nn.init_model(toy_arch, 7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, nn.init_model(toy_arch, 8))

    def test_biases_zero_weights_bounded(self, toy_arch):
        w = nn.init_model(toy_arch, 3)
        for layer, (w_sl, b_sl) in zip(toy_arch.layers, layer_slices(toy_arch)):
            assert np.all(w[b_sl] == 0.0)
            limit = math.sqrt(6.0 / (layer.in_width + layer.out_width))
            assert np.all(np.abs(w[w_sl]) <= limit)


class TestForward:
    def test_zero_weight_binary_loss_is_ln2(self, binary_arch):
        w = np.zeros(binary_arch.n_params)
        x = np.random.default_rng(0).uniform(0, 1, (8, 4))
        y = np.array([0, 1] * 4, dtype=float).reshape(-1, 1)
        loss, preds = forward_loss(w, binary_arch, x, y)
        assert loss == pytest.approx(math.log(2), abs=1e-12)
        assert np.all(preds == 0.5)

    def test_softmax_rows_sum_to_one(self, toy_arch, toy_batch):
        x, y = toy_batch
        w = nn.init_model(toy_arch, 1)
        _, preds = forward_loss(w, toy_arch, x, y)
        assert np.allclose(preds.sum(axis=1), 1.0, atol=1e-9)
        assert np.array_equal(nn.predict(w, toy_arch, x), preds)

    def test_matches_independent_reimplementation(self, toy_arch, toy_batch):
        # Per-sample, loop-based forward pass written independently of the
        # vectorized one.
        x, y = toy_batch
        w = nn.init_model(toy_arch, 5)
        (w1s, b1s), (w2s, b2s) = layer_slices(toy_arch)
        w1 = w[w1s].reshape(2, 3)
        b1 = w[b1s]
        w2 = w[w2s].reshape(3, 2)
        b2 = w[b2s]
        total = 0.0
        for xi, yi in zip(x, y):
            h = np.maximum(xi @ w1 + b1, 0.0)
            z = h @ w2 + b2
            p = np.exp(z - z.max())
            p /= p.sum()
            total += -np.sum(yi * np.log(p + 1e-12))
        expected = total / len(x)
        loss, _ = forward_loss(w, toy_arch, x, y)
        assert loss == pytest.approx(expected, abs=1e-10)

    def test_shape_mismatch(self, toy_arch, monkeypatch):
        def backward(*args):
            raise AssertionError("backward pass ran on a malformed batch")

        monkeypatch.setattr(nn, "_backward", backward)
        w = nn.init_model(toy_arch, 0)
        full = nn.full_indices(toy_arch)
        # Inputs too wide, targets too wide, fewer targets than inputs: the
        # last passes a per-batch check whenever the batch misses row 2.
        for x, y in [(np.zeros((3, 5)), np.zeros((3, 2))),
                     (np.zeros((3, 2)), np.zeros((3, 5))),
                     (np.zeros((3, 2)), np.zeros((2, 2)))]:
            with pytest.raises(DimensionError):
                nn.gradient(w, toy_arch, x, y)
            with pytest.raises(DimensionError):
                nn.topk_sgd(x, y, w, w, toy_arch, 1, full, 0.1, 2, 0)
        with pytest.raises(DimensionError):
            nn.predict(w, toy_arch, np.zeros((3, 5)))


class TestGradient:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        arch = nn.mlp_arch(3, [4], 2, "cross_entropy")
        w = nn.init_model(arch, seed)
        x = rng.uniform(0, 1, (5, 3))
        y = one_hot(rng.integers(0, 2, 5), 2)
        g = nn.gradient(w, arch, x, y)
        fd = finite_difference_gradient(w, arch, x, y)
        assert np.allclose(g, fd, rtol=1e-4, atol=1e-7)

    def test_binary_matches_finite_differences(self, binary_arch):
        rng = np.random.default_rng(10)
        w = nn.init_model(binary_arch, 10)
        x = rng.uniform(0, 1, (5, 4))
        y = rng.integers(0, 2, 5).astype(float).reshape(-1, 1)
        g = nn.gradient(w, binary_arch, x, y)
        fd = finite_difference_gradient(w, binary_arch, x, y)
        assert np.allclose(g, fd, rtol=1e-4, atol=1e-7)

    def test_ten_parameter_net_relative_tolerance(self):
        # 3 -> 2 -> 1 sigmoid, 11 parameters
        arch = nn.mlp_arch(3, [2], 1, "binary_cross_entropy")
        assert arch.n_params == 11
        rng = np.random.default_rng(3)
        w = rng.normal(0, 0.5, arch.n_params)
        x = rng.uniform(0, 1, (4, 3))
        y = rng.integers(0, 2, 4).astype(float).reshape(-1, 1)
        g = nn.gradient(w, arch, x, y)
        fd = finite_difference_gradient(w, arch, x, y)
        assert np.allclose(g, fd, rtol=1e-5, atol=1e-8)

    def test_zero_error_gives_zero_upstream_gradient(self):
        # Zero last-layer weights with balanced binary labels: predictions are
        # exactly the targets' mean, so the hidden layers receive no signal
        # when every prediction error is zero.
        arch = nn.mlp_arch(2, [2], 1, "binary_cross_entropy")
        w = nn.init_model(arch, 0)
        (w1s, b1s), (w2s, b2s) = layer_slices(arch)
        w[w2s] = 0.0
        w[b2s] = 0.0
        x = np.array([[0.2, 0.8], [0.7, 0.1]])
        y = np.array([[0.5], [0.5]])  # matches sigmoid(0) exactly
        g = nn.gradient(w, arch, x, y)
        assert np.allclose(g, 0.0, atol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(topk_cases())
    def test_matches_dense_oracle_bitwise(self, case):
        arch, _, shard, _, _, _, data_seed = case
        x, y, w, _ = topk_inputs(arch, shard, data_seed)
        assert np.array_equal(nn.gradient(w, arch, x, y),
                              dense_gradient(w, arch, x, y))


class TestSgd:
    def test_tgd_zero_rejected_and_eta_zero_identity(self, toy_arch, toy_batch):
        x, y = toy_batch
        w = nn.init_model(toy_arch, 0)
        # A caller's bug, never the usage error that a ConfigError reports.
        with pytest.raises(ValueError) as e:
            full_sgd(x, y, w, toy_arch, 0, 0.1, 4, 0)
        assert type(e.value) is ValueError
        out = full_sgd(x, y, w, toy_arch, 1, 0.0, 4, 0)
        assert np.array_equal(out, w)

    def test_single_step_matches_hand_unrolled(self, toy_arch, toy_batch):
        x, y = toy_batch
        w = nn.init_model(toy_arch, 0)
        out = full_sgd(x, y, w, toy_arch, 1, 0.1, len(x), 0)
        # batch_size = full set, so the step uses all samples in some order
        idx = next(batch_stream(len(x), len(x), 0))
        expected = w + (-0.1) * nn.gradient(w, toy_arch, x[idx], y[idx])
        assert np.array_equal(out, expected)

    def test_deterministic(self, toy_arch, toy_batch):
        x, y = toy_batch
        w = nn.init_model(toy_arch, 0)
        a = full_sgd(x, y, w, toy_arch, 5, 0.1, 2, 9)
        b = full_sgd(x, y, w, toy_arch, 5, 0.1, 2, 9)
        assert np.array_equal(a, b)

    def test_empty_dataset(self, toy_arch):
        w = nn.init_model(toy_arch, 0)
        with pytest.raises(DataError):
            full_sgd(np.zeros((0, 2)), np.zeros((0, 2)), w, toy_arch, 1, 0.1, 2, 0)

    def test_loss_decreases_on_separable_task(self, separable_task):
        from fltop.data import to_targets
        train, _, _ = separable_task
        arch = nn.mlp_arch(20, [16], 2, "cross_entropy")
        y = to_targets(train.labels, arch)
        w0 = nn.init_model(arch, 0)
        l0, _ = forward_loss(w0, arch, train.inputs, y)
        w = full_sgd(train.inputs, y, w0, arch, 100, 0.2, 32, 1)
        l1, _ = forward_loss(w, arch, train.inputs, y)
        assert l1 < l0


class TestTopkSgd:
    @settings(max_examples=300, deadline=None)
    @given(topk_cases())
    def test_matches_dense_reference_bitwise(self, case):
        arch, indices, shard, batch_size, t_gd, eta, data_seed = case
        x, y, w, w0 = topk_inputs(arch, shard, data_seed)
        args = (arch, t_gd, indices, eta, batch_size, data_seed)
        out = nn.topk_sgd(x, y, w, w0, *args)
        assert np.array_equal(out, reference_topk_sgd(x, y, w, w0, *args)[indices])

    def test_layout_follows_index_set_content(self, toy_arch, toy_batch):
        # Same size, same array object, different content: each run must see
        # the set it was given, as fl-basic's per-round sets require.
        x, y = toy_batch
        _, _, w, w0 = topk_inputs(toy_arch, 1, 5)
        a = np.array([0, 4, 7, 9, 16], dtype=np.int64)
        b = np.array([1, 2, 8, 12, 13], dtype=np.int64)
        indices = a.copy()
        for content in (a, b, a):
            indices[:] = content
            args = (toy_arch, 4, indices, 0.3, 2, 11)
            assert np.array_equal(nn.topk_sgd(x, y, w, w0, *args),
                                  reference_topk_sgd(x, y, w, w0, *args)[content])

    @pytest.mark.parametrize("indices", [[3, 1], [2, 2], [0, 5, 5, 6]])
    def test_non_increasing_indices(self, toy_arch, toy_batch, indices):
        x, y = toy_batch
        w0 = nn.init_model(toy_arch, 0)
        with pytest.raises(IndexError):
            nn.topk_sgd(x, y, w0, w0, toy_arch, 1, np.array(indices), 0.1, 2, 0)

    def test_full_set_matches_sgd_bitwise(self, toy_arch, toy_batch):
        x, y = toy_batch
        w = nn.init_model(toy_arch, 0)
        all_idx = np.arange(toy_arch.n_params)
        a = full_sgd(x, y, w, toy_arch, 5, 0.1, 2, 3)
        b = reference_topk_sgd(x, y, w, w, toy_arch, 5, all_idx, 0.1, 2, 3)
        assert np.array_equal(a, b)

    def test_shared_full_set_is_one_read_only_arange(self, toy_arch):
        full = nn.full_indices(toy_arch)
        assert full is nn.full_indices(toy_arch)
        assert np.array_equal(full, np.arange(toy_arch.n_params))
        assert not full.flags.writeable

    @pytest.mark.parametrize("position", [0, 8, 16])
    def test_invalid_set_of_size_n(self, toy_arch, toy_batch, position):
        # Length n but not every coordinate: one index repeated.
        x, y = toy_batch
        w0 = nn.init_model(toy_arch, 0)
        indices = np.arange(toy_arch.n_params)
        indices[position] = indices[position - 1] if position else 1
        with pytest.raises(IndexError):
            nn.topk_sgd(x, y, w0, w0, toy_arch, 1, indices, 0.1, 2, 0)

    def test_empty_set_returns_no_values(self, toy_arch, toy_batch):
        x, y = toy_batch
        w0 = nn.init_model(toy_arch, 0)
        empty = np.array([], dtype=np.int64)
        assert nn.topk_sgd(x, y, w0, w0, toy_arch, 3, empty, 0.1, 2, 0).shape == (0,)
        rows = np.arange(6).reshape(2, 3)
        assert nn.topk_sgd(x, y, w0, w0, toy_arch, 3, empty, 0.1, 2, [0, 1],
                           rows=rows).shape == (2, 0)

    def test_frozen_coordinates_exact(self, toy_arch, toy_batch):
        # Training reads w only at the set and holds the rest at w0 exactly:
        # a w that differs from w0 off the set trains the same values.
        x, y = toy_batch
        w0 = nn.init_model(toy_arch, 0)
        idx = np.array([0, 3, 8], dtype=np.int64)
        w = w0 + 0.5
        w[idx] = w0[idx]
        out = nn.topk_sgd(x, y, w, w0, toy_arch, 5, idx, 0.1, 2, 0)
        assert out.shape == idx.shape
        assert np.array_equal(out, nn.topk_sgd(x, y, w0, w0, toy_arch, 5, idx,
                                               0.1, 2, 0))
        assert not np.array_equal(out, w0[idx])

    # The cached path sums layer 0 in other shapes than the dense one, so
    # it agrees with the dense reference up to rounding: within an absolute
    # and relative 1e-10 (differences seen are below 1e-15).
    @settings(max_examples=100, deadline=None)
    @given(layer0_cases())
    def test_layer0_cache_matches_dense_reference(self, case):
        arch, indices, touched, shard, batch_size, t_gd, eta, data_seed = case
        x, y, w, w0 = topk_inputs(arch, shard, data_seed)
        cols = touched_units(arch, indices)
        # Up to 8 touched units clear the predicate's floor; every unit never.
        got = nn.layer0_columns(arch, indices)
        if touched == "every":
            assert got is None
        elif touched != "half":
            assert np.array_equal(got, cols)
        args = (arch, t_gd, indices, eta, batch_size, data_seed)
        narrow, cache = forced_view(w0, arch, x, indices)
        out = nn.topk_sgd(narrow, y, w, w0, *args, layer0=cache)
        ref = reference_topk_sgd(x, y, w, w0, *args)[..., indices]
        assert out.shape == indices.shape
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("far", [False, True])
    def test_cached_zero_step_returns_w_at_the_set(self, far):
        # The cached path trains w's change from w0 in layer 0 but returns
        # w's values plus each step, so eta = 0 gives back w[indices] bit for
        # bit, one client or a group: near w0, and far from it, where w at
        # the set is drawn apart from w0 and (w - w0) + w0 rounds for about
        # a quarter of the layer-0 weights.
        arch = nn.mlp_arch(784, [100], 10, "cross_entropy")
        rng = np.random.default_rng(5)
        w0 = nn.init_model(arch, 5)
        x = rng.uniform(0, 1, (12, 784))
        y = one_hot(rng.integers(0, 10, 12), 10)
        w_sl, b_sl = layer_slices(arch)[0]
        units = np.array([4, 31, 77])
        indices = np.sort(np.concatenate([
            (w_sl.start + rng.choice(784, 8, replace=False)[:, None] * 100
             + units).ravel(), b_sl.start + units,
            rng.choice(np.arange(b_sl.stop, arch.n_params), 20, replace=False)]))
        assert np.array_equal(nn.layer0_columns(arch, indices), units)
        w = w0.copy()
        step = rng.standard_normal(indices.size)
        w[indices] = step if far else w[indices] + 0.1 * step
        narrow, cache = nn.layer0_view(w0, arch, x, indices)
        args = (arch, 3, indices, 0.0, 4)
        out = nn.topk_sgd(narrow, y, w, w0, *args, 0, layer0=cache)
        assert np.array_equal(out, w[indices])
        rows = np.arange(12).reshape(3, 4)
        stacked = nn.topk_sgd(narrow, y, w, w0, *args, [0, 1, 2], cache, rows)
        assert np.array_equal(stacked, np.tile(w[indices], (3, 1)))

    # A group of G clients' rows trains like G one-client calls, and each of
    # those like a call on its gathered shard and view rows, bit for bit:
    # both losses, relu/sigmoid, 1-3 hidden layers, every kind of set (empty,
    # sparse, whole blocks, full), batches above and below the shard size,
    # and wide archs whose set is trained through the layer-0 view of every
    # training row: on one touched unit, whose products are vector-shaped
    # (numpy may hand them to gemv), a few, up to half or every one.
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(topk_cases().map(lambda case: case + (False,)),
                     layer0_cases().map(lambda case: case[:2] + case[3:] + (True,))),
           st.integers(1, 4))
    def test_stack_matches_single_shard_calls_bitwise(self, case, group):
        arch, indices, shard, batch_size, t_gd, eta, data_seed, cached = case
        x, y, w, w0, rows = group_inputs(arch, group, shard, data_seed)
        seeds = [[data_seed, c] for c in range(group)]
        args = (arch, t_gd, indices, eta, batch_size)
        x, layer0 = forced_view(w0, arch, x, indices) if cached else (x, None)
        stacked = nn.topk_sgd(x, y, w, w0, *args, seeds, layer0, rows)
        assert stacked.shape == (group, len(indices))
        for c in range(group):
            single = nn.topk_sgd(x, y, w, w0, *args, seeds[c], layer0, rows[c])
            assert np.array_equal(stacked[c], single)
            at = rows[c]
            gathered = nn.topk_sgd(
                x[at], y[at], w, w0, *args, seeds[c],
                layer0=layer0[at] if cached else None)
            assert np.array_equal(single, gathered)

    def test_group_of_one_returns_one_row(self, toy_arch):
        x, y, w, w0, rows = group_inputs(toy_arch, 1, 4, 0)
        args = (toy_arch, 3, nn.full_indices(toy_arch), 0.1, 2)
        out = nn.topk_sgd(x, y, w, w0, *args, [[0, 0]], rows=rows)
        assert out.shape == (1, toy_arch.n_params)  # the full set's whole model
        assert np.array_equal(out[0], nn.topk_sgd(x, y, w, w0, *args, [0, 0],
                                                  rows=rows[0]))

    def test_stack_needs_one_seed_per_shard(self, toy_arch):
        x, y, w, w0, rows = group_inputs(toy_arch, 3, 4, 0)
        full = nn.full_indices(toy_arch)
        with pytest.raises(DimensionError):
            nn.topk_sgd(x, y, w, w0, toy_arch, 1, full, 0.1, 2, [[0, 0], [0, 1]],
                        rows=rows)
        # Inputs are the training set's rows, never a stack of shards.
        with pytest.raises(DimensionError):
            nn.topk_sgd(x[rows], y[rows], w, w0, toy_arch, 1, full, 0.1, 2,
                        [[0, 0], [0, 1], [0, 2]])

    def test_empty_group_is_an_internal_error(self, toy_arch):
        # A group of 0 clients is a caller's bug: a DimensionError, never the
        # DataError that the command line reports as a usage error.
        x, y, w, w0, rows = group_inputs(toy_arch, 2, 4, 0)
        with pytest.raises(DimensionError, match="group of 0 clients"):
            nn.topk_sgd(x, y, w, w0, toy_arch, 1, nn.full_indices(toy_arch), 0.1, 2,
                        [], rows=rows[:0])
        assert not issubclass(DimensionError, DataError)

    def test_layer0_cache_for_other_rows_rejected(self):
        arch = nn.mlp_arch(784, [100], 10, "cross_entropy")
        w0 = nn.init_model(arch, 0)
        x, y = np.zeros((4, 784)), np.eye(10)[:4]
        indices = np.array([0, 1])
        narrow, cache = nn.layer0_view(w0, arch, x, indices)
        with pytest.raises(ValueError):
            nn.topk_sgd(narrow[:3], y[:3], w0, w0, arch, 1, indices, 0.1, 2,
                        0, layer0=cache)
        with pytest.raises(ValueError):
            nn.predict(w0, arch, narrow[:3], cache, indices, w0)

    def test_full_width_inputs_refused_under_a_view(self, monkeypatch):
        # Under a view, x is its gathered columns and nothing else; the
        # targets are checked as on the dense path. No pass runs.
        def backward(*args):
            raise AssertionError("backward pass ran on a malformed batch")

        monkeypatch.setattr(nn, "_backward", backward)
        arch = nn.mlp_arch(784, [100], 10, "cross_entropy")
        w0 = nn.init_model(arch, 0)
        x, y = np.zeros((4, 784)), np.eye(10)[:4]
        indices = np.array([0, 1, 101 * 100])  # inputs 0 and 101
        narrow, cache = nn.layer0_view(w0, arch, x, indices)
        assert narrow.shape == (4, 2)
        for bad in (x, narrow[:, :1], narrow[0]):
            with pytest.raises(DimensionError):
                nn.topk_sgd(bad, y, w0, w0, arch, 1, indices, 0.1, 2, 0, layer0=cache)
            with pytest.raises(DimensionError):
                nn.predict(w0, arch, bad, cache, indices, w0)
            with pytest.raises(DimensionError):  # at once, not in its closure
                nn.predictor(w0, arch, bad, cache, indices, w0)
        with pytest.raises(DimensionError):
            nn.topk_sgd(narrow, y[:, :5], w0, w0, arch, 1, indices, 0.1, 2, 0,
                        layer0=cache)

    def test_out_of_range_index(self, toy_arch, toy_batch):
        x, y = toy_batch
        w0 = nn.init_model(toy_arch, 0)
        for indices in ([toy_arch.n_params], [-1]):
            with pytest.raises(IndexError):
                nn.topk_sgd(x, y, w0, w0, toy_arch, 1, np.array(indices), 0.1, 2, 0)


class TestBatches:
    # A call's batch schedule is the reference generator's first `steps`
    # batches: shards of 1-70 rows, batches of 1-80 (larger than the shard
    # too), 1-25 steps (several epochs) and seeds of 1-4 words.
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 70), st.integers(1, 80), st.integers(1, 25),
           st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
    def test_matches_reference_generator(self, n_rows, batch_size, steps, seed):
        stream = batch_stream(n_rows, batch_size, seed)
        expected = np.stack([next(stream) for _ in range(steps)])
        got = nn._batches(n_rows, batch_size, steps, seed)
        assert got.shape == (steps, min(batch_size, n_rows))
        assert np.array_equal(got, expected)


class TestIndexSet:
    # Over every kind of set, wide archs included: `cols` is exactly the
    # touched units (a superset would still train correctly, only slower)
    # and `inputs` exactly the input rows of its layer-0 weights. The set's
    # sub-model, which `_layers(sub, arch, (inputs.size, cols.size))` reads,
    # holds the set's change from w0 in one (inputs + 1, cols) layer-0
    # block, bias row last, then every later layer of w, and `pos` reads
    # the set out of it. Cached scores match the dense pass, and at w = w0
    # equal it bit for bit.
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(topk_cases(), layer0_cases()).map(lambda case: case[:2]))
    def test_positions_read_the_compact_sub_model(self, case):
        arch, indices = case
        got, cols, pos, inputs = nn._index_set(arch, indices.tobytes())
        assert np.array_equal(got, indices)
        assert np.array_equal(cols, touched_units(arch, indices))
        assert np.array_equal(inputs, touched_inputs(arch, indices))
        rng = np.random.default_rng(indices.size)
        w = rng.standard_normal(arch.n_params)
        w0 = w.copy()  # w's base: w0 differs from w only at the set
        w0[indices] = rng.standard_normal(indices.size)
        sub = nn._sub_model(arch, indices.tobytes(), w, w0, w)
        first = arch.layers[0]
        stop = (first.in_width + 1) * first.out_width
        assert sub.size == (inputs.size + 1) * cols.size + arch.n_params - stop
        change = w - w0  # zero off the set
        (mat, bias), *rest = nn._layers(sub, arch, (inputs.size, cols.size))
        block = np.concatenate(nn._layers(change, arch)[0])
        assert np.array_equal(np.concatenate([mat, bias]),
                              block[np.append(inputs, arch.input_width)][:, cols])
        for dense, compact in zip(nn._layers(w, arch)[1:], rest):
            assert all(map(np.array_equal, dense, compact))
        assert np.array_equal(sub[pos], np.where(indices < stop, change[indices],
                                                 w[indices]))
        x = rng.uniform(-1, 1, (5, arch.input_width))
        # `nn`'s view, where it builds one, is the reference view: the same
        # columns, and the same pre-activation up to rounding.
        narrow, cache = reference_layer0_view(w0, arch, x, indices)
        assert np.array_equal(narrow, x[:, inputs])
        view = nn.layer0_view(w0, arch, x, indices)
        assert (view is None) == (nn.layer0_columns(arch, indices) is None)
        if view is not None:
            assert np.array_equal(view[0], narrow)
            np.testing.assert_allclose(view[1], cache, rtol=1e-12, atol=1e-12)
        cached = nn.predict(w, arch, narrow, cache, indices, w0)
        np.testing.assert_allclose(cached, nn.predict(w, arch, x),
                                   rtol=1e-10, atol=1e-12)
        assert np.array_equal(nn.predict(w0, arch, narrow, cache, indices, w0),
                              nn.predict(w0, arch, x))


class TestLayer0Dispatch:
    def test_readme_and_toy_archs_stay_dense(self, toy_arch, binary_arch):
        # The README config's 20 -> 64 model, with sets from a few units to
        # every one; the toy archs with every set.
        readme = nn.mlp_arch(20, [64], 2, "cross_entropy")
        for units in (1, 8, 64):
            assert nn.layer0_columns(readme, np.arange(units)) is None
        for arch in (toy_arch, binary_arch):
            assert nn.layer0_columns(arch, np.array([0], dtype=np.int64)) is None
            assert nn.layer0_columns(arch, nn.full_indices(arch)) is None

    def test_wide_topk_set_takes_the_cache(self):
        arch = nn.mlp_arch(784, [100], 10, "cross_entropy")
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (10, 784))
        y = one_hot(rng.integers(0, 10, 10), 10)
        w0 = nn.init_model(arch, 0)
        iset = compression.select_topk(w0, arch, x, y, 5, 398, 0.1)
        cols = nn.layer0_columns(arch, iset)
        assert cols is not None
        assert np.array_equal(cols, touched_units(arch, iset))
        assert nn.layer0_columns(arch, nn.full_indices(arch)) is None

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cached_scores_match_predict(self, seed):
        arch = nn.mlp_arch(784, [100], 10, "cross_entropy")
        rng = np.random.default_rng(seed)
        w0 = nn.init_model(arch, seed)
        units = rng.choice(100, 3, replace=False)
        w_sl, b_sl = layer_slices(arch)[0]
        indices = np.sort(np.concatenate([
            w_sl.start + rng.choice(784, 60) * 100 + np.repeat(units, 20),
            b_sl.start + units[:1],
            rng.choice(np.arange(b_sl.stop, arch.n_params), 30, replace=False)]))
        indices = np.unique(indices)
        w = w0.copy()
        w[indices] += rng.normal(0, 0.5, indices.size)
        x = rng.uniform(0, 1, (300, 784))
        cols = nn.layer0_columns(arch, indices)
        assert np.array_equal(cols, np.sort(units))
        narrow, cache = nn.layer0_view(w0, arch, x, indices)
        cached = nn.predict(w, arch, narrow, cache, indices, w0)
        dense = nn.predict(w, arch, x)
        np.testing.assert_allclose(cached, dense, rtol=1e-10, atol=1e-12)
        assert np.array_equal(cached.argmax(axis=1), dense.argmax(axis=1))
        # The view is read, never written.
        again = nn.layer0_view(w0, arch, x, indices)
        assert np.array_equal(narrow, again[0]) and np.array_equal(cache, again[1])

    def test_predictor_scores_the_model_it_was_given(self):
        # The closure gives `predict`'s bits for the model of the call that
        # made it, even once that model is changed, and writes nothing.
        arch = nn.mlp_arch(784, [100], 10, "cross_entropy")
        rng = np.random.default_rng(5)
        w0 = nn.init_model(arch, 5)
        indices = np.sort(rng.choice(np.arange(0, 78_400, 100), 40, replace=False))
        w = w0.copy()
        w[indices] += rng.normal(0, 0.5, indices.size)
        narrow, cache = nn.layer0_view(w0, arch, rng.uniform(0, 1, (30, 784)), indices)
        scores = nn.predict(w, arch, narrow, cache, indices, w0)
        views = narrow.copy(), cache.copy()
        forward = nn.predictor(w, arch, narrow, cache, indices, w0)
        w[indices] = w0[indices]
        assert np.array_equal(forward(), scores)
        assert np.array_equal(forward(), scores)
        assert np.array_equal(narrow, views[0]) and np.array_equal(cache, views[1])

    def test_one_cache_serves_any_set(self):
        # The views of two sets that touch different layer-0 units hold the
        # same pre-activation of w0, bit for bit. Each trains and then
        # scores its set, in turn, and neither is written.
        arch = nn.mlp_arch(784, [100], 10, "cross_entropy")
        rng = np.random.default_rng(3)
        w0 = nn.init_model(arch, 3)
        x = rng.uniform(0, 1, (40, 784))
        y = one_hot(rng.integers(0, 10, 40), 10)
        views = []
        w_sl, b_sl = layer_slices(arch)[0]
        for units in (np.array([3, 17, 42]), np.array([5, 60])):
            rows = rng.choice(784, 10, replace=False)
            indices = np.sort(np.concatenate([
                (w_sl.start + rows[:, None] * 100 + units).ravel(),
                b_sl.start + units[:1],
                rng.choice(np.arange(b_sl.stop, arch.n_params), 30, replace=False)]))
            assert np.array_equal(nn.layer0_columns(arch, indices), units)
            narrow, cache = nn.layer0_view(w0, arch, x, indices)
            views.append((narrow, cache, narrow.copy(), cache.copy()))
            w = w0.copy()
            w[indices] += rng.normal(0, 0.5, indices.size)
            args = (arch, 3, indices, 0.3, 8, 0)
            out = nn.topk_sgd(narrow, y, w, w0, *args, layer0=cache)
            trained = reference_topk_sgd(x, y, w, w0, *args)
            np.testing.assert_allclose(out, trained[indices], rtol=1e-10, atol=1e-10)
            trained[indices] = out  # w0 off the set
            np.testing.assert_allclose(
                nn.predict(trained, arch, narrow, cache, indices, w0),
                nn.predict(trained, arch, x), rtol=1e-10, atol=1e-12)
        assert np.array_equal(views[0][1], views[1][1])
        for narrow, cache, narrow_before, cache_before in views:
            assert np.array_equal(narrow, narrow_before)
            assert np.array_equal(cache, cache_before)
