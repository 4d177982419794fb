import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fltop import nn
from fltop.errors import ConfigError, DataError, DimensionError

from oracles import finite_difference_gradient, reference_topk_sgd


def one_hot(labels, k):
    out = np.zeros((len(labels), k))
    out[np.arange(len(labels)), labels] = 1.0
    return out


class TestArchSpec:
    def test_param_counts(self):
        arch = nn.mlp_arch(784, [128], 10, "cross_entropy")
        assert arch.n_params == 784 * 128 + 128 + 128 * 10 + 10 == 101770
        medical = nn.mlp_arch(7280, [200, 200], 1, "binary_cross_entropy")
        assert medical.n_params == 1496601

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
        for layer, (w_sl, b_sl) in zip(toy_arch.layers, toy_arch.slices()):
            assert np.all(w[b_sl] == 0.0)
            limit = math.sqrt(6.0 / (layer.in_width + layer.out_width))
            assert np.all(np.abs(w[w_sl]) <= limit)


class TestForward:
    def test_zero_weight_binary_loss_is_ln2(self, binary_arch):
        w = np.zeros(binary_arch.n_params)
        x = np.random.default_rng(0).uniform(0, 1, (8, 4))
        y = np.array([0, 1] * 4, dtype=float).reshape(-1, 1)
        loss, preds = nn.forward_loss(w, binary_arch, x, y)
        assert loss == pytest.approx(math.log(2), abs=1e-12)
        assert np.all(preds == 0.5)

    def test_softmax_rows_sum_to_one(self, toy_arch, toy_batch):
        x, y = toy_batch
        w = nn.init_model(toy_arch, 1)
        _, preds = nn.forward_loss(w, toy_arch, x, y)
        assert np.allclose(preds.sum(axis=1), 1.0, atol=1e-9)
        assert np.array_equal(nn.predict(w, toy_arch, x), preds)

    def test_matches_independent_reimplementation(self, toy_arch, toy_batch):
        # Per-sample, loop-based forward pass written independently of the
        # vectorized one.
        x, y = toy_batch
        w = nn.init_model(toy_arch, 5)
        (w1s, b1s), (w2s, b2s) = toy_arch.slices()
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
        loss, _ = nn.forward_loss(w, toy_arch, x, y)
        assert loss == pytest.approx(expected, abs=1e-10)

    def test_shape_mismatch(self, toy_arch):
        w = nn.init_model(toy_arch, 0)
        with pytest.raises(DimensionError):
            nn.forward_loss(w, toy_arch, np.zeros((3, 5)), np.zeros((3, 2)))
        with pytest.raises(DimensionError):
            nn.forward_loss(w, toy_arch, np.zeros((3, 2)), np.zeros((3, 5)))
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
        (w1s, b1s), (w2s, b2s) = arch.slices()
        w[w2s] = 0.0
        w[b2s] = 0.0
        x = np.array([[0.2, 0.8], [0.7, 0.1]])
        y = np.array([[0.5], [0.5]])  # matches sigmoid(0) exactly
        g = nn.gradient(w, arch, x, y)
        assert np.allclose(g, 0.0, atol=1e-15)


class TestSgd:
    def test_tgd_zero_rejected_and_eta_zero_identity(self, toy_arch, toy_batch):
        x, y = toy_batch
        w = nn.init_model(toy_arch, 0)
        with pytest.raises(ConfigError):
            nn.sgd(x, y, w, toy_arch, 0, 0.1, 4, 0)
        out = nn.sgd(x, y, w, toy_arch, 1, 0.0, 4, 0)
        assert np.array_equal(out, w)

    def test_single_step_matches_hand_unrolled(self, toy_arch, toy_batch):
        x, y = toy_batch
        w = nn.init_model(toy_arch, 0)
        out = nn.sgd(x, y, w, toy_arch, 1, 0.1, len(x), 0)
        # batch_size = full set, so the step uses all samples in some order
        idx = next(nn._batch_stream(len(x), len(x), 0))
        expected = w + (-0.1) * nn.gradient(w, toy_arch, x[idx], y[idx])
        assert np.array_equal(out, expected)

    def test_deterministic(self, toy_arch, toy_batch):
        x, y = toy_batch
        w = nn.init_model(toy_arch, 0)
        a = nn.sgd(x, y, w, toy_arch, 5, 0.1, 2, 9)
        b = nn.sgd(x, y, w, toy_arch, 5, 0.1, 2, 9)
        assert np.array_equal(a, b)

    def test_empty_dataset(self, toy_arch):
        w = nn.init_model(toy_arch, 0)
        with pytest.raises(DataError):
            nn.sgd(np.zeros((0, 2)), np.zeros((0, 2)), w, toy_arch, 1, 0.1, 2, 0)

    def test_loss_decreases_on_separable_task(self, separable_task):
        from fltop.data import to_targets
        train, _, _ = separable_task
        arch = nn.mlp_arch(20, [16], 2, "cross_entropy")
        y = to_targets(train.labels, arch)
        w0 = nn.init_model(arch, 0)
        l0, _ = nn.forward_loss(w0, arch, train.inputs, y)
        w = nn.sgd(train.inputs, y, w0, arch, 100, 0.2, 32, 1)
        l1, _ = nn.forward_loss(w, arch, train.inputs, y)
        assert l1 < l0


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
    slices = arch.slices()
    set_kind = draw(st.sampled_from(("empty", "bias", "one_layer", "random", "full")))
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
    else:
        chosen = range(n)
    indices = np.array(sorted(chosen), dtype=np.int64)
    shard = draw(st.integers(1, 8))
    batch_size = draw(st.integers(1, 10))
    t_gd = draw(st.integers(1, 4))
    eta = draw(st.sampled_from((0.05, 0.3, 1.0)))
    data_seed = draw(st.integers(0, 2**32 - 1))
    return arch, indices, shard, batch_size, t_gd, eta, data_seed


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


class TestTopkSgd:
    @settings(max_examples=300, deadline=None)
    @given(topk_cases())
    def test_matches_dense_reference_bitwise(self, case):
        arch, indices, shard, batch_size, t_gd, eta, data_seed = case
        x, y, w, w0 = topk_inputs(arch, shard, data_seed)
        args = (arch, t_gd, indices, eta, batch_size, data_seed)
        out = nn.topk_sgd(x, y, w, w0, *args)
        assert np.array_equal(out, reference_topk_sgd(x, y, w, w0, *args))

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
                                  reference_topk_sgd(x, y, w, w0, *args))

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
        a = nn.sgd(x, y, w, toy_arch, 5, 0.1, 2, 3)
        b = nn.topk_sgd(x, y, w, w, toy_arch, 5, all_idx, 0.1, 2, 3)
        assert np.array_equal(a, b)

    def test_empty_set_returns_w0(self, toy_arch, toy_batch):
        x, y = toy_batch
        w0 = nn.init_model(toy_arch, 0)
        out = nn.topk_sgd(x, y, w0, w0, toy_arch, 3, np.array([], dtype=np.int64),
                          0.1, 2, 0)
        assert np.array_equal(out, w0)

    def test_frozen_coordinates_exact(self, toy_arch, toy_batch):
        x, y = toy_batch
        w0 = nn.init_model(toy_arch, 0)
        idx = np.array([0, 3, 8], dtype=np.int64)
        out = nn.topk_sgd(x, y, w0, w0, toy_arch, 5, idx, 0.1, 2, 0)
        frozen = np.setdiff1d(np.arange(toy_arch.n_params), idx)
        assert np.max(np.abs(out[frozen] - w0[frozen])) == 0.0
        assert not np.array_equal(out[idx], w0[idx])

    def test_out_of_range_index(self, toy_arch, toy_batch):
        x, y = toy_batch
        w0 = nn.init_model(toy_arch, 0)
        with pytest.raises(IndexError):
            nn.topk_sgd(x, y, w0, w0, toy_arch, 1,
                        np.array([toy_arch.n_params]), 0.1, 2, 0)
