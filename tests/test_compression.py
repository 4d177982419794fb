import numpy as np
import pytest

from fltop import nn
from fltop.compression import IndexSet, select_random, select_topk
from fltop.errors import ConfigError

from oracles import finite_difference_gradient


class TestIndexSet:
    def test_validation(self):
        with pytest.raises(ConfigError):
            IndexSet(np.array([0, 0, 1]), 5)
        with pytest.raises(ConfigError):
            IndexSet(np.array([3, 1]), 5)
        with pytest.raises(ConfigError):
            IndexSet(np.array([5]), 5)
        with pytest.raises(ConfigError):
            IndexSet(np.arange(6), 5)

    def test_ratio(self):
        s = IndexSet(np.array([1, 4]), 8)
        assert s.k == 2
        assert s.ratio == 0.25


class TestSelectTopk:
    def test_k_equals_n_returns_all(self, toy_arch, toy_batch):
        x, y = toy_batch
        w0 = nn.init_model(toy_arch, 0)
        s = select_topk(w0, toy_arch, x, y, 3, toy_arch.n_params, 0.1)
        assert np.array_equal(s.indices, np.arange(toy_arch.n_params))

    def test_analytically_dominant_coordinate_selected(self):
        # Binary model on 2 features; only feature 0 is ever nonzero and its
        # magnitude (2.0) exceeds the bias path, so the accumulated |gradient|
        # is provably largest on the first weight. Verified against brute
        # force with the finite-difference oracle.
        arch = nn.mlp_arch(2, [1], 1, "binary_cross_entropy",
                           hidden_activation="identity")
        w0 = nn.init_model(arch, 4)
        x = np.array([[2.0, 0.0]])
        y = np.array([[1.0]])
        t_init, eta = 5, 0.1
        # brute-force accumulation using the independent oracle
        w = w0.copy()
        acc = np.zeros(arch.n_params)
        for _ in range(t_init):
            fd = finite_difference_gradient(w, arch, x, y)
            acc += np.abs(fd)
            w = w - eta * nn.gradient(w, arch, x, y)
        assert np.argmax(acc) == 0
        s = select_topk(w0, arch, x, y, t_init, 1, eta)
        assert s.indices.tolist() == [0]

    def test_k_out_of_range(self, toy_arch, toy_batch):
        x, y = toy_batch
        w0 = nn.init_model(toy_arch, 0)
        with pytest.raises(ConfigError):
            select_topk(w0, toy_arch, x, y, 3, toy_arch.n_params + 1, 0.1)

    def test_tie_break_lowest_index(self):
        # argsort stability: equal accumulated magnitudes keep index order
        acc = np.array([1.0, 2.0, 2.0, 0.5])
        order = np.argsort(-acc, kind="stable")[:2]
        assert sorted(order.tolist()) == [1, 2]


class TestSelectRandom:
    def test_k_equals_n(self):
        s = select_random(10, 10, 0)
        assert np.array_equal(s.indices, np.arange(10))

    def test_deterministic(self):
        assert np.array_equal(select_random(100, 10, 5).indices,
                              select_random(100, 10, 5).indices)

    def test_uniform_frequency(self):
        counts = np.zeros(100)
        for i in range(10000):
            counts[select_random(100, 10, i).indices] += 1
        freq = counts / 10000
        assert np.all(np.abs(freq - 0.10) <= 0.01)

