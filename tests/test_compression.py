import numpy as np
import pytest

from fltop import compression, nn
from fltop.compression import IndexSet, compress, expand, select_random, select_topk
from fltop.errors import ConfigError, DimensionError

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

    def test_file_round_trip(self, tmp_path):
        s = IndexSet(np.array([0, 2, 7, 11]), 20)
        path = tmp_path / "indices.txt"
        compression.save_index_set(s, path)
        loaded = compression.load_index_set(path, 20)
        assert np.array_equal(loaded.indices, s.indices)
        assert path.read_text() == "0\n2\n7\n11\n"


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


class TestCompressExpand:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        s = select_random(50, 12, 1)
        c = rng.normal(size=12)
        assert np.array_equal(compress(expand(c, s, np.zeros(50)), s), c)

    def test_expand_restores_only_selected(self):
        rng = np.random.default_rng(1)
        s = select_random(30, 7, 2)
        base = rng.normal(size=30)
        c = rng.normal(size=7)
        out = expand(c, s, base)
        mask = np.zeros(30, dtype=bool)
        mask[s.indices] = True
        assert np.array_equal(out[mask], c)
        assert np.array_equal(out[~mask], base[~mask])

    def test_linearity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = select_random(40, 9, rng.integers(1 << 30))
            u, v = rng.normal(size=40), rng.normal(size=40)
            a, b = rng.normal(), rng.normal()
            lhs = compress(a * u + b * v, s)
            rhs = a * compress(u, s) + b * compress(v, s)
            assert np.allclose(lhs, rhs, rtol=1e-15, atol=1e-15)

    def test_unit_vector(self):
        s = IndexSet(np.array([2, 5]), 8)
        e = np.zeros(8)
        e[5] = 1.0
        assert compress(e, s).tolist() == [0.0, 1.0]

    def test_full_and_empty_sets(self):
        base = np.arange(5, dtype=float)
        full = compression.full_set(5)
        assert np.array_equal(expand(np.ones(5), full, base), np.ones(5))
        empty = IndexSet(np.array([], dtype=np.int64), 5)
        assert np.array_equal(expand(np.array([]), empty, base), base)

    def test_dimension_errors(self):
        s = IndexSet(np.array([0, 1]), 4)
        with pytest.raises(DimensionError):
            compress(np.zeros(5), s)
        with pytest.raises(DimensionError):
            expand(np.zeros(3), s, np.zeros(4))
