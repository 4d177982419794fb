import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fltop import nn
from fltop.compression import _largest, select_random, select_topk
from fltop.data import to_targets

from oracles import finite_difference_gradient


@st.composite
def selection_cases(draw):
    """A small MLP, a public batch for it and a K in [1, n], K = n among
    them. All-zero inputs give every layer-0 weight a zero gradient, so
    Top-K must break ties among them."""
    in_width = draw(st.integers(1, 4))
    binary = draw(st.booleans())
    arch = nn.mlp_arch(in_width, [draw(st.integers(1, 4))],
                       1 if binary else draw(st.integers(2, 3)),
                       "binary_cross_entropy" if binary else "cross_entropy")
    n = arch.n_params
    k = draw(st.one_of(st.just(n), st.integers(1, n)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    rows = draw(st.integers(1, 6))
    x = rng.uniform(0, 1, (rows, in_width)) if draw(st.booleans()) \
        else np.zeros((rows, in_width))
    y = to_targets(rng.integers(0, 2 if binary else arch.output_width, rows), arch)
    return arch, k, x, y, seed


def assert_index_set(s, arch, k):
    """`s` is a strictly increasing int64 array of k positions in [0, n)
    that `nn` accepts as an index set."""
    assert isinstance(s, np.ndarray) and s.dtype == np.int64 and s.shape == (k,)
    assert s[0] >= 0 and s[-1] < arch.n_params and np.all(np.diff(s) > 0)
    assert np.array_equal(nn._index_set(arch, s.tobytes())[0], s)


@settings(max_examples=150, deadline=None)
@given(selection_cases())
def test_selectors_return_valid_index_sets(case):
    arch, k, x, y, seed = case
    w0 = nn.init_model(arch, seed)
    assert_index_set(select_topk(w0, arch, x, y, 2, k, 0.1), arch, k)
    assert_index_set(select_random(arch.n_params, k, seed), arch, k)


class TestSelectTopk:
    def test_k_equals_n_returns_all(self, toy_arch, toy_batch):
        x, y = toy_batch
        w0 = nn.init_model(toy_arch, 0)
        s = select_topk(w0, toy_arch, x, y, 3, toy_arch.n_params, 0.1)
        assert np.array_equal(s, np.arange(toy_arch.n_params))

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
        assert s.tolist() == [0]

    def test_k_out_of_range(self, toy_arch, toy_batch):
        # K and t_init come from a validated config: out of range, they are
        # a caller's bug, never the usage error that a ConfigError reports.
        x, y = toy_batch
        w0 = nn.init_model(toy_arch, 0)
        n = toy_arch.n_params
        for call in (lambda: select_topk(w0, toy_arch, x, y, 3, n + 1, 0.1),
                     lambda: select_topk(w0, toy_arch, x, y, 3, 0, 0.1),
                     lambda: select_topk(w0, toy_arch, x, y, 0, 1, 0.1),
                     lambda: select_random(n, n + 1, 0),
                     lambda: select_random(n, 0, 0)):
            with pytest.raises(ValueError) as error:
                call()
            assert type(error.value) is ValueError

    def test_tie_break_lowest_index(self):
        # Of equal accumulated magnitudes, the lowest indices are kept.
        acc = np.array([1.0, 2.0, 2.0, 0.5, 2.0])
        assert _largest(acc, 2).tolist() == [1, 2]
        assert _largest(acc, 4).tolist() == [0, 1, 2, 4]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, np.inf, np.nan]) |
                    st.floats(0, 10), min_size=1, max_size=40))
    def test_partition_matches_stable_argsort(self, values):
        # For every k, the first k of a stable argsort of -acc: ties to the
        # lowest index, NaN (sorted last) below every number.
        acc = np.array(values)
        for k in range(1, len(acc) + 1):
            expected = np.sort(np.argsort(-acc, kind="stable")[:k])
            got = _largest(acc, k)
            assert got.dtype == np.int64 and np.array_equal(got, expected), k


class TestSelectRandom:
    def test_k_equals_n(self):
        s = select_random(10, 10, 0)
        assert np.array_equal(s, np.arange(10))

    def test_deterministic(self):
        assert np.array_equal(select_random(100, 10, 5), select_random(100, 10, 5))

    def test_uniform_frequency(self):
        counts = np.zeros(100)
        for i in range(10000):
            counts[select_random(100, 10, i)] += 1
        freq = counts / 10000
        assert np.all(np.abs(freq - 0.10) <= 0.01)

