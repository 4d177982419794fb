import inspect

import numpy as np
import pytest

from fltop import data, nn


@pytest.fixture
def toy_arch():
    # 2 -> 3 -> 2 softmax classifier, 17 parameters
    return nn.mlp_arch(2, [3], 2, "cross_entropy")


@pytest.fixture
def binary_arch():
    return nn.mlp_arch(4, [3], 1, "binary_cross_entropy")


@pytest.fixture
def toy_batch():
    rng = np.random.default_rng(42)
    x = rng.uniform(0, 1, (6, 2))
    labels = rng.integers(0, 2, 6)
    y = np.zeros((6, 2))
    y[np.arange(6), labels] = 1.0
    return x, y


@pytest.fixture
def separable_task():
    """Well-separated synthetic binary task plus a matching public batch."""
    full = data.synth_imbalanced(3000, 20, 0.5, seed=1, separation=4.0)
    train, test = data.train_test_split(full, 0.2, 2)
    pub_src = data.synth_imbalanced(200, 20, 0.5, seed=99, separation=4.0)
    public = data.public_batch(pub_src, 16, 5)
    return train, test, public


@pytest.fixture
def topk_sgd_calls(monkeypatch):
    """The rank of `rows` in every `nn.topk_sgd` call the test makes: 2 for
    a stacked group of clients, 1 for one client, 0 for every row."""
    calls = []
    topk_sgd = nn.topk_sgd
    signature = inspect.signature(topk_sgd)

    def spy(*args, **kwargs):
        calls.append(np.ndim(signature.bind(*args, **kwargs).arguments.get("rows")))
        return topk_sgd(*args, **kwargs)

    monkeypatch.setattr(nn, "topk_sgd", spy)
    return calls
