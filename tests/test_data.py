import numpy as np
import pytest

from fltop import data
from fltop.errors import ConfigError, DataError, FormatError

from oracles import forward_loss, sgd


class TestIdx:
    def _write_pair(self, tmp_path, images, labels):
        ip, lp = tmp_path / "imgs", tmp_path / "lbls"
        data.write_idx(images, labels, ip, lp)
        return ip, lp

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (12, 4, 4), dtype=np.uint8)
        labels = rng.integers(0, 10, 12, dtype=np.uint8)
        ip, lp = self._write_pair(tmp_path, images, labels)
        d = data.load_idx(ip, lp)
        assert d.inputs.shape == (12, 16)
        assert np.array_equal((d.inputs * 255.0).round().astype(np.uint8),
                              images.reshape(12, 16))
        assert np.array_equal(d.labels, labels)

    def test_pixel_rescale_endpoints(self, tmp_path):
        images = np.array([[[0, 255]]], dtype=np.uint8)
        ip, lp = self._write_pair(tmp_path, images, np.array([1], dtype=np.uint8))
        d = data.load_idx(ip, lp)
        assert d.inputs[0, 0] == 0.0
        assert d.inputs[0, 1] == 1.0

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(b"\x00\x00\x0b\x01" + b"\x00" * 8)
        with pytest.raises(FormatError, match="magic"):
            data.load_idx(p, p)

    def test_empty_image_file(self, tmp_path):
        ip, lp = self._write_pair(tmp_path, np.zeros((0, 4, 4)), np.zeros(0))
        with pytest.raises(FormatError) as error:
            data.load_idx(ip, lp)
        assert str(ip) in str(error.value)

    def test_truncated_file(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (4, 3, 3), dtype=np.uint8)
        labels = np.zeros(4, dtype=np.uint8)
        ip, lp = self._write_pair(tmp_path, images, labels)
        raw = ip.read_bytes()
        ip.write_bytes(raw[:-5])
        with pytest.raises(FormatError, match="byte"):
            data.load_idx(ip, lp)


class TestSynthetic:
    def test_positive_rate(self):
        d = data.synth_imbalanced(100000, 10, 0.0316, seed=0)
        assert abs(int(d.labels.sum()) - 3160) <= 60

    def test_deterministic(self):
        a = data.synth_imbalanced(500, 8, 0.3, seed=5)
        b = data.synth_imbalanced(500, 8, 0.3, seed=5)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_features_in_unit_range(self):
        d = data.synth_imbalanced(1000, 6, 0.2, seed=1, separation=5.0)
        assert d.inputs.min() >= 0.0 and d.inputs.max() <= 1.0

    def test_zero_separation_unlearnable(self):
        from fltop import nn
        from fltop.data import to_targets
        from fltop.federation import auroc
        d = data.synth_imbalanced(20000, 10, 0.5, seed=2, separation=0.0)
        train, test = data.train_test_split(d, 0.5, 3)
        arch = nn.mlp_arch(10, [8], 1, "binary_cross_entropy")
        w = sgd(train.inputs, to_targets(train.labels, arch),
                nn.init_model(arch, 0), arch, 100, 0.3, 64, 4)
        _, scores = forward_loss(w, arch, test.inputs,
                                 to_targets(test.labels, arch))
        assert auroc(scores, test.labels) == pytest.approx(0.5, abs=0.02)

    def test_invalid_rate(self):
        with pytest.raises(ConfigError):
            data.synth_imbalanced(10, 2, 0.0, seed=0)


class TestPartition:
    def test_equal_shards(self):
        d = data.synth_imbalanced(60000, 4, 0.5, seed=0)
        part = data.partition(d, 6000, seed=1)
        assert part.shape == (6000, 10) and part.dtype == np.int64

    def test_disjoint_and_bounded(self):
        d = data.synth_imbalanced(1000, 4, 0.5, seed=0)
        part = data.partition(d, 7, seed=2)
        allidx = part.ravel()
        assert len(np.unique(allidx)) == len(allidx)
        assert allidx.max() < 1000

    def test_too_many_clients(self):
        d = data.synth_imbalanced(10, 4, 0.5, seed=0)
        with pytest.raises(ConfigError):
            data.partition(d, 11)


class TestDownsample:
    def test_majority_reduced_to_minority(self):
        labels = np.array([0] * 97 + [1] * 3)
        d = data.Dataset(np.zeros((100, 2)), labels)
        out = data.downsample(d, 0)
        assert len(out) == 6
        assert int(out.labels.sum()) == 3

    def test_already_balanced_unchanged_size(self):
        d = data.Dataset(np.zeros((10, 2)), np.array([0, 1] * 5))
        assert len(data.downsample(d, 0)) == 10

    def test_minority_fully_retained(self):
        rng = np.random.default_rng(0)
        inputs = rng.normal(size=(50, 3))
        labels = np.array([0] * 45 + [1] * 5)
        d = data.Dataset(inputs, labels)
        out = data.downsample(d, 1)
        pos_rows = inputs[45:]
        for row in pos_rows:
            assert np.any(np.all(out.inputs == row, axis=1))

    def test_single_class_rejected(self):
        d = data.Dataset(np.zeros((5, 2)), np.zeros(5, dtype=np.int64))
        with pytest.raises(DataError):
            data.downsample(d, 0)


class TestPublicBatch:
    def test_deterministic(self):
        d = data.synth_imbalanced(100, 4, 0.5, seed=0)
        x1, y1 = data.public_batch(d, 10, 5)
        x2, y2 = data.public_batch(d, 10, 5)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_whole_dataset(self):
        d = data.synth_imbalanced(20, 4, 0.5, seed=0)
        x, y = data.public_batch(d, 20, 1)
        assert len(x) == 20

    def test_size_too_large(self):
        d = data.synth_imbalanced(5, 4, 0.5, seed=0)
        with pytest.raises(ConfigError):
            data.public_batch(d, 6, 0)
