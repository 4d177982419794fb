import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from fltop.secure_agg import (FixedPointCodec, aggregate_decode, decode,
                              encode, encrypt, make_masks)
from fltop.errors import (ConfigError, DimensionError, EncodingOverflowError,
                          ProtocolError)


def low_bits_uniformity_pvalue(residues, bits=8):
    """Chi-square p-value for the low `bits` of a residue sample being uniform."""
    vals = (np.asarray(residues, dtype=np.uint64) & np.uint64((1 << bits) - 1))
    counts = np.bincount(vals.astype(np.int64), minlength=1 << bits)
    return chisquare(counts).pvalue


class TestCodec:
    def test_frac_bits_bounds(self):
        with pytest.raises(ConfigError):
            FixedPointCodec(frac_bits=60)
        with pytest.raises(ConfigError):
            FixedPointCodec(frac_bits=0)
        with pytest.raises(ConfigError):
            FixedPointCodec(cohort_size=0)

    @pytest.mark.parametrize("m, clamp", [(1, 2.0 ** 30), (2, 2.0 ** 29),
                                          (3, 2.0 ** 29), (10, 2.0 ** 27),
                                          (100, 2.0 ** 24)])
    def test_clamp_range_leaves_headroom_for_the_cohort(self, m, clamp):
        # m values of 2^32 * clamp each must sum below 2^63.
        codec = FixedPointCodec(frac_bits=32, cohort_size=m)
        assert codec.clamp_range == clamp
        assert m * clamp * 2.0 ** 32 < 2.0 ** 63

    def test_zero_round_trip(self):
        codec = FixedPointCodec()
        res, clamped = encode(np.zeros(4), codec)
        assert np.all(res == 0) and clamped == 0
        assert np.all(decode(res, codec) == 0.0)

    def test_exactly_representable_value(self):
        codec = FixedPointCodec(frac_bits=20)
        res, _ = encode(np.array([1.5]), codec)
        assert res[0] == 1572864
        assert decode(res, codec)[0] == 1.5

    def test_negative_values_round_trip(self):
        codec = FixedPointCodec(frac_bits=32)
        v = np.array([-2.75, 0.5, -1e-9])
        res, _ = encode(v, codec)
        assert np.allclose(decode(res, codec), v, atol=2.0 ** -33)

    def test_clamping_counted(self):
        codec = FixedPointCodec(frac_bits=32)
        v = np.array([0.0, codec.clamp_range * 2, -codec.clamp_range * 3])
        _, clamped = encode(v, codec)
        assert clamped == 2

    def test_infinities_clamp_and_count(self):
        codec = FixedPointCodec(frac_bits=32)
        res, clamped = encode(np.array([np.inf, -np.inf, 1.0]), codec)
        assert clamped == 2
        assert np.array_equal(decode(res, codec),
                              [codec.clamp_range, -codec.clamp_range, 1.0])

    def test_nan_is_refused_not_wrapped(self):
        # Cast to int64, a NaN became -2^63; two of them sum to 0 mod 2^64,
        # so a cohort of 8 clients at 1.0 and 2 NaN clients decoded to 8.0.
        codec = FixedPointCodec(frac_bits=32, cohort_size=10)
        with pytest.raises(EncodingOverflowError, match="^2 NaN entries"):
            encode(np.array([np.nan, 1.0, np.nan]), codec)
        masks = make_masks(10, 1, 0)
        masked = []
        with pytest.raises(EncodingOverflowError, match="^1 NaN entries"):
            for j, value in enumerate([1.0] * 8 + [np.nan] * 2):
                masked.append(encrypt(encode(np.array([value]), codec)[0], masks[j]))
            aggregate_decode(masked, codec, 10)
        assert len(masked) == 8

    def test_sum_error_bound(self):
        # 16 random vectors in [-1, 1] at f=32: summed quantization error per
        # coordinate is at most 16 * 2^-33 (each rounding off by <= 2^-33).
        codec = FixedPointCodec(frac_bits=32)
        rng = np.random.default_rng(0)
        vectors = rng.uniform(-1, 1, (16, 100))
        total = np.zeros(100, dtype=np.uint64)
        for v in vectors:
            res, _ = encode(v, codec)
            total = total + res
        direct = vectors.sum(axis=0)
        assert np.max(np.abs(decode(total, codec) - direct)) <= 16 * 2.0 ** -33


class TestMasks:
    def test_sum_is_zero(self):
        masks = make_masks(5, 64, 0)
        assert np.all(masks.sum(axis=0, dtype=np.uint64) == 0)

    def test_two_clients_negate(self):
        masks = make_masks(2, 16, 3)
        assert np.all(masks[0] + masks[1] == 0)

    def test_deterministic(self):
        assert np.array_equal(make_masks(4, 8, 9), make_masks(4, 8, 9))

    def test_too_few_clients(self):
        with pytest.raises(ConfigError):
            make_masks(1, 8, 0)


class TestEncrypt:
    def test_zero_mask_identity(self):
        enc = np.array([1, 2, 3], dtype=np.uint64)
        assert np.array_equal(encrypt(enc, np.zeros(3, dtype=np.uint64)), enc)

    def test_subtracting_mask_recovers(self):
        rng = np.random.default_rng(1)
        enc = rng.integers(0, 2 ** 64, 32, dtype=np.uint64)
        mask = rng.integers(0, 2 ** 64, 32, dtype=np.uint64)
        assert np.array_equal(encrypt(enc, mask) - mask, enc)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            encrypt(np.zeros(3, dtype=np.uint64), np.zeros(4, dtype=np.uint64))

    def test_masked_output_uniform(self):
        # One-time-pad property: a masked constant plaintext looks uniform.
        codec = FixedPointCodec()
        enc, _ = encode(np.full(100000, 0.123), codec)
        masks = make_masks(2, 100000, 5)
        assert low_bits_uniformity_pvalue(encrypt(enc, masks[0])) > 0.001


class TestAggregateDecode:
    def test_zero_inputs_any_masks(self):
        codec = FixedPointCodec(cohort_size=4)
        masks = make_masks(4, 10, 0)
        masked = [encrypt(encode(np.zeros(10), codec)[0], m) for m in masks]
        assert np.all(aggregate_decode(masked, codec, 4) == 0.0)

    def test_matches_plain_sum(self):
        codec = FixedPointCodec(frac_bits=32, cohort_size=4)
        rng = np.random.default_rng(2)
        vectors = rng.uniform(-1, 1, (4, 50))
        masks = make_masks(4, 50, 1)
        masked = [encrypt(encode(v, codec)[0], m) for v, m in zip(vectors, masks)]
        out = aggregate_decode(masked, codec, 4)
        assert np.max(np.abs(out - vectors.sum(axis=0))) <= 4 * 2.0 ** -33 + 1e-12

    def test_missing_client_rejected(self):
        codec = FixedPointCodec()
        masks = make_masks(3, 5, 0)
        masked = [encrypt(encode(np.zeros(5), codec)[0], m) for m in masks[:2]]
        with pytest.raises(ProtocolError):
            aggregate_decode(masked, codec, 3)

    def test_cohort_larger_than_codec_rejected(self):
        codec = FixedPointCodec(cohort_size=2)
        masks = make_masks(3, 5, 0)
        masked = [encrypt(encode(np.zeros(5), codec)[0], m) for m in masks]
        with pytest.raises(EncodingOverflowError):
            aggregate_decode(masked, codec, 3)

    @settings(max_examples=200, deadline=None)
    @given(frac_bits=st.integers(1, 55), m=st.integers(2, 300),
           data=st.data())
    def test_cohort_at_clamp_range_does_not_wrap(self, frac_bits, m, data):
        # m values at +-clamp_range, all one sign included: the decoded sum
        # is the true sum within m * 2^-f, so the ring never wrapped.
        codec = FixedPointCodec(frac_bits=frac_bits, cohort_size=m)
        signs = data.draw(st.lists(st.sampled_from((-1.0, 1.0)),
                                   min_size=m, max_size=m))
        values = [s * codec.clamp_range for s in signs]
        masks = make_masks(m, 1, data.draw(st.integers(0, 2**32 - 1)))
        masked = []
        for v, mk in zip(values, masks):
            residues, clamps = encode(np.array([v]), codec)
            assert clamps == 0
            masked.append(encrypt(residues, mk))
        total = aggregate_decode(masked, codec, m)[0]
        assert abs(total - math.fsum(values)) <= m * 2.0 ** -frac_bits

    def test_strict_subset_is_uniform(self):
        # Without the last client the masks don't cancel; the partial sum is
        # indistinguishable from uniform.
        codec = FixedPointCodec()
        rng = np.random.default_rng(3)
        vectors = rng.uniform(-1, 1, (3, 100000))
        masks = make_masks(3, 100000, 7)
        partial = sum(encrypt(encode(v, codec)[0], m)
                      for v, m in zip(vectors[:2], masks[:2]))
        assert low_bits_uniformity_pvalue(partial) > 0.001


class TestEndToEndBound:
    @pytest.mark.parametrize("m", [2, 10, 100])
    def test_error_bound(self, m):
        codec = FixedPointCodec(frac_bits=32, cohort_size=m)
        rng = np.random.default_rng(m)
        vectors = rng.uniform(-1, 1, (m, 200))
        masks = make_masks(m, 200, m)
        masked = [encrypt(encode(v, codec)[0], mk) for v, mk in zip(vectors, masks)]
        out = aggregate_decode(masked, codec, m)
        assert np.max(np.abs(out - vectors.sum(axis=0))) <= m * 2.0 ** -33 + 1e-9
