import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from oracles import make_masks, reference_encode
from fltop.secure_agg import FixedPointCodec, SecureSum, decode, encode
from fltop.errors import (ConfigError, DimensionError, EncodingOverflowError,
                          ProtocolError)


def secure_sum(m, dim, seed, frac_bits=32):
    """A sum over a cohort of m, with a codec sized for it."""
    return SecureSum(FixedPointCodec(frac_bits, cohort_size=m), m, dim, seed)


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
        res, _ = encode(v.copy(), codec)
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
        with pytest.raises(EncodingOverflowError, match="^2 NaN entries"):
            encode(np.array([[np.nan, 1.0], [np.inf, np.nan]]), codec)
        total = SecureSum(codec, 10, 1, 0)
        with pytest.raises(EncodingOverflowError, match="^1 NaN entries"):
            for value in [1.0] * 8 + [np.nan] * 2:
                total.add(encode(np.array([value]), codec)[0], total.masks(1))
        assert total.count == 8

    def test_sum_error_bound(self):
        # 16 random vectors in [-1, 1] at f=32: summed quantization error per
        # coordinate is at most 16 * 2^-33 (each rounding off by <= 2^-33).
        codec = FixedPointCodec(frac_bits=32)
        rng = np.random.default_rng(0)
        vectors = rng.uniform(-1, 1, (16, 100))
        total = np.zeros(100, dtype=np.uint64)
        for v in vectors:
            res, _ = encode(v.copy(), codec)
            total = total + res
        direct = vectors.sum(axis=0)
        assert np.max(np.abs(decode(total, codec) - direct)) <= 16 * 2.0 ** -33

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.lists(
        st.floats(allow_nan=False) | st.sampled_from((2.0 ** 27, -2.0 ** 27, 0.5)),
        min_size=3, max_size=3), min_size=1, max_size=4),
        frac_bits=st.sampled_from((1, 32, 55)))
    def test_stack_encodes_as_each_row_alone(self, rows, frac_bits):
        # One call encodes the whole stack in place: the residues are the
        # input's buffer, and each row's, and the clamp count, are the
        # reference's.
        codec = FixedPointCodec(frac_bits=frac_bits, cohort_size=10)
        stack = np.array(rows)
        expected = [reference_encode(row, codec) for row in stack]
        residues, clamped = encode(stack, codec)
        assert np.shares_memory(residues, stack) and residues.dtype == np.uint64
        assert clamped == sum(c for _, c in expected)
        for row, (want, _) in zip(residues, expected):
            assert np.array_equal(row, want)


class TestMasks:
    def test_sum_is_zero(self):
        masks = secure_sum(5, 64, 0).masks(5)
        assert np.all(masks.sum(axis=0, dtype=np.uint64) == 0)

    def test_two_clients_negate(self):
        masks = secure_sum(2, 16, 3).masks(2)
        assert np.all(masks[0] + masks[1] == 0)

    def test_deterministic(self):
        assert np.array_equal(secure_sum(4, 8, 9).masks(4), secure_sum(4, 8, 9).masks(4))

    def test_too_few_clients(self):
        # The cohort size comes from a validated config: a caller's bug.
        for m in (1, 0):
            with pytest.raises(ValueError) as error:
                SecureSum(FixedPointCodec(), m, 8, 0)
            assert type(error.value) is ValueError

    @pytest.mark.parametrize("groups", [[6], [1] * 6, [2, 4], [3, 1, 2], [5, 1]])
    def test_dealt_in_groups_as_one_matrix(self, groups):
        # Whatever groups the cohort arrives in, the masks are the words of
        # one (m, dim) draw with the last row minus the sum of the others.
        total = secure_sum(6, 7, [3, 1])
        masks = np.concatenate([total.masks(g) for g in groups])
        assert np.array_equal(masks, make_masks(6, 7, [3, 1]))

    def test_no_mask_past_the_cohort(self):
        total = secure_sum(3, 4, 0)
        total.masks(2)
        with pytest.raises(ProtocolError):
            total.masks(2)


class TestEncrypt:
    """The one-time pad: `SecureSum.add` adds each row's mask in the ring."""

    def test_zero_mask_identity(self):
        enc = np.array([1, 2, 3], dtype=np.uint64)
        total, masked = secure_sum(2, 3, 0), enc.copy()
        total.add(masked, np.zeros((1, 3), dtype=np.uint64))
        assert np.array_equal(masked, enc) and np.array_equal(total._total, enc)

    def test_subtracting_mask_recovers(self):
        rng = np.random.default_rng(1)
        enc = rng.integers(0, 2 ** 64, 32, dtype=np.uint64)
        mask = rng.integers(0, 2 ** 64, (1, 32), dtype=np.uint64)
        masked = enc.copy()
        secure_sum(2, 32, 0).add(masked, mask)
        assert np.array_equal(masked - mask[0], enc)

    def test_masks_in_place(self):
        enc = np.array([[1, 2], [3, 4]], dtype=np.uint64)
        secure_sum(2, 2, 0).add(enc, np.ones((2, 2), dtype=np.uint64))
        assert np.array_equal(enc, [[2, 3], [4, 5]])

    def test_length_mismatch(self):
        # A (1, dim) mask would broadcast over every row of a stack, and the
        # masks would no longer cancel.
        total = secure_sum(2, 3, 0)
        with pytest.raises(DimensionError):
            total.add(np.zeros(3, dtype=np.uint64), np.zeros((1, 4), dtype=np.uint64))
        with pytest.raises(DimensionError):
            total.add(np.zeros((2, 3), dtype=np.uint64), total.masks(1))
        assert total.count == 0

    def test_masked_output_uniform(self):
        # One-time-pad property: a masked constant plaintext looks uniform.
        codec = FixedPointCodec()
        enc, _ = encode(np.full(100000, 0.123), codec)
        total = secure_sum(2, 100000, 5)
        total.add(enc, total.masks(1))
        assert low_bits_uniformity_pvalue(enc) > 0.001


class TestAggregateDecode:
    def test_zero_inputs_any_masks(self):
        total = secure_sum(4, 10, 0)
        for _ in range(4):
            total.add(encode(np.zeros(10), total.codec)[0], total.masks(1))
        assert np.all(total.decode() == 0.0)

    def test_matches_plain_sum(self):
        total = secure_sum(4, 50, 1)
        rng = np.random.default_rng(2)
        vectors = rng.uniform(-1, 1, (4, 50))
        expected = vectors.sum(axis=0)
        total.add(encode(vectors, total.codec)[0], total.masks(4))
        assert np.max(np.abs(total.decode() - expected)) <= 4 * 2.0 ** -33 + 1e-12

    @pytest.mark.parametrize("groups", [[1, 1, 1, 1, 1], [5], [2, 3], [4, 1]])
    def test_groups_sum_as_single_clients(self, groups):
        # The masked rows clients ship, and the decoded sum, do not depend
        # on how the cohort is grouped.
        vectors = np.random.default_rng(4).uniform(-1, 1, (5, 30))
        total = secure_sum(5, 30, [3, 2])
        masked = []
        for lo, hi in zip(np.cumsum([0] + groups), np.cumsum(groups)):
            residues, _ = encode(vectors[lo:hi].copy(), total.codec)
            total.add(residues, total.masks(len(residues)))
            masked.extend(residues)
        codec = total.codec
        oracle = make_masks(5, 30, [3, 2])
        expected = [reference_encode(v, codec)[0] + mk for v, mk in zip(vectors, oracle)]
        assert np.array_equal(masked, expected)
        assert np.array_equal(total.decode(), decode(np.sum(expected, axis=0,
                                                            dtype=np.uint64), codec))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 6).flatmap(lambda m: st.lists(
        st.lists(st.integers(2 ** 64 - 2 ** 20, 2 ** 64 - 1) | st.integers(0, 2 ** 20),
                 min_size=3, max_size=3), min_size=m, max_size=m)))
    def test_stacked_add_equals_per_row_adds(self, rows):
        # Values near 2^64 wrap in every sum; a stacked add, one reduction
        # for the group, must give the per-row adds' total mod 2^64, and,
        # the masks cancelling, the inputs' sum mod 2^64.
        stack = np.array(rows, dtype=np.uint64)
        stacked, per_row = secure_sum(len(rows), 3, 8), secure_sum(len(rows), 3, 8)
        stacked.add(stack.copy(), stacked.masks(len(stack)))
        for row in stack:
            per_row.add(row.copy(), per_row.masks(1))
        assert np.array_equal(stacked._total, per_row._total)
        assert np.array_equal(stacked._dealt, per_row._dealt)
        assert stacked._total.tolist() == [sum(col) % 2 ** 64 for col in zip(*rows)]

    @pytest.mark.parametrize("groups", [[4], [1] * 4, [3, 1]])
    def test_masks_dealt_ahead_give_the_same_sum(self, groups):
        # A dealer that runs ahead deals every mask first; `add` then takes
        # them in order. Whatever the groups, the sum is the one reached by
        # dealing each group's masks just before its add, the inputs masked
        # by the rows of `make_masks`, and a client still missing is refused.
        rows = np.random.default_rng(1).integers(0, 2 ** 64, (4, 5), dtype=np.uint64)
        ahead, inline = secure_sum(4, 5, [2, 7]), secure_sum(4, 5, [2, 7])
        masks = [ahead.masks(g) for g in groups]
        start = 0
        for g, dealt in zip(groups, masks):
            ahead.add(rows[start:start + g].copy(), dealt)
            inline.add(rows[start:start + g].copy(), inline.masks(g))
            start += g
        assert ahead.count == inline.count == 4
        oracle = (rows + make_masks(4, 5, [2, 7])).sum(axis=0, dtype=np.uint64)
        assert np.array_equal(ahead._total, oracle)
        assert np.array_equal(inline._total, oracle)
        assert np.array_equal(ahead.decode(), decode(oracle, ahead.codec))
        partial = secure_sum(4, 5, [2, 7])
        dealt = partial.masks(4)
        partial.add(rows[:3].copy(), dealt[:3])
        with pytest.raises(ProtocolError):
            partial.decode()

    def test_missing_client_rejected(self):
        total = secure_sum(3, 5, 0)
        for _ in range(2):
            total.add(encode(np.zeros(5), total.codec)[0], total.masks(1))
        with pytest.raises(ProtocolError):
            total.decode()

    def test_client_past_the_cohort_rejected(self):
        total = secure_sum(2, 5, 0)
        total.add(np.zeros((2, 5), dtype=np.uint64), total.masks(2))
        with pytest.raises(ProtocolError):
            total.add(np.zeros(5, dtype=np.uint64), np.zeros((1, 5), dtype=np.uint64))

    def test_width_mismatch_rejected(self):
        total = secure_sum(2, 5, 0)
        with pytest.raises(DimensionError):
            total.add(np.zeros(4, dtype=np.uint64), total.masks(1))

    def test_cohort_larger_than_codec_rejected(self):
        codec = FixedPointCodec(cohort_size=2)
        total = SecureSum(codec, 3, 5, 0)
        total.add(encode(np.zeros((3, 5)), codec)[0], total.masks(3))
        with pytest.raises(EncodingOverflowError):
            total.decode()

    @settings(max_examples=200, deadline=None)
    @given(frac_bits=st.integers(1, 55), m=st.integers(2, 300),
           data=st.data())
    def test_cohort_at_clamp_range_does_not_wrap(self, frac_bits, m, data):
        # m values at +-clamp_range, all one sign included: the decoded sum
        # is the true sum within m * 2^-f, so the ring never wrapped.
        total = secure_sum(m, 1, data.draw(st.integers(0, 2**32 - 1)), frac_bits)
        signs = data.draw(st.lists(st.sampled_from((-1.0, 1.0)),
                                   min_size=m, max_size=m))
        values = [s * total.codec.clamp_range for s in signs]
        for v in values:
            residues, clamps = encode(np.array([v]), total.codec)
            assert clamps == 0
            total.add(residues, total.masks(1))
        assert abs(total.decode()[0] - math.fsum(values)) <= m * 2.0 ** -frac_bits

    def test_strict_subset_is_uniform(self):
        # Without the last client the masks don't cancel; the partial sum is
        # indistinguishable from uniform.
        total = secure_sum(3, 100000, 7)
        rng = np.random.default_rng(3)
        residues, _ = encode(rng.uniform(-1, 1, (2, 100000)), total.codec)
        total.add(residues, total.masks(2))  # masks the two clients' rows in place
        partial = residues.sum(axis=0, dtype=np.uint64)
        assert low_bits_uniformity_pvalue(partial) > 0.001


class TestEndToEndBound:
    @pytest.mark.parametrize("m", [2, 10, 100])
    def test_error_bound(self, m):
        total = secure_sum(m, 200, m)
        rng = np.random.default_rng(m)
        vectors = rng.uniform(-1, 1, (m, 200))
        for v in vectors:
            total.add(encode(v.copy(), total.codec)[0], total.masks(1))
        out = total.decode()
        assert np.max(np.abs(out - vectors.sum(axis=0))) <= m * 2.0 ** -33 + 1e-9
