"""Additive-mask secure aggregation over a fixed-point ring mod 2^64.

Clients encode real vectors as two's-complement fixed-point residues, add a
random mask, and ship only the masked residues; the per-cohort masks sum to
zero so the server's modular sum reveals exactly the sum of the inputs (up to
quantization). A trusted dealer generates the masks in-simulator.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, EncodingOverflowError, ProtocolError

MODULUS_BITS = 64
_U64 = np.uint64


@dataclass(frozen=True)
class FixedPointCodec:
    """`cohort_size` is the most encoded vectors one aggregate may sum."""
    frac_bits: int = 32
    cohort_size: int = 1

    def __post_init__(self):
        if not 0 < self.frac_bits < MODULUS_BITS - 8:
            raise ConfigError(
                f"frac_bits must be in (0, {MODULUS_BITS - 8}), "
                f"got {self.frac_bits}")
        if self.cohort_size < 1:
            raise ConfigError(f"cohort_size must be >= 1, got {self.cohort_size}")

    @property
    def scale(self):
        return float(2 ** self.frac_bits)

    @property
    def clamp_range(self):
        # Encoded, a clamped value is at most 2^e with e = 63 - m.bit_length()
        # for m = cohort_size. Since m < 2^(63 - e), a sum of m of them stays
        # inside the signed 64-bit range and cannot wrap.
        return math.ldexp(1.0, MODULUS_BITS - 1 - self.cohort_size.bit_length()
                          - self.frac_bits)


def encode(v, codec):
    """Fixed-point encode; returns (residues, clamp_count).

    Values beyond codec.clamp_range, ±inf included, are clamped and counted
    rather than wrapped; a run reporting nonzero clamps is suspect and
    flagged upstream. A NaN has no fixed-point value, so any NaN raises
    EncodingOverflowError.
    """
    v = np.asarray(v, dtype=np.float64)
    if nans := int(np.count_nonzero(np.isnan(v))):
        raise EncodingOverflowError(f"{nans} NaN entries of {v.size} cannot be encoded")
    clamp = codec.clamp_range
    clamped = int(np.count_nonzero(np.abs(v) > clamp))
    q = np.rint(np.clip(v, -clamp, clamp) * codec.scale).astype(np.int64)
    return q.view(_U64), clamped

def decode(residues, codec):
    """Signed reinterpretation of residues back to reals."""
    residues = np.ascontiguousarray(residues, dtype=_U64)
    return residues.view(np.int64).astype(np.float64) / codec.scale


def make_masks(num_clients, dim, seed):
    """num_clients mask vectors whose element-wise sum is 0 mod 2^64."""
    if num_clients < 2:
        raise ConfigError("masking needs at least 2 clients")
    rng = np.random.default_rng(seed)
    masks = np.empty((num_clients, dim), dtype=_U64)
    masks[:-1] = rng.integers(0, 2 ** 64, size=(num_clients - 1, dim), dtype=_U64)
    masks[-1] = _U64(0) - masks[:-1].sum(axis=0, dtype=_U64)
    return masks


def encrypt(encoded, mask):
    """One-time-pad addition in the ring."""
    encoded = np.asarray(encoded, dtype=_U64)
    mask = np.asarray(mask, dtype=_U64)
    if encoded.shape != mask.shape:
        raise DimensionError(f"shapes differ: {encoded.shape} vs {mask.shape}")
    return encoded + mask


def aggregate_decode(masked_updates, codec, num_clients):
    """Modular sum of one full cohort's masked updates, decoded to reals.

    The list must cover exactly the cohort the masks were dealt for; with any
    client missing the masks do not cancel and the result is garbage. A
    cohort larger than the codec's `cohort_size` could wrap the sum, so it
    raises EncodingOverflowError.
    """
    if len(masked_updates) != num_clients:
        raise ProtocolError(
            f"expected {num_clients} masked updates, got {len(masked_updates)}")
    if num_clients > codec.cohort_size:
        raise EncodingOverflowError(
            f"a codec sized for {codec.cohort_size} clients cannot sum "
            f"{num_clients} without risk of wrapping")
    total = np.zeros_like(np.asarray(masked_updates[0], dtype=_U64))
    for m in masked_updates:
        np.add(total, np.asarray(m, dtype=_U64), out=total)
    return decode(total, codec)
