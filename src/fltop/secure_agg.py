"""Additive-mask secure aggregation over a fixed-point ring mod 2^64.

Clients encode real vectors as two's-complement fixed-point residues, add a
random mask, and ship only the masked residues; the per-cohort masks sum to
zero so the server's modular sum reveals exactly the sum of the inputs (up to
quantization). The server keeps that sum as a running total (`SecureSum`),
adding each client's masked residues, or a group's in one reduction, as
they arrive. A trusted dealer in the simulator deals the masks in cohort order
from one seeded generator, so no cohort-sized matrix of masks or updates
is ever held.
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
    rather than wrapped; `fltop run` warns when a run clamped any. A NaN has
    no fixed-point value, so any NaN raises EncodingOverflowError.

    Works in place on a C-contiguous float64 array, of any shape, and
    returns its buffer reinterpreted as uint64 residues; any other input is
    first copied to one.
    """
    v = np.ascontiguousarray(v, dtype=np.float64)
    clamp = codec.clamp_range
    clamped = 0
    # A NaN makes min and max NaN, which fails the test as a value out of
    # range does; only then is anything counted.
    if v.size and not -clamp <= v.min() <= v.max() <= clamp:
        if nans := int(np.count_nonzero(np.isnan(v))):
            raise EncodingOverflowError(
                f"{nans} NaN entries of {v.size} cannot be encoded")
        clamped = int(np.count_nonzero(np.abs(v) > clamp))
        np.clip(v, -clamp, clamp, out=v)
    v *= codec.scale  # a power of two: exact
    np.rint(v, out=v)
    # A 1-D cast onto the same buffer runs element by element in order;
    # numpy would copy an n-D source first.
    flat = v.reshape(-1)
    residues = flat.view(np.int64)
    residues[...] = flat
    return residues.view(_U64).reshape(v.shape), clamped


def decode(residues, codec):
    """Signed reinterpretation of residues back to reals."""
    residues = np.ascontiguousarray(residues, dtype=_U64)
    return residues.view(np.int64).astype(np.float64) / codec.scale


def encrypt(encoded, mask):
    """One-time-pad addition in the ring, in place: adds `mask` into
    `encoded`, a uint64 array (any other input is first copied to one), and
    returns it."""
    encoded = np.asarray(encoded, dtype=_U64)
    mask = np.asarray(mask, dtype=_U64)
    if encoded.shape != mask.shape:
        raise DimensionError(f"shapes differ: {encoded.shape} vs {mask.shape}")
    encoded += mask
    return encoded


def _add_rows(total, rows):
    """Add the rows of a (G, dim) uint64 array into `total` mod 2^64, in
    any order: by one reduction, or directly for one row, a pass fewer."""
    if len(rows) > 1:
        total += rows.sum(axis=0, dtype=_U64)
    elif len(rows):
        total += rows[0]


class SecureSum:
    """The server's running modular sum of one cohort's masked updates.

    The dealer hands each of the cohort's `num_clients` clients a mask of
    `dim` words, in cohort order, from one generator seeded with `seed`:
    every mask but the last is uniform on the ring, and the last is minus
    the sum of the others, so the masks cancel in the full sum. `add`
    masks each client's residues and adds them to the total as they
    arrive, and `decode` returns the real-valued sum of the inputs.

    The masks read no data, so the dealer may run ahead: `masks` deals the
    next clients' masks, and `add` takes them in the same order. The two
    touch disjoint state, so the dealing may run on another thread.
    """

    def __init__(self, codec, num_clients, dim, seed):
        if num_clients < 2:
            raise ConfigError("masking needs at least 2 clients")
        self.codec = codec
        self.num_clients = num_clients
        self.count = 0  # clients added so far
        self.dealt = 0  # masks dealt so far
        self._rng = np.random.default_rng(seed)
        self._dealt = np.zeros(dim, dtype=_U64)  # their sum
        self._total = np.zeros(dim, dtype=_U64)

    def masks(self, count):
        """The next `count` clients' masks, as a (count, dim) array."""
        if self.dealt + count > self.num_clients:
            raise ProtocolError(f"a cohort of {self.num_clients} clients has no "
                                f"mask for client {self.dealt + count}")
        fresh = min(count, self.num_clients - 1 - self.dealt)
        out = self._rng.integers(0, 2 ** 64, size=(fresh, len(self._dealt)),
                                 dtype=_U64)
        _add_rows(self._dealt, out)
        if fresh < count:  # the cohort's last client
            out = np.concatenate([out, (_U64(0) - self._dealt)[None]])
        self.dealt += count
        return out

    def add(self, residues, masks=None):
        """Mask one client's residues, or a (G, dim) stack of G clients', and
        add them to the sum. `masks` are the rows' masks if the caller
        dealt them ahead; by default `add` deals them. Masks a C-contiguous
        uint64 array in place; any other input is first copied to one."""
        residues = np.ascontiguousarray(residues, dtype=_U64)
        rows = residues.reshape(-1, residues.shape[-1])
        if self.count + len(rows) > self.num_clients:
            raise ProtocolError(f"a cohort of {self.num_clients} clients has no "
                                f"client {self.count + len(rows)}")
        encrypt(rows, self.masks(len(rows)) if masks is None else masks)
        _add_rows(self._total, rows)
        self.count += len(rows)

    def decode(self):
        """The decoded sum of the whole cohort's inputs.

        With any client missing the masks do not cancel, so that raises
        ProtocolError. A cohort larger than the codec's `cohort_size` could
        wrap the sum, so it raises EncodingOverflowError.
        """
        if self.count != self.num_clients:
            raise ProtocolError(
                f"expected {self.num_clients} masked updates, got {self.count}")
        if self.num_clients > self.codec.cohort_size:
            raise EncodingOverflowError(
                f"a codec sized for {self.codec.cohort_size} clients cannot sum "
                f"{self.num_clients} without risk of wrapping")
        return decode(self._total, self.codec)
