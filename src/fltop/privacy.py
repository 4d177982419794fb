"""Client-level DP machinery: clipping, distributed Gaussian noise, and the
moments-accountant epsilon calculator for the subsampled Gaussian mechanism."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError


def clip(delta_w, s):
    """Scale each row of delta_w (its last axis: one client's K-vector, or a
    (G, K) stack of G clients) down to L2 norm at most s; a row already
    within s is left as it is.

    Works in place on a C-contiguous float64 array and returns it; any other
    input is first copied to one. Each row's result equals, bit for bit, the
    clip of that row alone. A row whose squared norm overflows still clips
    to norm s (see `_factors`); one with an infinite entry turns NaN.
    """
    if not s > 0:
        raise ValueError(f"clipping threshold must be positive, got {s}")
    out = np.ascontiguousarray(delta_w, dtype=np.float64)
    rows = out.reshape(-1, out.shape[-1])  # a view: out is C-contiguous
    # Rescaling can land an ulp above s; iterate so clip(clip(x)) == clip(x)
    # exactly. Converges in one or two passes. A row within s is scaled by
    # s / s = 1, which keeps its bits; fmax keeps a NaN row's for encode.
    with np.errstate(over="ignore", invalid="ignore"):
        while (factors := _factors(rows, s)).min(initial=1.0) < 1:
            rows *= factors[:, None]
    return out


def _factors(rows, s):
    """Each row's clip factor, s / max(norm, s). Where the squared norm
    overflows, it is (s / top) / |row / top|, top the largest |entry|, so
    that no product overflows; 0 where top is inf."""
    norms = np.sqrt(np.vecdot(rows, rows))
    factors = s / np.fmax(norms, s)
    if (huge := norms == np.inf).any():
        top = np.abs(rows[huge]).max(axis=-1)
        unit = rows[huge] / top[:, None]
        factors[huge] = np.fmin(s / top / np.fmax(np.sqrt(np.vecdot(unit, unit)), 1), 1)
    return factors


def _noise(seeds, k, s, sigma, num_selected):
    """(len(seeds), k) Gaussian noise of std s*sigma/sqrt(num_selected), row
    i from `np.random.default_rng(seeds[i])`: the draws fill one buffer,
    which is then scaled at once. Summed over num_selected clients it has
    std s*sigma, as the accountant assumes. It reads no data, so
    `federation` may draw it ahead of time, on another thread."""
    noise = np.empty((len(seeds), k))
    for row, seed in zip(noise, seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    noise *= s * sigma / math.sqrt(num_selected)
    return noise


def log_moment(lam, sigma, c):
    """Log moment alpha(lambda|c) of the subsampled Gaussian privacy loss.

    The moments accountant takes log max(E1, E2) with E1 = int n0 (n0/n1)^lambda
    and E2 = int n1 (n1/n0)^lambda, where n0 = pdf of N(0, sigma^2) and
    n1 = (1-c) n0 + c pdf of N(1, sigma^2). E2 >= E1 for this mechanism, and at
    integer lambda E2 has a binomial closed form (Mironov, Talwar & Zhang 2019,
    Renyi DP of the Sampled Gaussian Mechanism), summed here in log space:
    E2 = sum_k C(lambda+1, k) (1-c)^(lambda+1-k) c^k exp((k^2-k)/(2 sigma^2)).
    """
    if lam < 1 or int(lam) != lam:
        raise ConfigError(f"lambda must be a positive integer, got {lam}")
    if not sigma > 0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    if not 0 <= c <= 1:
        raise ConfigError(f"sampling fraction must be in [0, 1], got {c}")
    if c == 0:
        return 0.0
    two_var = 2.0 * sigma * sigma
    if two_var == 0:  # sigma^2 underflowed; so would every k >= 2 term
        return math.inf
    if c == 1:
        # Only the k = lambda+1 term survives; log1p(-1) would raise.
        return lam * (lam + 1) / two_var
    a = int(lam) + 1
    log_keep, log_c = math.log1p(-c), math.log(c)
    terms = [math.lgamma(a + 1) - math.lgamma(k + 1) - math.lgamma(a - k + 1)
             + (a - k) * log_keep + k * log_c + (k * k - k) / two_var
             for k in range(a + 1)]
    top = max(terms)
    if top == math.inf:  # a term overflowed, and inf - inf would be NaN
        return math.inf
    log_e2 = top + math.log(math.fsum(math.exp(t - top) for t in terms))
    # Rounding can put the sum a hair below 1 when c is tiny.
    return max(log_e2, 0.0)


@lru_cache(maxsize=None)
def _log_moment_grid(sigma, c, lam_max):
    grid = np.array([log_moment(lam, sigma, c) for lam in range(1, lam_max + 1)])
    grid.flags.writeable = False
    return grid


@dataclass(frozen=True)
class AccountantQuery:
    sigma: float
    c: float
    t: int
    delta: float = 1e-5
    lam_max: int = 64

    def __post_init__(self):
        if not self.sigma > 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if not 0 < self.c <= 1:
            raise ConfigError(f"sampling fraction must be in (0, 1], got {self.c}")
        if self.t < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.t}")
        if not 0 < self.delta < 1:
            raise ConfigError(f"delta must be in (0, 1), got {self.delta}")
        if self.lam_max < 1:
            raise ConfigError(f"lambda_max must be >= 1, got {self.lam_max}")


def epsilon(query):
    """(epsilon, best lambda) after query.t rounds of the subsampled Gaussian.

    epsilon = min over integer lambda in [1, lam_max] of
    (t * alpha(lambda|c) - ln delta) / lambda, first attained at lambda*.
    """
    alphas = _log_moment_grid(query.sigma, query.c, query.lam_max)
    eps = (query.t * alphas - math.log(query.delta)) / np.arange(1, len(alphas) + 1)
    np.fmin(eps, math.inf, out=eps)  # NaN -> inf, which argmin would pick
    lam = int(eps.argmin())
    return float(eps[lam]), lam + 1

