"""Client-level DP machinery: clipping, distributed Gaussian noise, and the
moments-accountant epsilon calculator for the subsampled Gaussian mechanism."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError


def clip(delta_w, s):
    """Scale delta_w down to L2 norm at most s; no-op if already within."""
    if s <= 0:
        raise ConfigError(f"clipping threshold must be positive, got {s}")
    out = np.asarray(delta_w, dtype=np.float64)
    norm = np.linalg.norm(out)
    # Rescaling can land an ulp above s; iterate so clip(clip(x)) == clip(x)
    # exactly. Converges in one or two passes.
    while norm > s:
        out = out * (s / norm)
        norm = np.linalg.norm(out)
    return out


def add_client_noise(delta_w, s, sigma, num_selected, rng_seed):
    """Add i.i.d. Gaussian noise with per-coordinate std s*sigma/sqrt(num_selected).

    Summing the noises of num_selected clients gives total std s*sigma,
    which is what the accountant assumes for the aggregate.
    """
    if s <= 0 or sigma <= 0:
        raise ConfigError("s and sigma must be positive")
    if num_selected < 1:
        raise ConfigError("num_selected must be >= 1")
    delta_w = np.asarray(delta_w, dtype=np.float64)
    rng = np.random.default_rng(rng_seed)
    std = s * sigma / math.sqrt(num_selected)
    return delta_w + rng.normal(0.0, std, size=delta_w.shape)


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
    if sigma <= 0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    if not 0 <= c <= 1:
        raise ConfigError(f"sampling fraction must be in [0, 1], got {c}")
    if c == 0:
        return 0.0
    if c == 1:
        # Only the k = lambda+1 term survives; log1p(-1) would raise.
        return lam * (lam + 1) / (2.0 * sigma * sigma)
    a = int(lam) + 1
    log_keep, log_c = math.log1p(-c), math.log(c)
    terms = [math.lgamma(a + 1) - math.lgamma(k + 1) - math.lgamma(a - k + 1)
             + (a - k) * log_keep + k * log_c + (k * k - k) / (2.0 * sigma * sigma)
             for k in range(a + 1)]
    top = max(terms)
    log_e2 = top + math.log(math.fsum(math.exp(t - top) for t in terms))
    # Rounding can put the sum a hair below 1 when c is tiny.
    return max(log_e2, 0.0)


@lru_cache(maxsize=None)
def _log_moment_grid(sigma, c, lam_max):
    return tuple(log_moment(lam, sigma, c) for lam in range(1, lam_max + 1))


@dataclass(frozen=True)
class AccountantQuery:
    sigma: float
    c: float
    t: int
    delta: float = 1e-5
    lam_max: int = 64

    def __post_init__(self):
        if self.sigma <= 0:
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
    (t * alpha(lambda|c) - ln delta) / lambda.
    """
    alphas = _log_moment_grid(query.sigma, query.c, query.lam_max)
    log_delta = math.log(query.delta)
    best_eps = math.inf
    best_lam = 1
    for lam, alpha in enumerate(alphas, start=1):
        eps = (query.t * alpha - log_delta) / lam
        if eps < best_eps:
            best_eps = eps
            best_lam = lam
    return best_eps, best_lam

