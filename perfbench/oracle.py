"""Closed-form epsilon for the subsampled Gaussian, independent of fltop.

For integer order a, the Renyi moment of the mixture (1-q)N(0, s^2) + qN(1, s^2)
against N(0, s^2) expands binomially (Mironov, Talwar & Zhang 2019):

    A_a = sum_k C(a, k) (1-q)^(a-k) q^k exp((k^2 - k) / (2 s^2)).

The moments accountant's log moment at lambda is log A_(lambda+1), and after
T rounds epsilon = min over lambda in [1, lam_max] of (T log A - log delta) / lambda.
"""

import math

# fltop prints epsilon with 6 significant digits; allow twice that rounding.
REL_TOLERANCE = 1e-5


def _log_sum_exp(values):
    top = max(values)
    return top + math.log(sum(math.exp(v - top) for v in values))


def log_moment(lam, sigma, q):
    a = lam + 1
    terms = [math.lgamma(a + 1) - math.lgamma(k + 1) - math.lgamma(a - k + 1)
             + (a - k) * math.log1p(-q) + k * math.log(q)
             + (k * k - k) / (2.0 * sigma * sigma)
             for k in range(a + 1)]
    return _log_sum_exp(terms)


def epsilon(sigma, q, rounds, delta=1e-5, lam_max=64):
    log_delta = math.log(delta)
    return min((rounds * log_moment(lam, sigma, q) - log_delta) / lam
               for lam in range(1, lam_max + 1))


def agrees(reported, expected):
    return abs(reported - expected) <= REL_TOLERANCE * abs(expected)
