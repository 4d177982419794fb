import math

import numpy as np
import pytest

from oracles import quadrature_log_moments
from fltop.privacy import AccountantQuery, add_client_noise, clip, epsilon, log_moment
from fltop.errors import ConfigError


class TestClip:
    def test_noop_below_threshold(self):
        v = np.array([0.3, 0.4])  # norm 0.5
        assert np.array_equal(clip(v, 1.0), v)

    def test_scales_to_threshold(self):
        out = clip(np.array([3.0, 4.0]), 1.0)
        assert np.allclose(out, [0.6, 0.8], atol=1e-15)

    def test_zero_vector(self):
        assert np.array_equal(clip(np.zeros(4), 2.0), np.zeros(4))

    def test_norm_bound_and_idempotence(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=20) * rng.uniform(0, 10)
            s = rng.uniform(0.1, 5)
            c1 = clip(v, s)
            assert np.linalg.norm(c1) <= s * (1 + 1e-12)
            assert np.array_equal(clip(c1, s), c1)

    def test_nonpositive_s(self):
        with pytest.raises(ConfigError):
            clip(np.ones(3), 0.0)


class TestClientNoise:
    def test_deterministic(self):
        v = np.zeros(8)
        a = add_client_noise(v, 1.0, 1.5, 4, 7)
        b = add_client_noise(v, 1.0, 1.5, 4, 7)
        assert np.array_equal(a, b)

    def test_per_coordinate_std(self):
        # K=4 selected: per-coordinate std should be S*sigma/2
        s, sigma = 2.0, 1.5
        noise = add_client_noise(np.zeros(10 ** 6), s, sigma, 4, 0)
        expected = s * sigma / 2.0
        assert abs(np.std(noise) - expected) / expected < 0.005

    def test_sum_of_noises_std(self):
        # Sum of num_selected independent noises has std S*sigma
        s, sigma, m = 1.0, 1.2, 16
        total = np.zeros(200000)
        for k in range(m):
            total = total + add_client_noise(np.zeros(200000), s, sigma, m, 100 + k)
        assert abs(np.std(total) - s * sigma) / (s * sigma) < 0.01


class TestLogMoment:
    def test_c_zero_is_zero(self):
        assert log_moment(4, 1.5, 0.0) == 0.0

    def test_lambda_one_closed_form(self):
        for sigma, c in [(1.54, 1 / 60), (1.0, 0.02), (0.9, 0.05)]:
            assert log_moment(1, sigma, c) == pytest.approx(
                quadrature_log_moments(1, sigma, c)[1], rel=1e-8)

    def test_monotone_in_lambda(self):
        vals = [log_moment(lam, 1.54, 1 / 60) for lam in range(1, 33)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_oracle_equivalence_grid(self):
        # Quadrature of both integrals, independent of the binomial closed
        # form. Every lambda up to lam_max=64 on the benchmark workloads'
        # (sigma, q) pairs, so the check also covers E2 >= E1, which lets
        # log_moment return E2 alone.
        grid = [(sigma, c, lam) for sigma in (0.8, 1.49, 1.54, 4.0)
                for c in (0.01, 1 / 60, 0.02) for lam in (1, 2, 4, 8, 16, 32)]
        grid += [(sigma, c, lam) for sigma, c in ((1.54, 0.2), (1.0, 0.1))
                 for lam in range(1, 65)]
        for sigma, c, lam in grid:
            log_e1, log_e2 = quadrature_log_moments(lam, sigma, c)
            got = log_moment(lam, sigma, c)
            assert got == pytest.approx(log_e2, abs=1e-6)
            assert got >= log_e1 - 1e-9

    def test_full_sampling_closed_form(self):
        # At c = 1 the moment is that of the plain Gaussian mechanism. The
        # former quadrature did not converge at (64, 0.1) and (16, 0.02).
        for lam, sigma in [(1, 1.0), (7, 1.54), (64, 0.8), (64, 0.1), (16, 0.02)]:
            assert log_moment(lam, sigma, 1.0) == lam * (lam + 1) / (2 * sigma ** 2)

    def test_small_sigma_large_lambda_finite(self):
        # Exponents reach thousands here; the log-space sum stays finite and
        # grows with lambda.
        for sigma, c in [(0.3, 0.1), (0.02, 0.5)]:
            vals = [log_moment(lam, sigma, c) for lam in (32, 64, 128)]
            assert all(math.isfinite(v) for v in vals)
            assert 0 < vals[0] < vals[1] < vals[2]

    def test_invalid_arguments(self):
        with pytest.raises(ConfigError):
            log_moment(0, 1.0, 0.1)
        with pytest.raises(ConfigError):
            log_moment(1, -1.0, 0.1)
        with pytest.raises(ConfigError):
            log_moment(1, 1.0, 1.5)


class TestEpsilon:
    def test_golden_values_sigma_154(self):
        eps, lam = epsilon(AccountantQuery(1.54, 1 / 60, 200))
        assert eps == pytest.approx(1.0, abs=0.05)
        eps60, _ = epsilon(AccountantQuery(1.54, 1 / 60, 60))
        assert eps60 == pytest.approx(0.76, abs=0.03)

    def test_golden_values_sigma_149(self):
        eps, _ = epsilon(AccountantQuery(1.49, 100 / 5010, 100))
        assert eps == pytest.approx(1.0, abs=0.05)
        eps23, _ = epsilon(AccountantQuery(1.49, 100 / 5010, 23))
        assert eps23 == pytest.approx(0.79, abs=0.03)

    def test_monotonicity(self):
        base = epsilon(AccountantQuery(1.5, 0.02, 50))[0]
        assert epsilon(AccountantQuery(1.5, 0.02, 100))[0] >= base     # more rounds
        assert epsilon(AccountantQuery(1.5, 0.04, 50))[0] >= base      # more sampling
        assert epsilon(AccountantQuery(2.5, 0.02, 50))[0] <= base      # more noise

    def test_composition_subadditive(self):
        # At any fixed lambda the log moments add over rounds, so epsilon for
        # a+b rounds never exceeds the sum of the a-round and b-round epsilons.
        for a, b in [(30, 70), (10, 40)]:
            ea = epsilon(AccountantQuery(1.54, 1 / 60, a))[0]
            eb = epsilon(AccountantQuery(1.54, 1 / 60, b))[0]
            eab = epsilon(AccountantQuery(1.54, 1 / 60, a + b))[0]
            assert eab <= ea + eb + 1e-12

    def test_returns_minimizing_lambda(self):
        q = AccountantQuery(1.54, 1 / 60, 200)
        eps, lam = epsilon(q)
        alphas = [log_moment(l, q.sigma, q.c) for l in range(1, q.lam_max + 1)]
        per_lam = [(q.t * a - math.log(q.delta)) / l
                   for l, a in enumerate(alphas, start=1)]
        assert eps == pytest.approx(min(per_lam), abs=1e-12)
        assert per_lam[lam - 1] == pytest.approx(eps, abs=1e-12)

    def test_invalid_query(self):
        with pytest.raises(ConfigError):
            AccountantQuery(1.54, 1 / 60, 0)
        with pytest.raises(ConfigError):
            AccountantQuery(1.54, 0.0, 10)

