import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import beta

from oracles import loop_epsilon, quadrature_log_moments, reference_clip, reference_noise
from fltop import data, nn, privacy
from fltop.federation import FederatedRun, FederationConfig, Seeds
from fltop.privacy import AccountantQuery, add_client_noise, clip, epsilon, log_moment
from fltop.secure_agg import FixedPointCodec, SecureSum, encode
from fltop.errors import ConfigError, DimensionError

# Rows of a clipped stack at s = 1: zero, exactly at s, one whose first
# rescale lands an ulp above s (so it takes a second), within s, and huge.
EDGE_ROWS = ([0.0, 0.0], [0.6, 0.8], [-4.343335028964478, 4.606706247433619],
             [0.1, -0.2], [1e150, -1e150])


def stacks():
    """(G, K) float64 stacks of up to 6 columns, edge values mixed in; the
    squared norm of a row stays finite."""
    value = st.floats(-1e3, 1e3, allow_nan=False) | st.sampled_from(
        (0.0, -0.0, 1e-300, 1e153, -1e150))
    return st.integers(1, 6).flatmap(lambda k: st.lists(
        st.lists(value, min_size=k, max_size=k), min_size=1, max_size=5)).map(
        lambda rows: np.array(rows, dtype=np.float64))


def layouts(stack):
    """The same stack C-ordered, F-ordered and as a strided view."""
    wide = np.zeros((stack.shape[0], 2 * stack.shape[1]))
    wide[:, ::2] = stack
    return [stack.copy(), stack.copy(order="F"), wide[:, ::2]]


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
            assert np.array_equal(clip(c1.copy(), s), c1)

    def test_nonpositive_s(self):
        with pytest.raises(ConfigError):
            clip(np.ones(3), 0.0)

    @settings(max_examples=300, deadline=None)
    @given(stack=stacks(), s=st.sampled_from((1.0, 0.5, 3.7)))
    @example(stack=np.array(EDGE_ROWS), s=1.0)
    def test_each_row_of_a_stack_clips_as_one_vector(self, stack, s):
        expected = [reference_clip(row.copy(), s) for row in stack]
        for layout in layouts(stack):
            out = clip(layout, s)
            assert out.flags.c_contiguous
            for row, alone, want in zip(out, stack, expected):
                assert np.array_equal(row, want)
                assert np.array_equal(row, clip(alone.copy(), s))

    def test_clips_a_c_contiguous_stack_in_place(self):
        stack = np.array(EDGE_ROWS)
        assert clip(stack, 1.0) is stack
        assert np.all(np.linalg.norm(stack, axis=1) <= 1.0)
        assert np.array_equal(stack[0], [0.0, 0.0])

    @pytest.mark.parametrize("s", [1.0, 1e200])
    def test_row_whose_squared_norm_overflows_clips_to_s(self, s):
        # |x|^2 overflows float64 from about 1.3e154, and |x| itself from
        # about 1.8e308. Such a row still clips to norm s, along its own
        # direction, without a numpy warning (an error under the test
        # settings); a row that does not overflow keeps the bits of its own
        # clip, and one within a huge s is left as it is.
        def norm(row):
            top = float(np.abs(row).max())  # a Python float: inf, not a warning
            return top * float(np.linalg.norm(np.divide(row, top)))

        rng = np.random.default_rng(5)
        wide = rng.uniform(6e305, 8e305, 79_510) * rng.choice([-1, 1], 79_510)
        rows = [[1e200, -1e200], [2e154, 1e154], [1.5e308, 1.5e308],
                [-1.7e308, 1e308]]
        stack = np.array(rows + [[3.0, 4.0]])
        clip(stack, s)
        assert np.array_equal(stack[-1], reference_clip(np.array([3.0, 4.0]), s))
        for row, before in zip([*stack[:-1], clip(wide.copy(), s)], [*rows, wide]):
            assert norm(row) == pytest.approx(min(s, norm(before)), rel=1e-14)
            assert np.allclose(row / row[0], np.divide(before, before[0]), rtol=1e-14)
        huge = np.array([1e200, -1e200])
        assert np.array_equal(clip(huge.copy(), 1e300), huge)

    def test_row_with_an_infinite_entry_turns_nan(self):
        row = clip(np.array([np.inf, 1.0]), 1.0)
        assert np.isnan(row[0]) and row[1] == 0.0


class TestClientNoise:
    def test_deterministic(self):
        a = add_client_noise(np.zeros(8), 1.0, 1.5, 4, 7)
        b = add_client_noise(np.zeros(8), 1.0, 1.5, 4, 7)
        assert np.array_equal(a, b)

    @settings(max_examples=100, deadline=None)
    @given(stack=stacks(), seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 20))
    def test_each_row_of_a_stack_is_noised_by_its_own_seed(self, stack, seed, m):
        seeds = [[seed, j] for j in range(len(stack))]
        for layout in layouts(stack):
            out = add_client_noise(layout, 0.7, 1.3, m, seeds)
            for row, alone, row_seed in zip(out, stack, seeds):
                assert np.array_equal(row, reference_noise(alone, 0.7, 1.3, m, row_seed))
                assert np.array_equal(
                    row, add_client_noise(alone.copy(), 0.7, 1.3, m, row_seed))

    def test_one_seed_a_row(self):
        with pytest.raises(DimensionError):
            add_client_noise(np.zeros((3, 4)), 1.0, 1.0, 2, [[1], [2]])

    def test_noise_drawn_ahead_is_added_as_drawn(self):
        # A run may draw the noise first, elsewhere; adding it gives the
        # bytes of the call that draws its own.
        seeds = [[5, j] for j in range(3)]
        ahead = privacy._noise(seeds, 4, 0.7, 1.3, 10)
        out = add_client_noise(np.ones((3, 4)), 0.7, 1.3, 10, seeds, ahead)
        assert np.array_equal(out, add_client_noise(np.ones((3, 4)), 0.7, 1.3, 10, seeds))
        with pytest.raises(DimensionError):
            add_client_noise(np.ones((2, 4)), 0.7, 1.3, 10, seeds[:2], ahead)

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

    @pytest.mark.parametrize("sigma", [1e-155, 1e-160, 1e-170, 5e-324])
    @pytest.mark.parametrize("c", [0.5, 1.0])
    def test_vanishing_sigma_is_infinite(self, sigma, c):
        # (k^2 - k)/(2 sigma^2) overflows from about sigma = 1e-154, and
        # 2 sigma^2 itself underflows to 0 from about 1e-162; neither may
        # give NaN or divide by zero.
        assert log_moment(1, sigma, c) == math.inf
        assert epsilon(AccountantQuery(sigma, c, 10)) == (math.inf, 1)

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

    @settings(max_examples=180, deadline=None)
    @given(st.floats(0.3, 8.0), st.floats(1e-4, 1.0), st.integers(1, 5000),
           st.sampled_from([1e-5, 1e-3, 0.5]), st.integers(1, 80))
    def test_matches_the_loop_over_lambda(self, sigma, c, t, delta, lam_max):
        q = AccountantQuery(sigma, c, t, delta, lam_max)
        alphas = [log_moment(lam, sigma, c) for lam in range(1, lam_max + 1)]
        assert epsilon(q) == loop_epsilon(alphas, t, delta)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(["tie", "nan", "inf", 0.0, 0.5, 3.0]),
                    min_size=1, max_size=64),
           st.integers(1, 4), st.sampled_from([1e-5, 0.5]))
    def test_ties_and_nan_keep_the_loops_first_minimum(self, kinds, t, delta):
        # alpha = lambda * 2^60 makes t * alpha swallow ln delta, so every
        # such lambda ties at epsilon = t * 2^60; inf terms tie too, and a
        # NaN term never wins.
        alphas = [lam * 2.0 ** 60 if kind == "tie" else float(kind)
                  for lam, kind in enumerate(kinds, start=1)]
        with mock.patch.object(privacy, "_log_moment_grid",
                               return_value=np.array(alphas)):
            got = epsilon(AccountantQuery(1.0, 0.1, t, delta, len(alphas)))
        assert got == loop_epsilon(alphas, t, delta)

    def test_invalid_query(self):
        with pytest.raises(ConfigError):
            AccountantQuery(1.54, 1 / 60, 0)
        with pytest.raises(ConfigError):
            AccountantQuery(1.54, 0.0, 10)


@pytest.mark.parametrize("call", [
    lambda: clip(np.ones(3), math.nan),
    lambda: add_client_noise(np.ones(3), math.nan, 1.0, 2, [0]),
    lambda: add_client_noise(np.ones(3), 1.0, math.nan, 2, [0]),
    lambda: log_moment(2, math.nan, 0.5),
    lambda: AccountantQuery(math.nan, 0.5, 10),
], ids=["clip-s", "noise-s", "noise-sigma", "log_moment-sigma", "query-sigma"])
def test_nan_is_not_positive(call):
    # NaN <= 0 is false, so a check written that way lets NaN through.
    with pytest.raises(ConfigError, match="nan"):
        call()


class TestEmpiricalAudit:
    """A distinguishing game in the style of Jagielski, Ullman & Oprea (2020),
    "Auditing Differentially Private Machine Learning", run through the
    functions a DP round calls. A canary client is present, with update S on
    every coordinate, or absent, with update 0; the other m - 1 clients send
    0. The mechanism noises, encodes and masks each coordinate on its own,
    so each coordinate of one vector is one trial."""

    M, S, SIGMA, DELTA, TRIALS = 10, 1.0, 1.54, 1e-5, 20_000

    def release(self, canary, seed):
        """The secure sum over one cohort, one trial a coordinate."""
        codec = FixedPointCodec(32, cohort_size=self.M)
        total = SecureSum(codec, self.M, self.TRIALS, [seed, 0])
        for j in range(self.M):
            update = np.full(self.TRIALS, self.S if canary and j == 0 else 0.0)
            noised = add_client_noise(update, self.S, self.SIGMA, self.M, [seed, 1, j])
            residues, clamps = encode(noised, codec)
            assert clamps == 0
            total.add(residues)
        return total.decode()

    def epsilon_lower_bound(self, absent, present, alpha=0.05):
        """The largest ε that a threshold test refutes for (ε, δ)-DP, with
        one-sided Clopper–Pearson bounds on its error rates at confidence
        1 - alpha over a fixed grid of thresholds (Bonferroni)."""
        thresholds = self.S * np.linspace(0.5, 4.0, 8)
        level = 1 - alpha / len(thresholds)
        n = len(absent)

        def upper(errors):
            return 1.0 if errors == n else beta.ppf(level, errors + 1, n - errors)

        best = 0.0
        for tau in thresholds:
            fpr = upper(np.count_nonzero(absent > tau))
            fnr = upper(np.count_nonzero(present <= tau))
            for a, b in ((fpr, fnr), (fnr, fpr)):
                if 1 - self.DELTA - b > 0:
                    best = max(best, math.log((1 - self.DELTA - b) / a))
        return best

    def test_lower_bound_stays_below_the_accountant(self):
        present, absent = self.release(True, 1), self.release(False, 2)
        # The summed noise has std S·σ whether or not the canary is in.
        for out, mean in ((present, self.S), (absent, 0.0)):
            assert np.std(out - mean) == pytest.approx(self.S * self.SIGMA, rel=0.03)
        reported, _ = epsilon(AccountantQuery(self.SIGMA, 1.0, 1, self.DELTA))
        bound = self.epsilon_lower_bound(absent, present)
        # The game has power (noise a factor √m too small reads about 4.4)
        # and finds no more leakage than the accountant reports (3.33).
        assert 1.0 < bound <= reported

    def round_release(self, canary, seed, monkeypatch):
        """The secure sum of one fl-std-dp round over all of M clients (q = 1)
        on a model of 20,302 coordinates, one trial a coordinate, read off
        the global model as M·(w_after − w_before). Local training is stubbed:
        the canary client sends S on every coordinate, the others 0; the
        round's own clip, noise, codec and masks do the rest."""
        arch = nn.mlp_arch(200, [100], 2, "cross_entropy")
        train = data.Dataset(np.zeros((self.M, 200)), np.arange(self.M) % 2)
        cfg = FederationConfig(arch, "fl-std-dp", n_clients=self.M,
                               sampling_fraction=1.0, rounds=1, sigma=self.SIGMA,
                               delta=self.DELTA, clip=self.S,
                               seeds=Seeds(noise=seed, masks=seed))
        run = FederatedRun(cfg, train, np.arange(self.M).reshape(self.M, 1))
        n = arch.n_params
        stack = np.array([np.full(n, self.S if canary and j == 0 else 0.0)
                          for j in range(self.M)])
        monkeypatch.setattr(run, "_local_updates", lambda cohort, t, index_set: (
            (group, stack[group]) for group in run._groups))
        before = run.w.copy()
        run.run_round()
        return self.M * (run.w - before), run.epsilon_so_far()

    def test_round_release_stays_below_the_accountant(self, monkeypatch):
        present, reported = self.round_release(True, 1, monkeypatch)
        absent, _ = self.round_release(False, 2, monkeypatch)
        # The round clips the canary to norm S, so each coordinate carries
        # S/√n. Around that mean (0 when absent) the summed noise has RMS
        # S·σ: a skipped clip reads about S·√(σ² + 1) here.
        shift = self.S / math.sqrt(len(present))
        for out, mean in ((present, shift), (absent, 0.0)):
            rms = math.sqrt(np.mean((out - mean) ** 2))
            assert rms == pytest.approx(self.S * self.SIGMA, rel=0.03)
        assert reported == epsilon(AccountantQuery(self.SIGMA, 1.0, 1, self.DELTA))[0]
        assert self.epsilon_lower_bound(absent, present) <= reported
