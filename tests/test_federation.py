import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (make_masks, rankdata_auroc, reference_dp_sum,
                     reference_global_update, reference_topk_sgd)
from fltop import data, federation, nn, privacy, secure_agg
from fltop.data import to_targets
from fltop.errors import ConfigError, DataError, EncodingOverflowError, ProtocolError
from fltop.federation import (SCHEMES, FederatedRun, FederationConfig,
                              accuracies, auroc, bandwidth_cost, run_experiment,
                              trace_to_csv)

FASHION_N = 1_663_370
FASHION_C = 1 / 60


@pytest.fixture
def small_setup(separable_task):
    train, test, public = separable_task
    part = data.partition(train, 50, seed=3)
    arch = nn.mlp_arch(20, [64], 2, "cross_entropy")
    return train, test, public, part, arch


@pytest.fixture(scope="module")
def wide_setup():
    """784 -> 100 -> 10 on random images: a Top-K set there touches only a
    few hidden units, so fixed-set runs cache layer 0."""
    rng = np.random.default_rng(0)

    def images(count):
        return data.Dataset(rng.uniform(0, 1, (count, 784)),
                            rng.integers(0, 10, count))

    train, test, public = images(200), images(100), images(10)
    part = data.partition(train, 20, seed=3)
    arch = nn.mlp_arch(784, [100], 10, "cross_entropy")
    return train, test, (public.inputs, public.labels), part, arch


FIXED_SET_SCHEMES = sorted(name for name, spec in SCHEMES.items()
                           if spec.fixed_across_rounds and spec.selection != "all")
DP_SCHEMES = sorted(name for name, spec in SCHEMES.items() if spec.dp)


def make_config(arch, scheme, **kw):
    defaults = dict(n_clients=50, sampling_fraction=0.2, rounds=5,
                    local_steps=5, batch_size=10, learning_rate=0.3,
                    ratio=0.05, sigma=1.54, clip=1.0)
    defaults.update(kw)
    return FederationConfig(arch, scheme, **defaults)


class TestBandwidth:
    def test_fashion_scale_reference_costs(self):
        assert bandwidth_cost(0.005, FASHION_N, 200, FASHION_C, True) == \
            pytest.approx(110.88, abs=0.02)
        assert bandwidth_cost(0.05, FASHION_N, 200, FASHION_C, True) == \
            pytest.approx(1108.91, abs=0.02)
        assert bandwidth_cost(0.10, FASHION_N, 199, FASHION_C, True) == \
            pytest.approx(2206.74, abs=0.02)
        assert bandwidth_cost(1.0, FASHION_N, 200, FASHION_C, True) == \
            pytest.approx(22178.27, abs=0.02)

    def test_uncompressed_direction_ignores_ratio(self):
        assert bandwidth_cost(0.005, FASHION_N, 200, FASHION_C, False) == \
            pytest.approx(22178.27, abs=0.02)

    def test_round_zero_is_free(self):
        assert bandwidth_cost(0.5, 1000, 0, 0.1, True) == 0.0


class TestMetrics:
    def test_perfect_classifier(self):
        scores = np.array([0.9, 0.8, 0.1, 0.2])
        labels = np.array([1, 1, 0, 0])
        assert accuracies(scores, labels) == (1.0, 1.0)
        assert auroc(scores, labels) == 1.0

    def test_constant_scores_auroc_half(self):
        scores = np.full(100, 0.7)
        labels = np.array([0, 1] * 50)
        assert auroc(scores, labels) == 0.5

    def test_auroc_brute_force_cases(self):
        scores = np.array([0.9, 0.8, 0.3, 0.1])
        assert auroc(scores, np.array([1, 1, 0, 0])) == 1.0
        assert auroc(scores, np.array([1, 0, 1, 0])) == 0.75

    def test_auroc_matches_pairwise_rank_oracle(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(size=60)
        labels = rng.integers(0, 2, 60)
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        assert auroc(scores, labels) == pytest.approx(wins / (len(pos) * len(neg)))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 0.25, 0.5,
                                               float(np.nextafter(0.5, 1.0)),
                                               0.75, 1.0]),
                              st.integers(0, 1)),
                    min_size=2, max_size=80))
    def test_auroc_tie_heavy_matches_rankdata(self, rows):
        # Few distinct scores, so most ranks are tie averages; the result
        # must equal scipy's average-rank statistic exactly, not approximately.
        scores = np.array([r[0] for r in rows])
        labels = np.array([r[1] for r in rows])
        if labels.min() == labels.max():
            with pytest.raises(DataError):
                auroc(scores, labels)
            return
        assert auroc(scores, labels) == rankdata_auroc(scores, labels)

    def test_auroc_single_class(self):
        with pytest.raises(DataError):
            auroc(np.array([0.1, 0.9]), np.array([1, 1]))

    def test_balanced_accuracy_imbalanced(self):
        # All-negative predictor on 90/10 data: plain accuracy 0.9 but
        # balanced accuracy 0.5.
        scores = np.zeros(100)
        labels = np.array([0] * 90 + [1] * 10)
        assert accuracies(scores, labels) == (0.9, 0.5)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    min_size=1, max_size=60))
    def test_accuracies_match_per_class_means(self, pairs):
        # One argmax gives both metrics, bit for bit as plain accuracy and
        # the mean over the classes present of each class's recall.
        preds, labels = (np.array(col) for col in zip(*pairs))
        scores = np.eye(5)[preds]
        recalls = [np.mean(preds[labels == c] == c) for c in np.unique(labels)]
        expected = (float(np.mean(preds == labels)), float(np.mean(recalls)))
        assert accuracies(scores, labels) == expected
        assert accuracies(scores, labels, np.bincount(labels)) == expected


class TestSeedWords:
    @pytest.mark.parametrize("big", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 5, 2 ** 64 + 3])
    def test_same_draws_as_the_list_seed(self, big):
        for parts in ([big], [100, big, 7], [big, 3, big]):
            words = federation.seed_words(*parts)
            assert words.dtype == np.uint32
            assert np.array_equal(np.random.default_rng(words).integers(0, 2 ** 63, 8),
                                  np.random.default_rng(parts).integers(0, 2 ** 63, 8))
        ids = np.array([0, 5, 2 ** 32 - 1])
        rows = federation.seed_words(100, big, ids=ids)
        for cid, row in zip(ids, rows, strict=True):
            assert np.array_equal(row, federation.seed_words(100, big, int(cid)))
            assert np.array_equal(np.random.default_rng(row).standard_normal(4),
                                  np.random.default_rng([100, big, int(cid)])
                                  .standard_normal(4))


class TestSchemeTable:
    def test_named_mapping(self):
        assert SCHEMES["fl-top"].selection == "topk"
        assert SCHEMES["fl-top"].reinit_nonselected
        assert not SCHEMES["fl-top-bis"].reinit_nonselected
        assert not SCHEMES["fl-basic"].fixed_across_rounds
        assert SCHEMES["fl-basic"].reinit_nonselected
        assert not SCHEMES["fl-bas-2"].fixed_across_rounds
        assert not SCHEMES["fl-bas-2"].reinit_nonselected
        assert SCHEMES["fl-bas-3"].fixed_across_rounds
        assert SCHEMES["fl-bas-3"].reinit_nonselected
        assert SCHEMES["fl-bas-4"].fixed_across_rounds
        assert not SCHEMES["fl-bas-4"].reinit_nonselected
        for name, spec in SCHEMES.items():
            assert spec.dp == name.endswith("-dp")

    def test_unknown_scheme_rejected(self):
        arch = nn.mlp_arch(4, [3], 2, "cross_entropy")
        with pytest.raises(ConfigError, match="fl-std"):
            make_config(arch, "fl-nope")

    def test_dp_cohort_of_one_rejected(self):
        arch = nn.mlp_arch(4, [3], 2, "cross_entropy")
        with pytest.raises(ConfigError, match="fl-top-dp.*cohort is 1"):
            make_config(arch, "fl-top-dp", sampling_fraction=0.02)
        assert make_config(arch, "fl-top", sampling_fraction=0.02).cohort_size == 1
        assert make_config(arch, "fl-top-dp", sampling_fraction=0.04).cohort_size == 2

    @pytest.mark.parametrize("scheme, key, value", [
        ("fl-top", "n_clients", 0), ("fl-top", "rounds", 0),
        ("fl-top", "rounds", -1), ("fl-top", "local_steps", 0),
        ("fl-top", "batch_size", 0), ("fl-top", "t_init", 0),
        ("fl-top-dp", "sigma", 0.0), ("fl-top-dp", "delta", 2.0),
        ("fl-top-dp", "lambda_max", 0), ("fl-top-dp", "frac_bits", 60),
        ("fl-top-dp", "clip", 0.0)])
    def test_out_of_range_rejected(self, scheme, key, value):
        arch = nn.mlp_arch(4, [3], 2, "cross_entropy")
        with pytest.raises(ConfigError, match=rf"^federation\.{key} "):
            make_config(arch, scheme, **{key: value})


class TestRounds:
    def test_degeneracy_topk_full_equals_std(self, small_setup):
        train, test, public, part, arch = small_setup
        c1 = make_config(arch, "fl-top", ratio=1.0)
        c2 = make_config(arch, "fl-std")
        r1 = FederatedRun(c1, train, part, test=test, public=public)
        r2 = FederatedRun(c2, train, part, test=test)
        for _ in range(5):
            r1.run_round()
            r2.run_round()
            assert np.array_equal(r1.w, r2.w)

    def test_eta_zero_keeps_model(self, small_setup):
        train, test, public, part, arch = small_setup
        cfg = make_config(arch, "fl-top", learning_rate=0.0, rounds=1)
        run = FederatedRun(cfg, train, part, test=test, public=public)
        w_before = run.w.copy()
        run.run_round()
        assert np.array_equal(run.w, w_before)

    def test_coordinate_freeze_reinit_schemes(self, small_setup):
        train, test, public, part, arch = small_setup
        for scheme in ("fl-top", "fl-basic", "fl-bas-3"):
            cfg = make_config(arch, scheme)
            run = FederatedRun(cfg, train, part, test=test, public=public)
            for t in range(1, 6):
                run.run_round()
                iset = run._round_index_set(t)
                frozen = np.setdiff1d(np.arange(run.n), iset)
                assert np.array_equal(run.w[frozen], run.w0[frozen]), scheme

    def test_transmitted_length_k_no_reinit_schemes(self, small_setup):
        train, test, public, part, arch = small_setup
        for scheme in ("fl-top-bis", "fl-bas-2", "fl-bas-4"):
            cfg = make_config(arch, scheme)
            run = FederatedRun(cfg, train, part, test=test, public=public)
            iset = run._round_index_set(1)
            (_, (upd,)), = run._local_updates(np.array([0]), 1, iset)
            assert len(upd) == cfg.k(run.n) == len(iset), scheme

    def test_dp_sigma_near_zero_matches_clipped_topk(self, small_setup):
        # With vanishing noise and a generous clip the DP pipeline reduces to
        # plain FL-TOP up to fixed-point quantization.
        train, test, public, part, arch = small_setup
        c_dp = make_config(arch, "fl-top-dp", sigma=1e-12, clip=100.0)
        c_np = make_config(arch, "fl-top")
        r1 = FederatedRun(c_dp, train, part, test=test, public=public)
        r2 = FederatedRun(c_np, train, part, test=test, public=public)
        for _ in range(3):
            r1.run_round()
            r2.run_round()
        m = c_dp.cohort_size
        bound = m * 2.0 ** -33 / m + 1e-6  # quantization + tiny noise slack
        assert np.max(np.abs(r1.w - r2.w)) <= bound

    def test_decoded_aggregate_noise_std(self, small_setup):
        # Empirical std of (decoded aggregate - true clipped sum) over many
        # rounds should be S*sigma per coordinate.
        train, test, public, part, arch = small_setup
        s, sigma = 0.5, 1.3
        cfg = make_config(arch, "fl-top-dp", sigma=sigma, clip=s,
                          learning_rate=0.0, sampling_fraction=0.32)
        run = FederatedRun(cfg, train, part, test=test, public=public)
        m = cfg.cohort_size
        assert m == 16
        diffs = []
        for _ in range(40):
            w_prev = run.w.copy()
            run.run_round()
            iset = run.index_set
            # eta=0 so every clipped update is 0: the applied average is pure noise
            diffs.append((run.w[iset] - w_prev[iset]) * m)
        diffs = np.concatenate(diffs)
        assert abs(np.std(diffs) - s * sigma) / (s * sigma) < 0.10

    def test_epsilon_trace_matches_accountant(self, small_setup):
        train, test, public, part, arch = small_setup
        cfg = make_config(arch, "fl-top-dp", rounds=3)
        trace, _ = run_experiment(cfg, train, part, test, public=public)
        for rm in trace:
            expected, _ = privacy.epsilon(privacy.AccountantQuery(
                cfg.sigma, cfg.sampling_fraction, rm.round, cfg.delta,
                cfg.lambda_max))
            assert rm.epsilon == pytest.approx(expected, abs=1e-12)

    def test_accounting_uses_the_realised_sampling_rate(self, small_setup):
        # c = 0.03 of N = 50 samples m = 2 clients a round: q = m/N = 0.04.
        train, test, _, part, arch = small_setup
        cfg = make_config(arch, "fl-std-dp", sampling_fraction=0.03)
        assert cfg.cohort_size == 2 and cfg.sampling_rate == 0.04
        run = FederatedRun(cfg, train, part, test=test)
        run.round_index = 200
        assert run.epsilon_so_far() == pytest.approx(2.337, abs=5e-4)
        nominal, _ = privacy.epsilon(privacy.AccountantQuery(
            cfg.sigma, 0.03, 200, cfg.delta, cfg.lambda_max))
        assert nominal == pytest.approx(1.749, abs=5e-4)
        full = bandwidth_cost(1.0, arch.n_params, 200, 0.04, False)
        assert run.costs() == (full, full)

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_rounds_match_dense_oracle(self, small_setup, monkeypatch, scheme):
        # Each local update equals dense-gradient SGD over the index set when
        # the scheme pins and over every coordinate otherwise; without DP the
        # new global model equals the per-family update rule on their mean.
        train, test, public, part, arch = small_setup
        cfg = make_config(arch, scheme)
        run = FederatedRun(cfg, train, part, test=test, public=public)
        calls = []

        def spy(cohort, t, index_set):
            for group, stack in FederatedRun._local_updates(run, cohort, t, index_set):
                # Copies: the DP pass clips and noises the stack in place.
                calls.extend((cid, t, index_set, upd.copy())
                             for cid, upd in zip(cohort[group], stack, strict=True))
                yield group, stack

        monkeypatch.setattr(run, "_local_updates", spy)
        for _ in range(3):
            w_prev = run.w.copy()
            calls.clear()
            run.run_round()
            assert len(calls) == cfg.cohort_size
            oracle_updates = []
            for cid, t, index_set, upd in calls:
                shard = part[cid]
                idx = index_set
                trained = idx if cfg.spec.reinit_nonselected else np.arange(run.n)
                local = reference_topk_sgd(
                    train.inputs[shard], to_targets(train.labels[shard], arch),
                    w_prev, run.w0, arch, cfg.local_steps, trained,
                    cfg.learning_rate, cfg.batch_size,
                    [100, cfg.seeds.sampling, t, int(cid)])
                oracle_updates.append(local[idx] - w_prev[idx])
                assert np.array_equal(upd, oracle_updates[-1])
            if not cfg.spec.dp:
                expected = reference_global_update(
                    cfg.spec, w_prev, run.w0, calls[0][2],
                    sum(oracle_updates) / cfg.cohort_size)
                assert np.array_equal(run.w, expected)

    def test_opposite_updates_cancel(self, small_setup, monkeypatch):
        train, test, public, part, arch = small_setup
        cfg = make_config(arch, "fl-top", sampling_fraction=0.04)  # 2 clients
        run = FederatedRun(cfg, train, part, test=test, public=public)
        k = len(run.index_set)
        u = np.arange(1, k + 1, dtype=np.float64)
        updates = iter([u, -u])
        monkeypatch.setattr(run, "_local_updates", lambda cohort, t, s: [
            (slice(None), np.array([next(updates) for _ in cohort]))])
        w_prev = run.w.copy()
        run.run_round()
        assert np.array_equal(run.w, w_prev)


class TestLayer0Cache:
    def test_readme_config_stays_dense(self, small_setup):
        train, test, public, part, arch = small_setup
        for scheme in sorted(SCHEMES):
            run = FederatedRun(make_config(arch, scheme), train, part, test=test,
                               public=public)
            run.run_round()
            run.evaluate()
            assert run._layer0_cols is None, scheme
            assert run._test_layer0 is None, scheme
            assert run._train_layer0 is None, scheme

    @pytest.mark.parametrize("scheme,trains_cached", [
        ("fl-top", True), ("fl-top-dp", True), ("fl-top-bis", False)])
    def test_wide_topk_run_takes_the_cache(self, wide_setup, monkeypatch,
                                           scheme, trains_cached):
        train, test, public, part, arch = wide_setup
        cfg = make_config(arch, scheme, n_clients=20, sampling_fraction=0.1,
                          ratio=0.005)
        runs = [FederatedRun(cfg, train, part, test=test, public=public)]
        with monkeypatch.context() as m:
            # The same run with the predicate refusing every set.
            m.setattr(nn, "layer0_columns", lambda arch, indices: None)
            runs.append(FederatedRun(cfg, train, part, test=test, public=public))
        cached, dense = runs
        assert cached._layer0_cols is not None and dense._layer0_cols is None
        for _ in range(3):
            scores = []
            for run in runs:
                run.run_round()
                scores.append(run.evaluate())
            # Within rounding: the tolerance of the nn-level oracle tests.
            np.testing.assert_allclose(cached.w, dense.w, rtol=1e-10, atol=1e-10)
            # Accuracy and balanced accuracy; AUROC is nan for 10 classes.
            assert scores[0][:2] == scores[1][:2]
        assert cached._test_layer0 is not None
        assert (cached._train_layer0 is not None) == trains_cached

    def test_each_dataset_is_cached_once(self, wide_setup, monkeypatch):
        # fl-top-dp at r = 0.005 caches layer 0 once for the training set,
        # on the first round, and once for the test set, on the first
        # evaluation, whichever clients the rounds draw; not at set-up.
        train, test, public, part, arch = wide_setup
        cfg = make_config(arch, "fl-top-dp", n_clients=20, sampling_fraction=0.25,
                          ratio=0.005)
        calls = []
        layer0_cache = nn.layer0_cache

        def spy(w0, arch, x, cols):
            calls.append(x)
            return layer0_cache(w0, arch, x, cols)

        monkeypatch.setattr(nn, "layer0_cache", spy)
        run = FederatedRun(cfg, train, part, test=test, public=public)
        assert calls == []
        for _ in range(3):
            run.run_round()
            run.evaluate()
        assert len(calls) == 2
        assert calls[0] is train.inputs and calls[1] is test.inputs

    @pytest.mark.parametrize("scheme", FIXED_SET_SCHEMES)
    def test_model_stays_at_w0_off_the_set(self, wide_setup, scheme):
        # The test-set cache holds layer 0 at w0, so it is exact only while
        # every coordinate outside the fixed set is still w0's.
        train, test, public, part, arch = wide_setup
        cfg = make_config(arch, scheme, n_clients=20, sampling_fraction=0.1,
                          ratio=0.005)
        run = FederatedRun(cfg, train, part, test=test, public=public)
        for _ in range(3):
            run.run_round()
        off = np.setdiff1d(np.arange(run.n), run.index_set)
        assert np.array_equal(run.w[off], run.w0[off])
        assert not np.array_equal(run.w, run.w0)


class TestCohortGroups:
    # A budget of 0 bytes trains one client a call; an unbounded one trains
    # the whole cohort in one call. Either way each client's update, and so
    # every trace byte, is the same.
    BUDGETS = (0, 1 << 62)

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_trace_does_not_depend_on_group_size(self, small_setup, monkeypatch,
                                                 topk_sgd_calls, scheme):
        train, test, public, part, arch = small_setup
        cfg = make_config(arch, scheme)
        m = cfg.cohort_size
        traces = []
        for budget, group in zip(self.BUDGETS, (1, m)):
            monkeypatch.setattr(federation, "COHORT_GROUP_BYTES", budget)
            topk_sgd_calls.clear()
            trace, _ = run_experiment(cfg, train, part, test, public=public)
            assert len(topk_sgd_calls) == cfg.rounds * m // group
            traces.append(trace_to_csv(trace))
        assert traces[0] == traces[1]

    @pytest.mark.parametrize("scheme", ["fl-top", "fl-top-dp"])
    def test_cached_run_does_not_depend_on_group_size(self, wide_setup,
                                                      monkeypatch, scheme):
        # Pinned wide runs train through stacked layer-0 caches.
        train, test, public, part, arch = wide_setup
        cfg = make_config(arch, scheme, n_clients=20, sampling_fraction=0.25,
                          ratio=0.005)
        finals = []
        for budget in self.BUDGETS:
            monkeypatch.setattr(federation, "COHORT_GROUP_BYTES", budget)
            run = FederatedRun(cfg, train, part, test=test, public=public)
            assert run._train_layer0 is not None
            for _ in range(3):
                run.run_round()
            finals.append((run.w, run.evaluate()[:2]))
        assert np.array_equal(finals[0][0], finals[1][0])
        assert finals[0][1] == finals[1][1]


class TestDPRound:
    """A DP round clips, noises, encodes and masks each training group's
    stack at once, into a running secure sum; the result must equal the
    client-by-client loop of `oracles.reference_dp_sum` bit for bit."""

    @pytest.mark.parametrize("budget", TestCohortGroups.BUDGETS)
    @pytest.mark.parametrize("scheme, overrides", [(s, {}) for s in DP_SCHEMES] + [
        # A clamp range of 16 against noise of std 49: many values clamp.
        ("fl-top-dp", {"frac_bits": 55, "clip": 100.0})])
    def test_round_matches_the_per_client_loop(self, small_setup, monkeypatch,
                                               scheme, overrides, budget):
        train, test, public, part, arch = small_setup
        monkeypatch.setattr(federation, "COHORT_GROUP_BYTES", budget)
        cfg = make_config(arch, scheme, **overrides)
        run = FederatedRun(cfg, train, part, test=test, public=public)
        trained = []

        def spy(cohort, t, index_set):
            trained.append([])
            for group, stack in FederatedRun._local_updates(run, cohort, t, index_set):
                trained[-1].extend(stack.copy())
                yield group, stack

        monkeypatch.setattr(run, "_local_updates", spy)
        clamps = 0
        for t in range(1, 4):
            w_prev = run.w.copy()
            cohort = run.run_round()
            total, clamped = reference_dp_sum(cfg, run.codec, t, cohort, trained[-1])
            clamps += clamped
            assert np.array_equal(run.w, reference_global_update(
                cfg.spec, w_prev, run.w0, run._round_index_set(t),
                total / cfg.cohort_size))
            assert run.clamp_total == clamps
        assert (clamps > 0) == bool(overrides)

    def dp_run(self, small_setup, **overrides):
        train, test, public, part, arch = small_setup
        return FederatedRun(make_config(arch, "fl-top-dp", **overrides), train, part,
                            test=test, public=public)

    @staticmethod
    def stub_updates(monkeypatch, run, fill):
        """Every client's update zero but where `fill(stack)` sets it."""
        def updates(cohort, t, index_set):
            stack = np.zeros((len(cohort), len(index_set)))
            fill(stack)
            return [(slice(None), stack)]

        monkeypatch.setattr(run, "_local_updates", updates)

    def test_missing_client_raises(self, small_setup, monkeypatch):
        run = self.dp_run(small_setup)
        local_updates = run._local_updates
        monkeypatch.setattr(run, "_local_updates",
                            lambda cohort, t, s: local_updates(cohort[:-1], t, s))
        with pytest.raises(ProtocolError):
            run.run_round()

    def test_cohort_larger_than_codec_raises(self, small_setup):
        run = self.dp_run(small_setup)
        run.codec = secure_agg.FixedPointCodec(
            run.config.frac_bits, cohort_size=run.config.cohort_size - 1)
        with pytest.raises(EncodingOverflowError):
            run.run_round()

    def test_nan_update_raises(self, small_setup, monkeypatch):
        run = self.dp_run(small_setup)
        self.stub_updates(monkeypatch, run, lambda stack: stack[3, :1].fill(np.nan))
        with pytest.raises(EncodingOverflowError, match="^1 NaN entries"):
            run.run_round()

    def test_clamped_values_reach_clamp_total(self, small_setup, monkeypatch):
        # Within a clip of 2^31 and under noise of std 7e-4, an update of
        # 2^30 is beyond the clamp range of a cohort of 10 at f = 32, 2^27.
        run = self.dp_run(small_setup, clip=2.0 ** 31, sigma=1e-12)
        m = run.config.cohort_size
        assert run.codec.clamp_range == 2.0 ** 27
        self.stub_updates(monkeypatch, run, lambda stack: stack[:, 0].fill(2.0 ** 30))
        w_prev = run.w.copy()
        run.run_round()
        assert run.clamp_total == m
        first = run.index_set[0]
        assert run.w[first] == w_prev[first] + run.codec.clamp_range

    @pytest.mark.parametrize("budget", TestCohortGroups.BUDGETS)
    def test_masks_cancel_and_are_make_masks_words(self, small_setup, monkeypatch,
                                                   budget):
        monkeypatch.setattr(federation, "COHORT_GROUP_BYTES", budget)
        run = self.dp_run(small_setup)
        dealt = []
        masks = secure_agg.SecureSum.masks

        def spy(self, count):
            dealt.append(masks(self, count).copy())
            return dealt[-1]

        monkeypatch.setattr(secure_agg.SecureSum, "masks", spy)
        run.run_round()
        m, k = run.config.cohort_size, len(run.index_set)
        assert len(dealt) == (m if budget == 0 else 1)
        words = np.concatenate(dealt)
        assert np.all(words.sum(axis=0, dtype=np.uint64) == 0)
        assert np.array_equal(words, make_masks(m, k, [run.config.seeds.masks, 1]))


class TestDrawAhead:
    """A DP round's noise and masks read no data, so a run may draw them on
    the draw thread, a round ahead. A floor of 0 sends every group there,
    one of 2^62 keeps every group inline; neither may change a byte."""
    FLOORS = (0, 1 << 62)

    @staticmethod
    def draw_threads(monkeypatch):
        """The name of the thread of every `privacy._noise` call."""
        names = []
        noise = privacy._noise

        def spy(*args):
            names.append(threading.current_thread().name)
            return noise(*args)

        monkeypatch.setattr(privacy, "_noise", spy)
        return names

    @pytest.mark.parametrize("scheme", DP_SCHEMES)
    def test_trace_does_not_depend_on_where_draws_run(self, small_setup,
                                                      monkeypatch, scheme):
        train, test, public, part, arch = small_setup
        cfg = make_config(arch, scheme)
        names = self.draw_threads(monkeypatch)
        run_round = FederatedRun.run_round

        def discarding(run):
            # Each round's queued successor is discarded and drawn again.
            cohort = run_round(run)
            run._ahead = None
            return cohort

        traces = set()
        for budget in TestCohortGroups.BUDGETS:
            monkeypatch.setattr(federation, "COHORT_GROUP_BYTES", budget)
            for floor, discard in [(1 << 62, False), (0, False), (0, True)]:
                monkeypatch.setattr(federation, "DRAW_AHEAD_MIN_VALUES", floor)
                monkeypatch.setattr(FederatedRun, "run_round",
                                    discarding if discard else run_round)
                names.clear()
                trace, _ = run_experiment(cfg, train, part, test, public=public)
                traces.add(trace_to_csv(trace))
                main = threading.current_thread().name
                assert len(names) >= cfg.rounds
                assert all((name == main) == (floor > 0) for name in names)
        assert len(traces) == 1

    @pytest.mark.parametrize("floor", FLOORS)
    @pytest.mark.parametrize("budget", TestCohortGroups.BUDGETS)
    def test_missing_client_raises(self, small_setup, monkeypatch, floor, budget):
        monkeypatch.setattr(federation, "DRAW_AHEAD_MIN_VALUES", floor)
        monkeypatch.setattr(federation, "COHORT_GROUP_BYTES", budget)
        train, test, public, part, arch = small_setup
        run = FederatedRun(make_config(arch, "fl-top-dp"), train, part, test=test,
                           public=public)
        local_updates = run._local_updates
        monkeypatch.setattr(run, "_local_updates",
                            lambda cohort, t, s: local_updates(cohort[:-1], t, s))
        with pytest.raises(ProtocolError):
            run.run_round()

    @pytest.mark.parametrize("floor", FLOORS, ids=["ahead", "inline"])
    @pytest.mark.parametrize("budget, sizes", [(1 << 62, [3, 7]), (0, [4, 6]),
                                               (1 << 62, [10, 0])],
                             ids=["10-as-3-7", "1s-as-4-6", "10-as-10-0"])
    def test_updates_in_other_groups_raise(self, small_setup, monkeypatch, floor,
                                           budget, sizes):
        # Each stack takes the draws of the run's next group (one of 10, or
        # 10 of 1), so stacks in other groups are a protocol error. The
        # round is not counted, and drawn again it gives a fresh run's model.
        train, test, public, part, arch = small_setup
        monkeypatch.setattr(federation, "DRAW_AHEAD_MIN_VALUES", floor)
        monkeypatch.setattr(federation, "COHORT_GROUP_BYTES", budget)
        cfg = make_config(arch, "fl-top-dp")
        run = FederatedRun(cfg, train, part, test=test, public=public)
        local_updates, regroup = run._local_updates, [True]

        def regrouped(cohort, t, index_set):
            groups = list(local_updates(cohort, t, index_set))
            if not regroup:
                return groups
            stack = np.concatenate([updates for _, updates in groups])
            bounds = np.cumsum([0] + sizes)
            return [(slice(a, b), stack[a:b]) for a, b in zip(bounds, bounds[1:])]

        monkeypatch.setattr(run, "_local_updates", regrouped)
        with pytest.raises(ProtocolError):
            run.run_round()
        assert run.round_index == 0
        regroup.clear()
        run.run_round()
        fresh = FederatedRun(cfg, train, part, test=test, public=public)
        fresh.run_round()
        assert np.array_equal(run.w, fresh.w)

    class Failed(Exception):
        pass

    @pytest.mark.parametrize("failing_round", [1, 2])
    @pytest.mark.parametrize("budget", TestCohortGroups.BUDGETS)
    def test_draw_thread_error_reaches_the_caller(self, small_setup, monkeypatch,
                                                  failing_round, budget):
        # Round 2 is drawn while round 1 runs; its error waits for round 2.
        train, test, public, part, arch = small_setup
        monkeypatch.setattr(federation, "DRAW_AHEAD_MIN_VALUES", 0)
        monkeypatch.setattr(federation, "COHORT_GROUP_BYTES", budget)
        cfg = make_config(arch, "fl-top-dp", rounds=3)
        noise = privacy._noise
        calls = []

        def failing(seeds, *args):  # a row's seed words are [noise, t, client]
            calls.append(threading.current_thread().name)
            if seeds[-1][1] == failing_round:
                raise self.Failed("no noise")
            return noise(seeds, *args)

        monkeypatch.setattr(privacy, "_noise", failing)
        run = FederatedRun(cfg, train, part, test=test, public=public)
        for _ in range(failing_round - 1):
            run.run_round()
        with pytest.raises(self.Failed, match="no noise"):
            run.run_round()
        assert run.round_index == failing_round - 1
        assert threading.current_thread().name not in calls
        monkeypatch.setattr(privacy, "_noise", noise)
        run.run_round()  # the failed round, drawn again
        fresh = FederatedRun(cfg, train, part, test=test, public=public)
        for _ in range(failing_round):
            fresh.run_round()
        assert np.array_equal(run.w, fresh.w)

    def test_draw_thread_ends_with_its_run(self, small_setup, monkeypatch):
        train, test, public, part, arch = small_setup
        monkeypatch.setattr(federation, "DRAW_AHEAD_MIN_VALUES", 0)
        before = set(threading.enumerate())
        run = FederatedRun(make_config(arch, "fl-std-dp"), train, part, test=test,
                           public=public)
        run.run_round()
        assert run._ahead is not None  # round 2's, submitted as round 1 ended
        started = set(threading.enumerate()) - before
        assert len(started) == 1
        assert all(thread.name.startswith("fltop-draws") and not thread.daemon
                   for thread in started)
        del run
        for thread in started:
            thread.join(timeout=10)
            assert not thread.is_alive()

    def test_interleaved_runs_under_fast_switching(self, small_setup, monkeypatch):
        # Four runs, so four draw threads on fewer cores, each dealing masks
        # while its run adds into the same secure sums, at a switch
        # interval of a microsecond: every model must be the inline one.
        train, test, public, part, arch = small_setup
        cfg = make_config(arch, "fl-std-dp", rounds=4)

        def models(floor):
            monkeypatch.setattr(federation, "DRAW_AHEAD_MIN_VALUES", floor)
            runs = [FederatedRun(cfg, train, part, test=test, public=public)
                    for _ in range(4)]
            for _ in range(cfg.rounds):
                for run in runs:
                    run.run_round()
            return [run.w for run in runs]

        inline = models(1 << 62)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ahead = models(0)
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(w, inline[0]) for w in inline + ahead)


class TestExperiment:
    def test_deterministic_trace(self, small_setup):
        train, test, public, part, arch = small_setup
        cfg = make_config(arch, "fl-top-dp", rounds=3)
        t1, _ = run_experiment(cfg, train, part, test, public=public)
        t2, _ = run_experiment(cfg, train, part, test, public=public)
        assert trace_to_csv(t1) == trace_to_csv(t2)

    def test_bandwidth_columns_match_formula(self, small_setup):
        train, test, public, part, arch = small_setup
        for scheme, down_comp in [("fl-top", True), ("fl-basic", False),
                                  ("fl-bas-2", False), ("fl-bas-3", True)]:
            cfg = make_config(arch, scheme, rounds=3)
            trace, _ = run_experiment(cfg, train, part, test, public=public)
            r = cfg.k(arch.n_params) / arch.n_params
            for rm in trace:
                assert rm.down_kb == bandwidth_cost(
                    r, arch.n_params, rm.round, cfg.sampling_fraction, down_comp)
                assert rm.up_kb == bandwidth_cost(
                    r, arch.n_params, rm.round, cfg.sampling_fraction, True)

    def test_cumulative_columns_nondecreasing(self, small_setup):
        train, test, public, part, arch = small_setup
        cfg = make_config(arch, "fl-top-dp", rounds=4)
        trace, _ = run_experiment(cfg, train, part, test, public=public)
        for a, b in zip(trace, trace[1:]):
            assert b.down_kb >= a.down_kb
            assert b.up_kb >= a.up_kb
            assert b.epsilon >= a.epsilon

    def test_fl_top_learns(self, small_setup):
        train, test, public, part, arch = small_setup
        cfg = make_config(arch, "fl-top", rounds=30)
        _, summary = run_experiment(cfg, train, part, test, public=public)
        assert summary["best_value"] >= 0.8
