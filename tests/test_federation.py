import functools
import importlib
import inspect
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

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

    @pytest.mark.parametrize("args", [(0.5, 0, 1, 0.1), (0.5, 1000, -1, 0.1),
                                      (0.5, 1000, 1, 0.0)])
    def test_bad_arguments_are_internal_errors(self, args):
        # The arguments come from a validated config, so a bad one is a bug,
        # not a usage error: not a ConfigError.
        with pytest.raises(ValueError, match="must be positive") as raised:
            bandwidth_cost(*args, True)
        assert not isinstance(raised.value, ConfigError)


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

    @settings(deadline=None)
    @given(st.integers(1, 6).flatmap(lambda width: st.lists(
        st.lists(st.sampled_from([0, 2 ** 32 - 1]) | st.integers(0, 2 ** 32 - 1),
                 min_size=width, max_size=width), min_size=1, max_size=12)))
    def test_group_seeding_matches_default_rng(self, rows):
        # One seeding pass over a group's (G, w) rows gives each row the
        # generator that `np.random.default_rng(row)` gives, bit for bit.
        rows = np.array(rows, dtype=np.uint32)
        gens = federation._generators(rows)
        assert len(gens) == len(rows)
        for gen, row in zip(gens, rows, strict=True):
            ref = np.random.default_rng(row)
            assert np.array_equal(gen.standard_normal(3), ref.standard_normal(3))
            assert np.array_equal(gen.integers(0, 2 ** 64, 3, dtype=np.uint64),
                                  ref.integers(0, 2 ** 64, 3, dtype=np.uint64))
            assert np.array_equal(gen.permutation(10), ref.permutation(10))


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
            upd = federation.local_update(
                cfg.spec, train.inputs, to_targets(train.labels, arch), run.w, run.w0,
                arch, iset, cfg.local_steps, cfg.learning_rate, cfg.batch_size,
                [100, cfg.seeds.sampling, 1, 0], rows=part[0])
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
        local_update, calls = federation.local_update, []

        def spy(*args):  # args[6] is the index set
            stack = local_update(*args)
            # Copies: the DP pass clips and noises the stack in place.
            calls.extend((args[6], upd.copy()) for upd in stack)
            return stack

        monkeypatch.setattr(federation, "local_update", spy)
        for t in range(1, 4):
            w_prev = run.w.copy()
            calls.clear()
            cohort = run.run_round()
            assert len(calls) == cfg.cohort_size
            oracle_updates = []
            for cid, (index_set, upd) in zip(cohort, calls, strict=True):
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
                    cfg.spec, w_prev, run.w0, calls[0][0],
                    sum(oracle_updates) / cfg.cohort_size)
                assert np.array_equal(run.w, expected)

    def test_opposite_updates_cancel(self, small_setup, monkeypatch):
        train, test, public, part, arch = small_setup
        cfg = make_config(arch, "fl-top", sampling_fraction=0.04)  # 2 clients
        run = FederatedRun(cfg, train, part, test=test, public=public)
        k = len(run.index_set)
        u = np.arange(1, k + 1, dtype=np.float64)
        updates = iter([u, -u])
        monkeypatch.setattr(federation, "local_update", lambda *args: np.array(
            [next(updates) for _ in args[-1]]))  # one update a row of shards
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
            assert run._test_view is None, scheme  # nothing gathered
            assert run._train_view is None, scheme

    @pytest.mark.parametrize("scheme,trains_cached", [
        ("fl-top", True), ("fl-top-dp", True), ("fl-top-bis", False)])
    def test_wide_topk_run_takes_the_cache(self, wide_setup, monkeypatch,
                                           scheme, trains_cached):
        train, test, public, part, arch = wide_setup
        cfg = make_config(arch, scheme, n_clients=20, sampling_fraction=0.1,
                          ratio=0.005)
        runs = [FederatedRun(cfg, train, part, test=test, public=public)]
        with monkeypatch.context() as m:
            # The same run with the predicate refusing every set, views
            # included, which are built on first use.
            m.setattr(nn, "layer0_columns", lambda arch, indices: None)
            runs.append(FederatedRun(cfg, train, part, test=test, public=public))
            assert runs[1]._train_view is None and runs[1]._test_view is None
        cached, dense = runs
        for _ in range(3):
            scores = []
            for run in runs:
                run.run_round()
                scores.append(run.evaluate())
            # Within rounding: the tolerance of the nn-level oracle tests.
            np.testing.assert_allclose(cached.w, dense.w, rtol=1e-10, atol=1e-10)
            # Accuracy and balanced accuracy; AUROC is nan for 10 classes.
            assert scores[0][:2] == scores[1][:2]
        assert cached._test_view is not None
        assert (cached._train_view is not None) == trains_cached

    def test_each_dataset_is_cached_once(self, wide_setup, monkeypatch):
        # fl-top-dp at r = 0.005 builds the training set's layer-0 view
        # once, on the first round, and the test set's once, on the first
        # evaluation, whichever clients the rounds draw; not at set-up. Each
        # view holds only the input columns of the set's layer-0 weights.
        train, test, public, part, arch = wide_setup
        cfg = make_config(arch, "fl-top-dp", n_clients=20, sampling_fraction=0.25,
                          ratio=0.005)
        calls, layer0_view = [], nn.layer0_view

        def spy(w0, arch, x, indices):
            calls.append((x, indices))
            return layer0_view(w0, arch, x, indices)

        monkeypatch.setattr(nn, "layer0_view", spy)
        run = FederatedRun(cfg, train, part, test=test, public=public)
        assert calls == []
        run.run_round()
        assert len(calls) == 1
        for _ in range(3):
            run.evaluate()
            run.run_round()
        assert len(calls) == 2
        assert calls[0][0] is train.inputs and calls[1][0] is test.inputs
        assert all(indices is run.index_set for _, indices in calls)
        for view in (run._train_view, run._test_view):
            assert view[0].shape[1] < arch.input_width

    @pytest.mark.parametrize("scheme", ["fl-top-dp", "fl-top-bis"])
    def test_evaluate_reads_no_full_width_inputs(self, wide_setup, monkeypatch,
                                                 scheme):
        # Past the first evaluation, scores read only the gathered columns:
        # test inputs overwritten with NaN leave them equal to a twin run's.
        train, test, public, part, arch = wide_setup
        cfg = make_config(arch, scheme, n_clients=20, sampling_fraction=0.1,
                          ratio=0.005)
        blanked = data.Dataset(test.inputs.copy(), test.labels)
        run = FederatedRun(cfg, train, part, test=blanked, public=public)
        twin = FederatedRun(cfg, train, part, test=test, public=public)
        scores, predict = [], nn.predict
        monkeypatch.setattr(nn, "predict", lambda *args: scores.append(
            predict(*args)) or scores[-1])
        for t in range(4):
            for r in (run, twin):
                r.run_round()
                r.evaluate()
            if t == 0:
                blanked.inputs[...] = np.nan
            assert np.all(np.isfinite(scores[-2]))
            assert np.array_equal(scores[-2], scores[-1])
        assert len(scores) == 8
        assert run._test_view is not None

    @pytest.mark.parametrize("scheme", ["fl-top", "fl-top-dp"])
    def test_training_reads_no_full_width_inputs(self, wide_setup, scheme):
        # Past the first round, a pinned run trains on its view's gathered
        # columns only: training inputs overwritten with NaN leave the model
        # equal to a twin run's, bit for bit.
        train, test, public, part, arch = wide_setup
        cfg = make_config(arch, scheme, n_clients=20, sampling_fraction=0.25,
                          ratio=0.005)
        blanked = data.Dataset(train.inputs.copy(), train.labels)
        run = FederatedRun(cfg, blanked, part, test=test, public=public)
        twin = FederatedRun(cfg, train, part, test=test, public=public)
        for t in range(4):
            for r in (run, twin):
                r.run_round()
            if t == 0:
                blanked.inputs[...] = np.nan
            assert np.all(np.isfinite(run.w))
            assert np.array_equal(run.w, twin.w)
        assert run._train_view is not None

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


class TestInputsStayUnwritten:
    """Training and scoring write nothing they are given: every array below
    is read-only, so numpy raises on any write into it."""

    @pytest.mark.parametrize("group", [None, 3])
    @pytest.mark.parametrize("path, scheme", [
        ("dense pinned", "fl-top"), ("full set", "fl-std"), ("layer-0 view", "fl-top")])
    def test_nothing_given_is_written(self, small_setup, wide_setup, path, scheme,
                                      group):
        wide = path == "layer-0 view"
        train, _, public, part, arch = wide_setup if wide else small_setup
        cfg = make_config(arch, scheme, ratio=0.005 if wide else 0.05)
        w0 = nn.init_model(arch, 0)
        index_set = federation.initial_index_set(cfg, w0, public)
        w = w0.copy()
        w[index_set] += 0.01
        x, y = train.inputs.copy(), to_targets(train.labels, arch)
        view = nn.layer0_view(w0, arch, x, index_set) if scheme == "fl-top" else None
        assert (view is not None) == wide
        x, layer0 = view or (x, None)
        for a in (x, y, w, w0) + (view or ()):
            a.flags.writeable = False
        if group is None:
            rows, seeds = part[0], federation.seed_words(100, 1, 1, 0)
        else:
            rows = part[:group]
            seeds = federation.seed_words(100, 1, 1, ids=np.arange(group))
        # fl-std's set is `nn.full_indices(arch)`, which `topk_sgd` trains in full.
        out = nn.topk_sgd(x, y, w, w0, arch, 3, index_set, 0.3, 10, seeds, layer0, rows)
        update = federation.local_update(cfg.spec, x, y, w, w0, arch, index_set, 3,
                                         0.3, 10, seeds, layer0, rows)
        shape = (() if group is None else (group,)) + (len(index_set),)
        assert out.shape == update.shape == shape
        scores = nn.predict(w, arch, x, layer0, index_set, w0)
        assert scores.shape == (len(x), arch.output_width)


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
            assert run._train_view is not None
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
        local_update, trained = federation.local_update, []

        def spy(*args):
            stack = local_update(*args)
            trained.extend(stack.copy())
            return stack

        monkeypatch.setattr(federation, "local_update", spy)
        clamps = 0
        for t in range(1, 4):
            w_prev = run.w.copy()
            trained.clear()
            cohort = run.run_round()
            total, clamped = reference_dp_sum(cfg, run.codec, t, cohort, trained)
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
    def stub_updates(monkeypatch, fill):
        """Every client's update zero but where `fill(stack)` sets it; at
        the default budget one group trains the whole cohort."""
        def updates(*args):
            index_set, rows = args[6], args[-1]
            stack = np.zeros((len(rows), len(index_set)))
            fill(stack)
            return stack

        monkeypatch.setattr(federation, "local_update", updates)

    def test_cohort_larger_than_codec_raises(self, small_setup):
        run = self.dp_run(small_setup)
        run.codec = secure_agg.FixedPointCodec(
            run.config.frac_bits, cohort_size=run.config.cohort_size - 1)
        with pytest.raises(EncodingOverflowError):
            run.run_round()

    def test_nan_update_raises(self, small_setup, monkeypatch):
        run = self.dp_run(small_setup)
        self.stub_updates(monkeypatch, lambda stack: stack[3, :1].fill(np.nan))
        with pytest.raises(EncodingOverflowError, match="^1 NaN entries"):
            run.run_round()

    def test_clamped_values_reach_clamp_total(self, small_setup, monkeypatch):
        # Within a clip of 2^31 and under noise of std 7e-4, an update of
        # 2^30 is beyond the clamp range of a cohort of 10 at f = 32, 2^27.
        run = self.dp_run(small_setup, clip=2.0 ** 31, sigma=1e-12)
        m = run.config.cohort_size
        assert run.codec.clamp_range == 2.0 ** 27
        self.stub_updates(monkeypatch, lambda stack: stack[:, 0].fill(2.0 ** 30))
        w_prev = run.w.copy()
        run.run_round()
        assert run.clamp_total == m
        first = run.index_set[0]
        assert run.w[first] == w_prev[first] + run.codec.clamp_range

    def test_failed_round_counts_no_clamps(self, small_setup, monkeypatch):
        # Each client's update clamps once, as above, and trains in a group
        # of its own. The cohort's last update is dropped once, so the round
        # fails after the other groups are summed; run again, it counts each
        # client's clamp once, as a fresh run does.
        monkeypatch.setattr(federation, "COHORT_GROUP_BYTES", 0)
        run = self.dp_run(small_setup, clip=2.0 ** 31, sigma=1e-12)
        m = run.config.cohort_size
        trained = []

        def updates(*args):
            index_set, rows = args[6], args[-1]
            stack = np.zeros((len(rows), len(index_set)))
            stack[:, 0] = 2.0 ** 30
            trained.extend(rows)
            return stack[:-1] if len(trained) == m else stack

        monkeypatch.setattr(federation, "local_update", updates)
        with pytest.raises(ProtocolError):
            run.run_round()
        assert run.clamp_total == 0
        run.run_round()
        assert run.clamp_total == m

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
            run._next = None
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
        # The cohort's last update never comes, so the last group's stack is
        # a row short of its draws. The round is not counted, and run again
        # it gives a fresh run's model.
        monkeypatch.setattr(federation, "DRAW_AHEAD_MIN_VALUES", floor)
        monkeypatch.setattr(federation, "COHORT_GROUP_BYTES", budget)
        train, test, public, part, arch = small_setup
        cfg = make_config(arch, "fl-top-dp")
        run = FederatedRun(cfg, train, part, test=test, public=public)
        local_update, trained = federation.local_update, []

        def missing_last(*args):
            stack = local_update(*args)
            trained.extend(stack)
            return stack[:-1] if len(trained) == cfg.cohort_size else stack

        monkeypatch.setattr(federation, "local_update", missing_last)
        with pytest.raises(ProtocolError):
            run.run_round()
        assert run.round_index == 0
        monkeypatch.setattr(federation, "local_update", local_update)
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
        # A row's generator is that of the list seed [noise, t, client].
        failing_states = [np.random.default_rng([cfg.seeds.noise, failing_round, cid])
                          .bit_generator.state for cid in range(len(part))]

        def failing(seeds, *args):
            calls.append(threading.current_thread().name)
            if seeds[-1].bit_generator.state in failing_states:
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
        assert run._next is not None  # round 2's, submitted as round 1 ended
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


class TestRoundPlan:
    """`_plan(t)` gives round t's cohort, its groups and, under DP, their
    draws and the round's secure sum; each round is planned as the one
    before it ends."""

    @pytest.mark.parametrize("scheme", ["fl-top", "fl-top-dp"])
    @pytest.mark.parametrize("budget", TestCohortGroups.BUDGETS)
    def test_groups_tile_the_cohort(self, small_setup, monkeypatch, scheme, budget):
        train, test, public, part, arch = small_setup
        monkeypatch.setattr(federation, "COHORT_GROUP_BYTES", budget)
        cfg = make_config(arch, scheme)
        run = FederatedRun(cfg, train, part, test=test, public=public)
        m = cfg.cohort_size
        for size in (run._group, 1, 3, m, m + 1):
            run._group = size
            cohort, groups, secure_sum = run._plan(1)
            assert len(cohort) == m
            tiles = [range(m)[group] for group, _ in groups]
            assert len(tiles) == -(-m // size)
            assert [i for tile in tiles for i in tile] == list(range(m))
            assert max(map(len, tiles)) - min(map(len, tiles)) <= 1
            assert (secure_sum is None) != cfg.spec.dp
            assert all((draw is None) != cfg.spec.dp for _, draw in groups)

    @pytest.mark.parametrize("scheme", ["fl-top", "fl-top-dp"])
    def test_next_round_is_planned_as_a_round_ends(self, small_setup, monkeypatch,
                                                   scheme):
        train, test, public, part, arch = small_setup
        run = FederatedRun(make_config(arch, scheme, rounds=2), train, part,
                           test=test, public=public)
        planned, plan = [], FederatedRun._plan
        monkeypatch.setattr(FederatedRun, "_plan",
                            lambda self, t: planned.append(t) or plan(self, t))
        run.run_round()
        assert planned == [1, 2]
        queued = run._next[0]
        assert run.run_round() is queued  # round 2 trains the queued cohort
        assert planned == [1, 2] and run._next is None
        run.run_round()  # past `rounds`: planned when run, and nothing queued
        assert planned == [1, 2, 3] and run._next is None

    @pytest.mark.parametrize("size", [1, 3, 10])
    def test_draws_go_ahead_from_the_largest_group(self, small_setup, monkeypatch,
                                                   size):
        # With G = 3 the cohort of 10 trains as 2, 3, 2, 3: the largest
        # group's G·K, not the smallest's, sets where the draws run.
        train, test, public, part, arch = small_setup
        cfg = make_config(arch, "fl-top-dp")
        run = FederatedRun(cfg, train, part, test=test, public=public)
        run._group = size
        names = TestDrawAhead.draw_threads(monkeypatch)
        largest = -(-cfg.cohort_size // -(-cfg.cohort_size // size)) * cfg.k(run.n)
        for floor, ahead in [(largest, True), (largest + 1, False)]:
            monkeypatch.setattr(federation, "DRAW_AHEAD_MIN_VALUES", floor)
            names.clear()
            _, groups, _ = run._plan(1)
            for _, draw in groups:
                draw()
            assert len(names) == len(groups)
            assert all(name.startswith("fltop-draws") == ahead for name in names)


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

    def test_run_without_a_test_set_is_refused(self, small_setup, monkeypatch):
        # Every round is scored on the test set, so a run without one is
        # refused before it trains a round, and so is evaluating one.
        train, test, public, part, arch = small_setup
        cfg = make_config(arch, "fl-top-dp", rounds=2)
        rounds, run_round = [], FederatedRun.run_round
        monkeypatch.setattr(FederatedRun, "run_round",
                            lambda run: rounds.append(run) or run_round(run))
        with pytest.raises(ValueError, match="test set"):
            run_experiment(cfg, train, part, None, public=public)
        assert rounds == []
        run = FederatedRun(cfg, train, part, public=public)
        run.run_round()
        with pytest.raises(ValueError, match="test set"):
            run.evaluate()


@pytest.fixture
def scores_ahead(small_setup, monkeypatch):
    """The tier-1 fixture with every Top-K set's test view built, so a
    Top-K run whose draws run inline scores on its worker; and the thread
    of every scoring pass the test makes, `nn.predict`'s included."""
    monkeypatch.setattr(nn, "LAYER0_CACHE_MIN_SAVED", 0)
    threads, predictor = [], nn.predictor

    def spy(*args):
        forward = predictor(*args)

        def scored():
            threads.append(threading.current_thread())
            return forward()

        return scored

    monkeypatch.setattr(nn, "predictor", spy)
    return small_setup, threads


class TestScoresAhead:
    """Where a run reads its test set through a layer-0 view and its draws
    run inline, `run_experiment` scores round t on the run's worker while
    round t + 1 trains, and collects the scores after; not a byte moves."""

    @pytest.mark.parametrize("scheme", ["fl-top", "fl-top-dp", "fl-top-bis-dp"])
    def test_trace_does_not_depend_on_where_scores_run(self, scores_ahead,
                                                       monkeypatch, scheme):
        (train, test, public, part, arch), threads = scores_ahead
        cfg = make_config(arch, scheme)
        assert FederatedRun(cfg, train, part, test=test, public=public)._scores_ahead()
        traces = []
        for ahead in (True, False):
            monkeypatch.setattr(FederatedRun, "_scores_ahead", lambda run: ahead)
            threads.clear()
            trace, summary = run_experiment(cfg, train, part, test, public=public)
            traces.append((trace_to_csv(trace), repr(summary)))  # nan != nan
            assert len(threads) == cfg.rounds
            assert all(t.name.startswith("fltop-draws") == ahead for t in threads)
        assert traces[0] == traces[1]

    def test_gate(self, scores_ahead, monkeypatch):
        (train, test, public, part, arch), _ = scores_ahead

        def gate(scheme):
            return FederatedRun(make_config(arch, scheme), train, part, test=test,
                                public=public)._scores_ahead()

        assert gate("fl-top-dp") and gate("fl-top")
        assert not gate("fl-std-dp") and not gate("fl-basic")  # no test view
        with monkeypatch.context() as m:
            m.setattr(federation, "DRAW_AHEAD_MIN_VALUES", 0)
            assert not gate("fl-top-dp")  # the worker draws
            assert gate("fl-top")  # nothing to draw
        monkeypatch.setattr(nn, "LAYER0_CACHE_MIN_SAVED", 1 << 62)
        assert not gate("fl-top-dp") and not gate("fl-top")  # the dense pass

    class Failed(Exception):
        pass

    @pytest.mark.parametrize("failing_round", [1, 3])
    def test_scoring_error_reaches_the_caller(self, scores_ahead, monkeypatch,
                                              failing_round):
        # Round 1's scores are collected once round 2 has trained, round
        # 3's, the last, after the loop.
        (train, test, public, part, arch), threads = scores_ahead
        predictor = nn.predictor  # the fixture's spy

        def failing(*args):
            forward = predictor(*args)

            def scored():
                scores = forward()
                if len(threads) == failing_round:
                    raise self.Failed("no scores")
                return scores

            return scored

        monkeypatch.setattr(nn, "predictor", failing)
        with pytest.raises(self.Failed, match="no scores"):
            run_experiment(make_config(arch, "fl-top-dp", rounds=3), train, part,
                           test, public=public)
        assert len(threads) == failing_round
        assert all(t.name.startswith("fltop-draws") for t in threads)

    def test_concurrent_runs_under_fast_switching(self, scores_ahead, monkeypatch):
        # Four runs at once, each scoring on its own worker while it
        # trains, so eight threads on fewer cores, at a switch interval of
        # a microsecond: every trace must be the inline one.
        (train, test, public, part, arch), threads = scores_ahead
        cfg = make_config(arch, "fl-top-dp", rounds=4)

        def trace(_):
            return trace_to_csv(run_experiment(cfg, train, part, test, public=public)[0])

        with monkeypatch.context() as m:
            m.setattr(FederatedRun, "_scores_ahead", lambda run: False)
            inline = trace(None)
        threads.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                traces = list(pool.map(trace, range(4)))
        finally:
            sys.setswitchinterval(interval)
        assert traces == [inline] * 4
        assert len(threads) == 4 * cfg.rounds and len(set(threads)) == 4
        assert all(t.name.startswith("fltop-draws") for t in threads)

    def test_worker_ends_with_its_run(self, scores_ahead):
        (train, test, public, part, arch), threads = scores_ahead
        before = set(threading.enumerate())
        run_experiment(make_config(arch, "fl-top-dp", rounds=3), train, part, test,
                       public=public)
        started = set(threads)
        assert len(threads) == 3 and len(started) == 1 and not started & before
        for thread in started:
            assert thread.name.startswith("fltop-draws") and not thread.daemon
            thread.join(timeout=10)
            assert not thread.is_alive()


def test_public_functions_run_on_the_main_thread(small_setup, monkeypatch):
    # A profiler may wrap every public fltop function with timers that are
    # not thread-safe, so the run's worker runs only private code. One run
    # scores on the worker and one draws there; every public function
    # either reaches, wrapped at every module that holds it, and every
    # public method of `FederatedRun`, must run on the main thread.
    import fltop
    modules = [importlib.import_module(f"fltop.{name}") for name in (
        "data", "config", "compression", "nn", "privacy", "secure_agg",
        "federation", "cli")]
    calls, worker = {}, []

    def spy(name, fn, record):
        @functools.wraps(fn)
        def spied(*args, **kwargs):
            record(name)
            return fn(*args, **kwargs)
        return spied

    def public(name):
        calls.setdefault(name, set()).add(threading.current_thread().name)

    for module in modules:
        for attr, fn in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            spied = spy(f"{module.__name__}.{attr}", fn, public)
            for site in (*modules, fltop):
                for site_attr, value in list(vars(site).items()):
                    if value is fn:
                        monkeypatch.setattr(site, site_attr, spied)
    for attr, fn in list(vars(FederatedRun).items()):
        if not attr.startswith("_") and inspect.isfunction(fn):
            monkeypatch.setattr(FederatedRun, attr,
                                spy(f"FederatedRun.{attr}", fn, public))

    def on_worker(name):
        if threading.current_thread().name != "MainThread":
            worker.append(name)

    for module, attr in ((nn, "_forward"), (privacy, "_noise")):
        monkeypatch.setattr(module, attr, spy(attr, getattr(module, attr), on_worker))

    # A binary model, so that AUROC is scored too.
    train, test, public_batch, part, _ = small_setup
    arch = nn.mlp_arch(20, [64], 1, "binary_cross_entropy")
    cfg = make_config(arch, "fl-top-dp", rounds=3)
    monkeypatch.setattr(nn, "LAYER0_CACHE_MIN_SAVED", 0)
    run_experiment(cfg, train, part, test, public=public_batch)
    assert set(worker) == {"_forward"}  # the scores
    worker.clear()
    monkeypatch.setattr(federation, "DRAW_AHEAD_MIN_VALUES", 0)
    run_experiment(cfg, train, part, test, public=public_batch)
    assert set(worker) == {"_noise"}  # the draws
    assert {name for name, threads in calls.items() if threads != {"MainThread"}} == set()
    assert {"fltop.nn.predict", "fltop.nn.predictor", "fltop.nn.layer0_view",
            "fltop.federation.accuracies", "fltop.federation.auroc",
            "fltop.privacy.clip", "fltop.secure_agg.encode",
            "FederatedRun.evaluate"} <= set(calls)
