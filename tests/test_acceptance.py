"""End-to-end acceptance suite.

Each test checks one numbered criterion and prints a single PASS/FAIL line
(run pytest with -s to see them all). The criteria pin the accountant golden
values, the quadrature moment oracle, bandwidth reference costs, scheme
degeneracies, the secure-sum error bound, noise calibration, coordinate
freezing, end-to-end learning on a synthetic task, gradient correctness, and
byte-level reproducibility of the CLI.
"""

import itertools
import json

import numpy as np
from scipy.stats import chisquare

from oracles import finite_difference_gradient, quadrature_log_moments, sgd
from fltop import cli, data, nn, privacy, secure_agg
from fltop.data import to_targets
from fltop.federation import (FederatedRun, FederationConfig, Seeds,
                              bandwidth_cost, run_experiment)

FASHION_N = 1_663_370


def check(num, name, ok):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_accountant_golden_values():
    cases = [
        (1.54, 1 / 60, [(60, 0.76), (152, 0.92), (157, 0.93),
                        (183, 0.97), (200, 1.00)]),
        (1.49, 100 / 5010, [(22, 0.79), (23, 0.79), (62, 0.91),
                            (85, 0.97), (100, 1.00)]),
    ]
    ok = True
    for sigma, c, pairs in cases:
        for t, expected in pairs:
            eps, _ = privacy.epsilon(privacy.AccountantQuery(sigma, c, t))
            ok = ok and abs(eps - expected) <= 0.05
    check(1, "accountant golden values", ok)


def test_criterion_2_accountant_oracle_equivalence():
    ok = True
    for sigma, c in itertools.product([0.8, 1.49, 1.54, 4.0],
                                      [0.01, 1 / 60, 0.02]):
        for lam in range(1, 33):
            log_e1, log_e2 = quadrature_log_moments(lam, sigma, c)
            got = privacy.log_moment(lam, sigma, c)
            ok = ok and abs(got - log_e2) <= 1e-6 and got >= log_e1 - 1e-9
    check(2, "accountant oracle equivalence", ok)


def test_criterion_3_bandwidth_formula():
    cells = [(0.005, 200, True, 110.88), (0.05, 200, True, 1108.91),
             (0.10, 199, True, 2206.74), (1.0, 200, False, 22178.27)]
    ok = all(abs(bandwidth_cost(r, FASHION_N, t, 1 / 60, comp) - kb) <= 0.02
             for r, t, comp, kb in cells)
    check(3, "bandwidth formula", ok)


def _synthetic_setup(n_clients=50, seed=11):
    full = data.synth_imbalanced(4000, 20, 0.5, seed=seed, separation=4.0)
    train, test = data.train_test_split(full, 0.25, 12)
    pub_src = data.synth_imbalanced(128, 20, 0.5, seed=seed + 1000,
                                    separation=4.0)
    public = data.public_batch(pub_src, 32, 7)
    part = data.partition(train, n_clients, seed=3)
    arch = nn.mlp_arch(20, [64], 2, "cross_entropy")
    return train, test, public, part, arch


def _config(arch, scheme, **kw):
    base = dict(n_clients=50, sampling_fraction=0.2, rounds=50, local_steps=5,
                batch_size=10, learning_rate=0.3, ratio=0.05)
    base.update(kw)
    return FederationConfig(arch, scheme, **base)


def test_criterion_4_degeneracy_equivalence():
    train, test, public, part, arch = _synthetic_setup()
    top = FederatedRun(_config(arch, "fl-top", ratio=1.0),
                       train, part, test=test, public=public)
    std = FederatedRun(_config(arch, "fl-std"), train, part, test=test)
    ok = True
    for _ in range(10):
        top.run_round()
        std.run_round()
        ok = ok and np.array_equal(top.w, std.w)
    check(4, "full-set degeneracy bit-identical", ok)


def _low_bits_pvalue(residues):
    counts = np.bincount((residues & 0xFF).astype(np.intp), minlength=256)
    return chisquare(counts).pvalue


def test_criterion_5_secure_aggregation():
    m, k = 100, 1000
    rng = np.random.default_rng(42)
    updates = rng.normal(0, 0.05, size=(m, k))
    codec = secure_agg.FixedPointCodec(frac_bits=32, cohort_size=m)
    masks = secure_agg.make_masks(m, k, [9, 0])
    masked = []
    for i in range(m):
        enc, clamps = secure_agg.encode(updates[i], codec)
        assert clamps == 0
        masked.append(secure_agg.encrypt(enc, masks[i]))
    total = secure_agg.aggregate_decode(masked, codec, m)
    err = np.max(np.abs(total - updates.sum(axis=0)))
    ok = err <= m * 2.0 ** -33 + 1e-9

    mask_sum = np.zeros(k, dtype=np.uint64)
    for mk in masks:
        mask_sum = mask_sum + mk
    ok = ok and np.all(mask_sum == 0)

    # Any 99-client subtotal is still one-time-pad masked: the uniformity
    # rejection on the low byte must not fire.
    subset = np.zeros(k, dtype=np.uint64)
    for mv in masked[:-1]:
        subset = subset + mv
    ok = ok and _low_bits_pvalue(subset) > 0.001
    check(5, "secure aggregation bound and masking", ok)


def test_criterion_6_noise_calibration():
    m, dim, s, sigma = 16, 64, 0.7, 1.3
    codec = secure_agg.FixedPointCodec(frac_bits=32, cohort_size=m)
    rng = np.random.default_rng(5)
    diffs = []
    for t in range(200):
        true = rng.normal(0, 0.02, size=(m, dim))
        masks = secure_agg.make_masks(m, dim, [3, t])
        masked = []
        for i in range(m):
            clipped = privacy.clip(true[i], s)
            true[i] = clipped
            noised = privacy.add_client_noise(clipped, s, sigma, m, [2, t, i])
            enc, _ = secure_agg.encode(noised, codec)
            masked.append(secure_agg.encrypt(enc, masks[i]))
        decoded = secure_agg.aggregate_decode(masked, codec, m)
        diffs.append(decoded - true.sum(axis=0))
    std = np.std(np.concatenate(diffs))
    ok = abs(std - s * sigma) / (s * sigma) < 0.10
    check(6, "aggregate noise std equals S*sigma", ok)


def test_criterion_7_coordinate_freeze():
    train, test, public, part, arch = _synthetic_setup()
    ok = True
    for scheme in ("fl-top", "fl-basic", "fl-bas-3"):
        run = FederatedRun(_config(arch, scheme), train, part,
                           test=test, public=public)
        for t in range(1, 21):
            run.run_round()
            iset = run._round_index_set(t)
            frozen = np.setdiff1d(np.arange(run.n), iset.indices)
            ok = ok and np.array_equal(run.w[frozen], run.w0[frozen])
    for scheme in ("fl-top-bis", "fl-bas-2", "fl-bas-4"):
        run = FederatedRun(_config(arch, scheme), train, part,
                           test=test, public=public)
        for t in range(1, 21):
            iset = run._round_index_set(t)
            upd, = run._local_updates(np.array([0]), t, iset)
            ok = ok and len(upd) == run.config.k(run.n)
            run.run_round()
    check(7, "coordinate freeze and transmission length", ok)


def test_criterion_8_learning_sanity():
    train, test, public, part, arch = _synthetic_setup()

    w = nn.init_model(arch, 0)
    w = sgd(train.inputs, to_targets(train.labels, arch), w, arch,
            300, 0.3, 32, 1)
    scores = nn.predict(w, arch, test.inputs)
    oracle = np.mean(np.argmax(scores, axis=1) == test.labels)
    ok = oracle >= 0.95

    def best(scheme, seed_off=0):
        cfg = _config(arch, scheme,
                      seeds=Seeds(model=seed_off, sampling=1 + seed_off,
                                  noise=2 + seed_off, masks=3 + seed_off))
        _, summary = run_experiment(cfg, train, part, test, public=public)
        return summary["best_value"]

    ok = ok and best("fl-top") >= 0.90
    tops = [best("fl-top", s * 10) for s in range(5)]
    basics = [best("fl-basic", s * 10) for s in range(5)]
    ok = ok and np.mean(tops) > np.mean(basics)
    check(8, "learning sanity", ok)


def test_criterion_9_gradient_check():
    archs = [nn.mlp_arch(6, [8], 3, "cross_entropy"),
             nn.mlp_arch(5, [7, 4], 1, "binary_cross_entropy"),
             nn.mlp_arch(4, [10, 6, 5], 4, "cross_entropy",
                         hidden_activation="sigmoid")]
    rng = np.random.default_rng(17)
    ok = True
    for i, arch in enumerate(archs):
        x = rng.uniform(0, 1, size=(8, arch.layers[0].in_width))
        labels = rng.integers(0, max(arch.layers[-1].out_width, 2), 8)
        y = to_targets(labels, arch)
        w = nn.init_model(arch, i)
        g = nn.gradient(w, arch, x, y)
        fd = finite_difference_gradient(w, arch, x, y)
        ok = ok and np.max(np.abs(g - fd)) <= 1e-6
    check(9, "finite-difference gradient agreement", ok)


def test_criterion_10_reproducibility(tmp_path):
    cfg = {
        "scheme": "fl-top-dp",
        "output_dir": str(tmp_path / "a"),
        "dataset": {"type": "synthetic", "n_samples": 1200, "n_features": 16,
                    "positive_rate": 0.5, "seed": 5, "separation": 3.0,
                    "public_size": 16},
        "model": {"hidden": [32], "loss": "cross_entropy"},
        "federation": {"n_clients": 40, "sampling_fraction": 0.25, "rounds": 5,
                       "local_steps": 5, "batch_size": 8, "learning_rate": 0.3,
                       "ratio": 0.1, "sigma": 1.54, "clip": "calibrate"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == 0
    resolved = tmp_path / "a" / "resolved_config.json"
    assert cli.main(["run", str(resolved), "--output-dir",
                     str(tmp_path / "b")]) == 0
    assert cli.main(["run", str(resolved), "--output-dir",
                     str(tmp_path / "c")]) == 0
    b = (tmp_path / "b" / "trace.csv").read_bytes()
    c = (tmp_path / "c" / "trace.csv").read_bytes()
    check(10, "byte-identical rerun", b == c and len(b) > 0)
