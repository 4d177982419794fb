"""Tests of the benchmark's own logic: span arithmetic, the tail rule, the
correctness checks and the epsilon oracle.

    python3 -m pytest -q perfbench/tests
"""

import json
import math

import numpy as np
import pytest

import oracle
import run
import spans


def test_self_time_subtracts_union_of_direct_children():
    s = [["a", 0.0, 10.0, -1],
         ["b", 1.0, 4.0, 0],
         ["c", 3.0, 6.0, 0],     # overlaps b: the union [1, 6] counts once
         ["d", 2.0, 3.0, 1],     # grandchild of a: only b's self time drops
         ["e", 9.0, 12.0, 0]]    # runs past a's end: only [9, 10] is covered
    own = spans.self_times(s)
    assert own == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_inclusive_time_counts_nested_calls_once():
    s = [["f", 0.0, 5.0, -1],
         ["f", 1.0, 2.0, 0],
         ["g", 2.0, 3.0, 0],
         ["f", 6.0, 7.0, -1]]
    assert spans.inclusive_time(s, "f") == pytest.approx(6.0)
    assert spans.inclusive_time(s, "g") == pytest.approx(1.0)


def test_layer_metrics_from_a_small_run():
    s = [["cli.cmd_run", 0.0, 20.0, -1],
         ["federation.run_experiment", 1.0, 18.0, 0],
         ["federation.run_round", 2.0, 5.0, 1],
         ["privacy.epsilon", 5.0, 9.0, 1],
         ["privacy.log_moment", 6.0, 7.0, 3],
         ["federation.run_round", 9.0, 11.0, 1],
         ["privacy.epsilon", 11.0, 12.0, 1]]
    m = spans.layer_metrics(s, {"grad_useful": 5, "grad_computed": 100,
                                "up_bytes": 640})
    assert m["federation.first_round_s"] == pytest.approx(7.0)
    assert m["cli.write_outputs_s"] == pytest.approx(2.0)
    assert m["privacy.moment_cache_hit_ratio"] == pytest.approx(0.5)
    assert m["privacy.log_moment_calls"] == 1
    assert m["privacy.epsilon_s"] == pytest.approx(5.0)
    assert m["nn.grad_useful_ratio"] == pytest.approx(0.05)
    assert m["secure_agg.up_bytes_per_round"] == pytest.approx(320)
    assert m["federation.run_round_self_s"] == pytest.approx(5.0)
    assert m["nn.sgd_s"] == 0.0


@pytest.mark.parametrize("n,p", [(19, None), (20, 50), (99, 50), (100, 90),
                                 (199, 90), (200, 95), (999, 95), (1000, 99),
                                 (9999, 99), (10000, 99.9), (100000, 99.99)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, p):
    assert run.tail_percentile(n) == p


def test_percentile_matches_numpy_linear_rule():
    values = list(np.random.default_rng(3).exponential(size=257))
    for p in (0, 50, 90, 95, 99, 100):
        assert run.percentile(values, p) == pytest.approx(np.percentile(values, p))


TRACE = ("round,accuracy,balanced_accuracy,auroc,down_kb,up_kb,epsilon,clamps\n"
         "1,0.5,0.5,nan,1,1,0.3,0\n"
         "2,0.9,0.9,nan,2,2,0.4,0\n")


def test_sim_failures_count_tampered_low_clamped_and_missing_runs():
    tampered = TRACE.replace("0.9,0.9", "0.91,0.9")
    low = TRACE.replace("2,0.9,0.9", "2,0.7,0.9")
    clamped = TRACE[:-2] + "3\n"
    reasons = run.sim_failures([TRACE, TRACE, tampered, low, clamped, None], 0.8)
    assert reasons[:2] == ["", ""]
    assert "differs" in reasons[2]
    assert "floor" in reasons[3]
    assert "clamps" in reasons[4]
    assert reasons[5]
    assert sum(1 for r in reasons if r) == 4


def _record(eps, rc=0):
    return {"rc": rc, "stdout": f"epsilon = {eps:.6g} (lambda* = 12)\n"}


def test_query_failures_flag_a_wrong_epsilon():
    queries = [[1.54, 1 / 60, 200], [1.1, 0.05, 50], [1.3, 0.1, 500]]
    right = [oracle.epsilon(*q) for q in queries]
    records = [_record(right[0]), _record(right[1] * 1.001),
               {"rc": 2, "stdout": ""}]
    reasons = run.query_failures(queries, records)
    assert reasons[0] == ""
    assert "oracle" in reasons[1]
    assert "exit 2" in reasons[2]


def test_oracle_matches_published_accountant_value():
    # sigma 1.54, q = 1/60, 200 rounds, delta 1e-5 gives epsilon of about 1.00.
    assert oracle.epsilon(1.54, 1 / 60, 200) == pytest.approx(1.00, abs=0.05)


def test_oracle_matches_fltop_accountant():
    from fltop import privacy
    for sigma, q, t in [(0.9, 0.2, 50), (2.5, 0.01, 1000)]:
        eps, _ = privacy.epsilon(privacy.AccountantQuery(sigma, q, t))
        assert math.isclose(eps, oracle.epsilon(sigma, q, t), rel_tol=1e-8)


def test_tracer_patches_from_import_sites_and_restores_them():
    from fltop import compression, nn
    original = nn.gradient
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert compression.gradient is nn.gradient is not original
        arch = nn.mlp_arch(3, [4], 2, "cross_entropy")
        w0 = nn.init_model(arch, 0)
        x = np.random.default_rng(0).uniform(size=(5, 3))
        y = np.eye(2)[[0, 1, 0, 1, 1]]
        compression.select_topk(w0, arch, x, y, 2, 4, 0.1)
    finally:
        tracer.uninstall()
    assert compression.gradient is nn.gradient is original
    names = [s[0] for s in tracer.spans]
    assert names.count("nn.gradient") == 2
    parent = tracer.spans[names.index("nn.gradient")][3]
    assert tracer.spans[parent][0] == "compression.select_topk"


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == run.PER_LAYER[m["name"]]
    assert {w["name"] for w in spec["workloads"]} <= set(run.gen.WORKLOADS)


def test_no_repeat_is_started_that_would_end_past_the_run_length():
    assert run.keep_going(50.0, [4.0, 6.0, 5.0], 60)
    assert not run.keep_going(56.0, [4.0, 6.0, 5.0], 60)


def test_reference_speed_undoes_a_uniform_slowdown():
    slow = 1.4 * run.REFERENCE_NOMINAL_S
    assert run.at_reference_speed(2.8, slow, "s") == pytest.approx(2.0)
    assert run.at_reference_speed(10.0, slow, "1/s") == pytest.approx(14.0)
