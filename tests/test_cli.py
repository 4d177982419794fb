import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fltop
from fltop import cli, config, data, federation, nn, privacy
from fltop.errors import ConfigError
from fltop.federation import SCHEMES

# The example config from README.md.
README_CONFIG = {
    "scheme": "fl-top-dp",
    "dataset": {"type": "synthetic", "n_samples": 4000, "n_features": 20,
                "positive_rate": 0.5, "seed": 11, "separation": 4.0},
    "model": {"hidden": [64], "loss": "cross_entropy"},
    "federation": {"n_clients": 50, "sampling_fraction": 0.2, "rounds": 50,
                   "local_steps": 5, "batch_size": 10, "learning_rate": 0.3,
                   "ratio": 0.05, "sigma": 1.54, "clip": "calibrate"},
}

# sha256 of trace.csv for every scheme on README_CONFIG. A change that moves
# any of these moves the numbers fltop reports; it must say why.
GOLDEN_TRACES = {
    "fl-bas-2": "ec5fa28fb72e13c500ea1633fb397b76e18ada666dd90a4cc373374a7acf0c55",
    "fl-bas-2-dp": "368139c70e8e9e0dbb97f34939e26497ff10324bab8408661d61f4b67e3a8714",
    "fl-bas-3": "ec8e681e1f3b6b5379c0bfb02319f9ccbbb7334e39dd24ce12184b9bdc9b7bbb",
    "fl-bas-3-dp": "eb9e76e0ae911b4d08eb7b1093faf0a66efeef5f5a385135e7cd737d368773f3",
    "fl-bas-4": "f42491c96673fd100268b6702bd24f07e3424922d312b6904516df96e5b8e453",
    "fl-bas-4-dp": "f73e4db2643ac0c78a11bb72b0ccf0e4ae4b2fc64fa919a6cfa8bf6cb67a45de",
    "fl-basic": "effc10d0b255b7baea7e014c81f55a0d26fcd5eb6f8270001167f497c3165699",
    "fl-basic-dp": "97312bbaa0f5eaaa815c413be47ff8af37e77ad5e92db17f6c9c9fe1437c1874",
    "fl-std": "555a2f29df5321b08cee1292e5430d8d6901adec82c140856489a725dbe0ba04",
    "fl-std-dp": "70f3e7d7a5a0ecd8f99e608a415f809683022af71b327c0a428a14beca83a1df",
    "fl-top": "40b5cb772f3bee45df285f120080f48c4df1391893188b7ef55c134030d900fd",
    "fl-top-bis": "439774fee5717c388875aa6a382d0b7a1b278027a5b5dcff60ba591544375b0a",
    "fl-top-bis-dp": "e4c321d15ddc5a71a04f9a21da43b81f1145486a1966a795030d2bbd589c9e35",
    "fl-top-dp": "2b906c870e1711e05209d83e55c940fd0c69196ce47633cfe8700be3248c7158",
}


def base_config(tmp_path, **overrides):
    cfg = {
        "scheme": "fl-top",
        "output_dir": str(tmp_path / "out"),
        "dataset": {"type": "synthetic", "n_samples": 1200, "n_features": 16,
                    "positive_rate": 0.5, "seed": 5, "separation": 3.0,
                    "public_size": 16},
        "model": {"hidden": [32], "loss": "cross_entropy"},
        "federation": {"n_clients": 40, "sampling_fraction": 0.25, "rounds": 3,
                       "local_steps": 5, "batch_size": 8, "learning_rate": 0.3,
                       "ratio": 0.1, "sigma": 1.54, "clip": 1.0},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestRun:
    def test_outputs_written(self, tmp_path, capsys):
        path, cfg = base_config(tmp_path)
        assert cli.main(["run", str(path)]) == 0
        out = tmp_path / "out"
        trace = (out / "trace.csv").read_text().rstrip().split("\n")
        assert len(trace) == 1 + cfg["federation"]["rounds"]
        header = trace[0].split(",")
        for col in ("round", "down_kb", "up_kb", "epsilon"):
            assert col in header
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rounds"] == 3
        assert "best" in capsys.readouterr().out

    def test_resolved_config_reproduces_run(self, tmp_path):
        path, _ = base_config(tmp_path)
        assert cli.main(["run", str(path)]) == 0
        first = (tmp_path / "out" / "trace.csv").read_bytes()
        resolved = tmp_path / "out" / "resolved_config.json"
        assert cli.main(["run", str(resolved),
                         "--output-dir", str(tmp_path / "again")]) == 0
        second = (tmp_path / "again" / "trace.csv").read_bytes()
        assert first == second

    def test_resolved_config_lists_every_default(self, tmp_path):
        cfg = {"scheme": "fl-top", "dataset": {"type": "synthetic"}, "model": {},
               "federation": {"n_clients": 10, "sampling_fraction": 0.2,
                              "rounds": 1}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--output-dir", str(out)]) == 0
        assert json.loads((out / "resolved_config.json").read_text()) == {
            "scheme": "fl-top", "output_dir": str(out),
            "dataset": {"type": "synthetic", "n_samples": 2000, "n_features": 20,
                        "positive_rate": 0.5, "seed": 0, "separation": 2.0,
                        "downsample": False, "test_fraction": 0.2,
                        "public_size": 10, "public_seed": 7},
            "model": {"hidden": [32], "loss": "cross_entropy",
                      "hidden_activation": "relu"},
            "federation": {"n_clients": 10, "sampling_fraction": 0.2, "rounds": 1,
                           "local_steps": 5, "batch_size": 10,
                           "learning_rate": 0.1, "ratio": 1.0, "sigma": 1.0,
                           "delta": 1e-5, "clip": 1.0, "t_init": 5,
                           "lambda_max": 64, "frac_bits": 32,
                           "seeds": {"model": 0, "sampling": 1, "noise": 2,
                                     "masks": 3}}}

    def test_dp_scheme_round_trip(self, tmp_path):
        path, _ = base_config(tmp_path, scheme="fl-top-dp")
        assert cli.main(["run", str(path)]) == 0
        trace = (tmp_path / "out" / "trace.csv").read_text().rstrip().split("\n")
        eps_col = trace[0].split(",").index("epsilon")
        eps = [float(r.split(",")[eps_col]) for r in trace[1:]]
        assert eps == sorted(eps) and eps[0] > 0

    def test_dp_run_on_the_draw_thread_exits_cleanly(self, tmp_path):
        # Every group's noise and masks drawn on the draw worker: its thread
        # ends once the run is freed, so the process exits, and the trace
        # is that of the inline draws.
        path, _ = base_config(tmp_path, scheme="fl-std-dp")
        script = ("import sys, threading\n"
                  "from fltop import cli, federation, privacy\n"
                  "federation.DRAW_AHEAD_MIN_VALUES = 0\n"
                  "noise, names = privacy._noise, set()\n"
                  "def spy(*args):\n"
                  "    names.add(threading.current_thread().name)\n"
                  "    return noise(*args)\n"
                  "privacy._noise = spy\n"
                  "rc = cli.main(['run', sys.argv[1], '--output-dir', sys.argv[2]])\n"
                  "for t in threading.enumerate():\n"
                  "    if t.name.startswith('fltop-draws'):\n"
                  "        t.join(timeout=10)\n"
                  "print(rc, [name.startswith('fltop-draws') for name in names],\n"
                  "      [t.name for t in threading.enumerate() if not t.daemon])\n")
        src = str(Path(fltop.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script, str(path),
                               str(tmp_path / "ahead")],
                              env=dict(os.environ, PYTHONPATH=src), timeout=120,
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "0 [True] ['MainThread']"
        assert cli.main(["run", str(path)]) == 0
        assert ((tmp_path / "ahead" / "trace.csv").read_bytes()
                == (tmp_path / "out" / "trace.csv").read_bytes())

    @pytest.mark.parametrize("overrides, clamped", [
        ({}, False),
        # A clamp range of 16 against noise of std 49: many values clamp.
        ({"frac_bits": 55, "clip": 100.0}, True)])
    def test_clamps_are_flagged(self, tmp_path, capsys, overrides, clamped):
        path, cfg = base_config(tmp_path, scheme="fl-top-dp")
        cfg["federation"].update(overrides)
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == 0
        last = (tmp_path / "out" / "trace.csv").read_text().splitlines()[-1]
        clamps = int(last.split(",")[-1])
        assert (clamps > 0) == clamped
        warning = f"warning: the secure sum clamped {clamps} values\n"
        assert capsys.readouterr().err == (warning if clamped else "")

    def test_calibrated_clip_made_explicit(self, tmp_path):
        path, cfg = base_config(tmp_path)
        cfg["federation"]["clip"] = "calibrate"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == 0
        resolved = json.loads(
            (tmp_path / "out" / "resolved_config.json").read_text())
        assert isinstance(resolved["federation"]["clip"], float)
        assert resolved["federation"]["clip"] > 0

    @pytest.mark.parametrize("loss", ["cross_entropy", "binary_cross_entropy"])
    def test_run_imports_no_scipy(self, tmp_path, loss):
        # scipy is a test-only dependency: a whole run, accountant and AUROC
        # included, must not import it. A fresh interpreter, because this
        # test process has scipy loaded already.
        cfg = json.loads(json.dumps(README_CONFIG))
        cfg["model"]["loss"] = loss
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        script = ("import sys\n"
                  "from fltop import cli\n"
                  "rc = cli.main(['run', sys.argv[1], '--output-dir', sys.argv[2]])\n"
                  "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        src = str(Path(fltop.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script, str(path),
                               str(tmp_path / "out")],
                              env=dict(os.environ, PYTHONPATH=src), timeout=300,
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "0 []"
        # The binary run did compute AUROC, so the rank path ran too.
        first_row = (tmp_path / "out" / "trace.csv").read_text().splitlines()[1]
        assert (first_row.split(",")[3] == "nan") == (loss == "cross_entropy")

    def test_numpy_ma_is_not_imported_before_round_1(self, tmp_path):
        # `np.median`, `np.unique` and `np.union1d` import numpy.ma, about
        # 8 ms; set-up and round 1 of the README config call none of them.
        # A fresh interpreter, because this test process has it loaded.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(README_CONFIG))
        script = ("import sys\n"
                  "from fltop import cli, federation\n"
                  "seen = []\n"
                  "run_round = federation.FederatedRun.run_round\n"
                  "def first(run):\n"
                  "    seen.append('numpy.ma' in sys.modules)\n"
                  "    return run_round(run)\n"
                  "federation.FederatedRun.run_round = first\n"
                  "rc = cli.main(['run', sys.argv[1], '--output-dir', sys.argv[2]])\n"
                  "print(rc, seen[:2], len(seen))\n")
        src = str(Path(fltop.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script, str(path),
                               str(tmp_path / "out")],
                              env=dict(os.environ, PYTHONPATH=src), timeout=300,
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "0 [False, False] 50"

    # sha256 of trace.csv on the README config with seeds past 32 bits,
    # which `federation.seed_words` splits into several words each. The
    # digests are those of list seeds given to `np.random.default_rng`.
    BIG_SEED_TRACES = [
        ({"noise": 2 ** 40 + 5},
         "056f337383b72cff59ff4bba85236022e80b11d0c4458f54312b36669abb75cc"),
        ({"noise": 2 ** 40 + 5, "sampling": 2 ** 32, "masks": 2 ** 64 + 3},
         "91611f346bc440b8de6b9fb75b911f731d2a465f7c4f5033e5b7e4b6fab6199f"),
    ]

    @pytest.mark.parametrize("seeds, digest", BIG_SEED_TRACES)
    def test_seeds_of_any_size_keep_their_trace(self, tmp_path, capsys, seeds, digest):
        cfg = json.loads(json.dumps(README_CONFIG))
        cfg["federation"]["seeds"] = seeds
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0
        trace = (tmp_path / "out" / "trace.csv").read_bytes()
        assert hashlib.sha256(trace).hexdigest() == digest


class TestGoldenTraces:
    def test_every_scheme_is_listed(self):
        assert sorted(GOLDEN_TRACES) == sorted(SCHEMES)

    @pytest.mark.parametrize("scheme", sorted(GOLDEN_TRACES))
    def test_readme_config_trace_is_unchanged(self, tmp_path, capsys, scheme):
        cfg = json.loads(json.dumps(README_CONFIG))
        cfg["scheme"] = scheme
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0
        trace = (tmp_path / "out" / "trace.csv").read_bytes()
        assert hashlib.sha256(trace).hexdigest() == GOLDEN_TRACES[scheme]


def test_readme_round_is_one_stacked_call(topk_sgd_calls):
    # The README config's cohort of 10 fits one group, so a round trains it
    # in ceil(m / G) = 1 stacked `nn.topk_sgd` call, not one call per client.
    exp = config.resolve(README_CONFIG)
    run = federation.FederatedRun(exp.fed, exp.train, exp.part, exp.test,
                                  exp.public)
    m = exp.fed.cohort_size
    assert m == 10 and run._group >= m
    topk_sgd_calls.clear()
    for _ in range(3):
        run.run_round()
    assert topk_sgd_calls == [2] * (3 * math.ceil(m / run._group))


def test_group_sizes_of_the_benchmark_models():
    # A call holds each client's model row and gradient buffer: n values
    # each, or the compact sub-model's under a layer-0 cache. The README
    # config's model trains a cohort of 10 in one call, fixed set or full.
    # On 784 -> 100 -> 10, a pinned set that touches 7 layer-0 units (as
    # wide-topk-dp's does at seed 7) does too; full rows go one a call.
    for scheme in ("fl-top-dp", "fl-std-dp"):
        exp = config.resolve({**README_CONFIG, "scheme": scheme})
        run = federation.FederatedRun(exp.fed, exp.train, exp.part, exp.test,
                                      exp.public)
        assert run._group >= 10, scheme
    wide = nn.mlp_arch(784, [100], 10, "cross_entropy")
    assert federation.cohort_group_size(wide, 10) == 1
    assert federation.cohort_group_size(wide, 10, np.arange(7)) >= 10


# sha256 of trace.csv for each benchmark workload at seed 7: small-topk-dp
# (the README config's model), wide-topk-dp (fl-top-dp, r = 0.005 on
# 784 -> 100 -> 10, whose runs cache layer 0) and wide-std-dp (fl-std-dp on
# the same data and model).
BENCHMARK_TRACES_SEED_7 = {
    "small-topk-dp": "6c017a488c12af21dfa903831292a68e1fa9a9539ea2fce8f02e77529417d151",
    "wide-topk-dp": "63be5ac966737bc76ae434e9810f10399bf20cb51c1556ec9f3287efbf892c3a",
    "wide-std-dp": "bd9227622526d5bc2398cd0944de6d9534585727d8ff52abf6c0e748546de8ae",
}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_with_perfbench(script, args, blas_threads):
    """Run `script` in a fresh interpreter that imports fltop and
    perfbench/gen.py, which writes a workload's IDX files and config; BLAS
    reads its thread count at import. None keeps the library's default.
    Returns the script's stdout."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    if blas_threads is not None:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, blas_threads))
    root = Path(__file__).resolve().parents[1]
    src = str(Path(fltop.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, str(root / "perfbench")])
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave perfbench/ as it is
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          timeout=300, capture_output=True, check=True,
                          text=True).stdout


@pytest.mark.parametrize("workload, blas_threads", [
    ("wide-topk-dp", "1"), ("wide-topk-dp", None),
    ("small-topk-dp", "1"), ("wide-std-dp", "1")])
def test_benchmark_trace_is_unchanged(tmp_path, workload, blas_threads):
    script = ("import sys, gen\n"
              "from fltop import cli\n"
              "spec = gen.generate(sys.argv[1], 7, sys.argv[2])\n"
              "sys.exit(cli.main(['run', spec['config'], '--output-dir', sys.argv[3]]))\n")
    run_with_perfbench(script, [workload, str(tmp_path / "in"), str(tmp_path / "out")],
                       blas_threads)
    trace = (tmp_path / "out" / "trace.csv").read_bytes()
    assert hashlib.sha256(trace).hexdigest() == BENCHMARK_TRACES_SEED_7[workload]


# sha256 of the final model's bytes after non-DP fl-top on wide-topk-dp's
# seed-7 data at 1 BLAS thread, through the layer-0 cache. DP's 2^-32 grid
# and the trace's accuracy columns can hide a change in the last bits of
# the model; this cannot.
WIDE_FL_TOP_FINAL_MODEL_SEED_7 = (
    "7e312f6b2c7ba4218b2081439dbbf487561e35322027a44832ff4bb913675f50")


def test_wide_fl_top_final_model_is_unchanged(tmp_path):
    script = ("import hashlib, json, sys, gen\n"
              "from fltop import config, federation\n"
              "spec = gen.generate('wide-topk-dp', 7, sys.argv[1])\n"
              "with open(spec['config']) as f:\n"
              "    raw = json.load(f)\n"
              "exp = config.resolve({**raw, 'scheme': 'fl-top'})\n"
              "run = federation.FederatedRun(exp.fed, exp.train, exp.part, exp.test,\n"
              "                              exp.public)\n"
              "for _ in range(exp.fed.rounds):\n"
              "    run.run_round()\n"
              "print(hashlib.sha256(run.w.tobytes()).hexdigest())\n")
    out = run_with_perfbench(script, [str(tmp_path / "in")], "1")
    assert out.strip() == WIDE_FL_TOP_FINAL_MODEL_SEED_7


def test_wide_rounds_stack_only_the_pinned_cohort(tmp_path, topk_sgd_calls):
    # On wide-topk-dp's seed-7 data, fl-top-dp's cohort of 10 holds only
    # the compact sub-model and trains in one `nn.topk_sgd` call; fl-top-bis
    # and fl-std-dp hold full model rows and train one client a call.
    script = "import sys, gen\nprint(gen.generate('wide-topk-dp', 7, sys.argv[1])['config'])\n"
    path = run_with_perfbench(script, [str(tmp_path)], "1").strip()
    raw = json.loads(Path(path).read_text())
    for scheme, calls in (("fl-top-dp", 1), ("fl-top-bis", 10), ("fl-std-dp", 10)):
        exp = config.resolve({**raw, "scheme": scheme})
        run = federation.FederatedRun(exp.fed, exp.train, exp.part, exp.test,
                                      exp.public)
        assert exp.fed.cohort_size == 10
        topk_sgd_calls.clear()
        run.run_round()
        assert topk_sgd_calls == [2] * calls, scheme


DROP = object()  # `malformed` deletes the key


@dataclass(frozen=True)
class IdxFiles:
    """A `fashion_mnist` dataset section over small IDX files: 60 training
    images of 4x4 pixels in 3 classes, 20 test and 20 public images. The
    fields give the test and public sets' image sides and class counts, the
    public set's size, which `base_config`'s public_size 16 may exceed, the
    training and test sets' sizes and the model's loss. Test ids show the
    first five."""
    test_side: int = 4
    test_classes: int = 3
    public_side: int = 4
    public_classes: int = 3
    public_count: int = 20
    train_count: int = field(default=60, repr=False)
    test_count: int = field(default=20, repr=False)
    loss: str = field(default="cross_entropy", repr=False)

    def write(self, out_dir):
        section = {"type": "fashion_mnist", "public_size": 16}
        for part, side, classes, count in (
                ("", 4, 3, self.train_count),
                ("test_", self.test_side, self.test_classes, self.test_count),
                ("public_", self.public_side, self.public_classes, self.public_count)):
            images, labels = out_dir / f"{part}images", out_dir / f"{part}labels"
            data.write_idx(np.arange(count * side * side).reshape(count, side, side) % 256,
                           np.arange(count) % classes, images, labels)
            section[f"{part}images"], section[f"{part}labels"] = str(images), str(labels)
        return section

# (scheme, key path, value): one malformed config each, made from
# `base_config`. The error must name the key path.
MALFORMED = [
    ("fl-top", "federation.learning_rte", 0.1),
    ("fl-top", "model.hidden_activaton", "relu"),
    ("fl-top", "dataset.n_sample", 100),
    ("fl-top", "schem", "fl-top"),
    ("fl-top", "dataset.type", DROP),
    ("fl-top", "dataset.type", "mnist"),
    ("fl-top", "federation.rounds", True),
    ("fl-top", "federation.rounds", "3"),
    ("fl-top", "federation.n_clients", "10"),
    ("fl-top", "federation.sampling_fraction", None),
    ("fl-top", "federation.seeds", 5),
    ("fl-top", "model.hidden", 8),
    ("fl-top", "model.hidden", ["a"]),
    ("fl-top", "model.hidden", [0]),
    ("fl-top", "model.loss", "mse"),
    ("fl-top", "model.hidden_activation", "softmax"),
    ("fl-top", "model.hidden_activation", "tanh"),
    ("fl-top", "dataset.n_samples", 0),
    ("fl-top", "dataset.n_features", 0),
    ("fl-top", "dataset.public_size", 0),
    ("fl-top", "dataset.test_fraction", 0.0),
    ("fl-top", "dataset.test_fraction", 2.0),
    # Rejected once the data is generated: no test rows, no training rows,
    # more clients than training rows.
    ("fl-top", "dataset.test_fraction", 0.0001),
    ("fl-top", "dataset.test_fraction", 0.9999),
    ("fl-top", "federation.n_clients", 5000),
    ("fl-top", "dataset.positive_rate", 1.0),
    # Checked before the (absent) files are opened.
    ("fl-top", "dataset", {"type": "fashion_mnist", "public_size": 0,
                           **dict.fromkeys(("images", "labels", "test_images",
                                            "test_labels", "public_images",
                                            "public_labels"), "absent")}),
    # IDX files read, but the test or public set does not fit the training
    # set's width or classes, or holds fewer samples than public_size.
    ("fl-top", "dataset.test_images", IdxFiles(test_side=5)),
    ("fl-top", "dataset.test_labels", IdxFiles(test_classes=4)),
    ("fl-top", "dataset.public_images", IdxFiles(public_side=3)),
    ("fl-top", "dataset.public_labels", IdxFiles(public_classes=13)),
    ("fl-top", "dataset.public_size", IdxFiles(public_count=12)),
    # Binary cross-entropy on 3 classes.
    ("fl-top", "model.loss", IdxFiles(loss="binary_cross_entropy")),
    ("fl-top", "federation.clip", "calibrat"),
    ("fl-top", "federation", []),
    ("fl-top", "federation.rounds", -1),
    ("fl-top", "federation.batch_size", 0),
    ("fl-top", "federation.local_steps", 0),
    ("fl-top-dp", "federation.sigma", 0),
    ("fl-top-dp", "federation.lambda_max", 0),
    ("fl-top-dp", "federation.delta", 2),
    ("fl-top-dp", "federation.frac_bits", 60),
    ("fl-top-dp", "federation.clip", 0),
]


def malformed(cfg, key_path, value):
    """Set (or, with DROP, delete) the key at `key_path` in `cfg`."""
    *parents, key = key_path.split(".")
    section = cfg
    for name in parents:
        section = section[name]
    if value is DROP:
        del section[key]
    else:
        section[key] = value


def assert_usage_error(config_path, out_dir, key_path):
    """`fltop run` exits 2 with one `error:` line naming `key_path`, no
    traceback and no output directory."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        rc = cli.main(["run", str(config_path), "--output-dir", str(out_dir)])
    err = stderr.getvalue()
    assert rc == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert key_path in err, err
    assert "Traceback" not in err
    assert not out_dir.exists()


# Values a mutation puts in. A swap takes one whose JSON type differs from
# the value it replaces, so a number never replaces a number.
SWAPS = [None, True, "x", [1], {"x": 1}]


def json_type(value):
    return "number" if type(value) in (int, float) else type(value).__name__


@st.composite
def mutated_readme_configs(draw):
    """(config, key path): the README config with one key of one section
    inserted unknown, dropped (if required) or given a value of another JSON
    type."""
    cfg = json.loads(json.dumps(README_CONFIG))
    sections = {"": cfg, "dataset": cfg["dataset"], "model": cfg["model"],
                "federation": cfg["federation"]}
    path = draw(st.sampled_from(sorted(sections)))
    section = sections[path]
    required = {"": ["scheme", "dataset", "model", "federation"],
                "dataset": ["type"], "model": [],
                "federation": ["n_clients", "sampling_fraction", "rounds"]}[path]
    kinds = ["unknown", "swap"] + (["drop"] if required else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "unknown":
        # No declared key has an upper-case letter.
        key = draw(st.from_regex(r"[a-z_]{0,8}[A-Z][a-z_]{0,8}", fullmatch=True))
        section[key] = draw(st.sampled_from(SWAPS))
    elif kind == "drop":
        key = draw(st.sampled_from(required))
        del section[key]
    else:
        key = draw(st.sampled_from(sorted(section)))
        section[key] = draw(st.sampled_from(
            [v for v in SWAPS if json_type(v) != json_type(section[key])]))
    return cfg, f"{path}.{key}" if path else key


class TestErrors:
    @pytest.mark.parametrize("scheme, key_path, value", MALFORMED, ids=[
        f"{s}-{k}={'drop' if v is DROP else v if isinstance(v, IdxFiles) else json.dumps(v)}"
        for s, k, v in MALFORMED])
    def test_malformed_config_exit_2(self, tmp_path, scheme, key_path, value):
        path, cfg = base_config(tmp_path, scheme=scheme)
        if isinstance(value, IdxFiles):
            cfg["dataset"] = value.write(tmp_path)
            cfg["model"]["loss"] = value.loss
        else:
            malformed(cfg, key_path, value)
        path.write_text(json.dumps(cfg))
        assert_usage_error(path, tmp_path / "out", key_path)

    @pytest.mark.parametrize("key, count", [("images", "train_count"),
                                            ("test_images", "test_count")],
                             ids=["images", "test_images"])
    def test_empty_idx_file_exit_2(self, tmp_path, key, count):
        # An image file of 0 images is refused, its path named.
        path, cfg = base_config(tmp_path)
        cfg["dataset"] = IdxFiles(**{count: 0}).write(tmp_path)
        path.write_text(json.dumps(cfg))
        assert_usage_error(path, tmp_path / "out", cfg["dataset"][key])

    @pytest.mark.parametrize("key, value", [("sigma", 0), ("lambda_max", 0),
                                            ("delta", 2), ("frac_bits", 60),
                                            ("clip", 0)])
    def test_dp_settings_ignored_without_dp(self, tmp_path, key, value):
        # fl-top never reads them; the same values exit 2 on fl-top-dp above.
        path, cfg = base_config(tmp_path)
        cfg["federation"][key] = value
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == 0

    @settings(max_examples=150, deadline=None)
    @given(mutated_readme_configs())
    def test_mutated_readme_config_exit_2(self, mutation):
        cfg, key_path = mutation
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(cfg))
            assert_usage_error(path, Path(tmp) / "out", key_path)

    def test_unknown_scheme_exit_2(self, tmp_path, capsys):
        path, _ = base_config(tmp_path, scheme="fl-nope")
        assert cli.main(["run", str(path)]) == 2
        assert "fl-nope" in capsys.readouterr().err

    def test_missing_section_exit_2(self, tmp_path, capsys):
        path, cfg = base_config(tmp_path)
        del cfg["federation"]
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == 2

    def test_invalid_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["run", str(path)]) == 2

    @pytest.mark.parametrize("key_path", [
        *(f"federation.seeds.{key}" for key in ("model", "sampling", "noise", "masks")),
        "dataset.seed", "dataset.public_seed"])
    def test_negative_seed_exit_2_before_output(self, tmp_path, key_path):
        # A DP scheme, so the noise and mask seeds are read by the run.
        path, cfg = base_config(tmp_path, scheme="fl-top-dp")
        section, key = key_path.rsplit(".", 1)
        if section == "federation.seeds":
            cfg["federation"]["seeds"] = {key: -1}
        else:
            cfg["dataset"][key] = -1
        path.write_text(json.dumps(cfg))
        assert_usage_error(path, tmp_path / "out", key_path)

    def test_missing_file_exit_2(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "absent.json")]) == 2

    def test_dp_cohort_of_one_exit_2_before_output(self, tmp_path, capsys):
        path, cfg = base_config(tmp_path, scheme="fl-top-dp")
        cfg["federation"]["sampling_fraction"] = 0.025  # 1 of 40 clients
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == 2
        assert "cohort is 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_flag_exit_2(self):
        assert cli.main(["accountant", "--sigma", "1.5"]) == 2

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400],
                             ids=["NaN", "Infinity", "-Infinity", "int-1e400"])
    @pytest.mark.parametrize("key_path", ["federation.learning_rate",
                                          "federation.sigma", "dataset.separation"])
    def test_non_finite_number_exit_2(self, tmp_path, key_path, value):
        # Python's json reads NaN and Infinity, and an integer of any size;
        # no float setting may hold one that is not a finite float.
        path, cfg = base_config(tmp_path, scheme="fl-top-dp")
        section, key = key_path.split(".")
        cfg[section][key] = value
        path.write_text(json.dumps(cfg))
        assert_usage_error(path, tmp_path / "out", key_path)

    @pytest.mark.parametrize("flag", ["--sigma", "--sampling", "--delta"])
    def test_accountant_nan_exit_2(self, capsys, flag):
        args = {"--sigma": "1.54", "--sampling": "0.5", "--rounds": "10",
                "--delta": "1e-5", flag: "nan"}
        assert cli.main(["accountant", *(word for item in args.items()
                                         for word in item)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag[2:] in err and "nan" in err

    def test_missing_required_key_exit_2(self, tmp_path, capsys):
        path, cfg = base_config(tmp_path)
        del cfg["federation"]["rounds"]
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == 2
        assert "federation.rounds" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_idx_key_exit_2(self, tmp_path, capsys):
        path, cfg = base_config(tmp_path)
        cfg["dataset"] = {"type": "fashion_mnist", "images": "a", "labels": "b"}
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == 2
        assert "dataset.test_images" in capsys.readouterr().err

    def test_unknown_seed_key_exit_2(self, tmp_path, capsys):
        path, cfg = base_config(tmp_path)
        cfg["federation"]["seeds"] = {"model": 1, "sampling_seed": 2}
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == 2
        assert "federation.seeds.sampling_seed" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [TypeError, KeyError])
    def test_internal_error_exit_1(self, tmp_path, capsys, monkeypatch, error):
        # A bug inside the run, not a malformed config, is a runtime error.
        def broken(*args, **kwargs):
            raise error("shape bug")

        monkeypatch.setattr(cli, "run_experiment", broken)
        path, _ = base_config(tmp_path)
        assert cli.main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith("runtime error:")

    @pytest.mark.parametrize("error, code, prefix", [
        (ConfigError, 2, "error: "), (TypeError, 1, "runtime error: ")])
    def test_draw_thread_error_keeps_its_exit_code(self, tmp_path, capsys, monkeypatch,
                                                   error, code, prefix):
        # An error raised on the draw thread reaches `main` with its type.
        def broken(*args):
            raise error("no noise")

        monkeypatch.setattr(federation, "DRAW_AHEAD_MIN_VALUES", 0)
        monkeypatch.setattr(privacy, "_noise", broken)
        path, _ = base_config(tmp_path, scheme="fl-top-dp")
        assert cli.main(["run", str(path)]) == code
        assert capsys.readouterr().err == prefix + "no noise\n"


class TestAccountant:
    def test_output_format_and_value(self, capsys):
        assert cli.main(["accountant", "--sigma", "1.54",
                         "--sampling", str(1 / 60), "--rounds", "200"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("epsilon = ")
        assert "lambda*" in out
        eps = float(out.split()[2])
        assert eps == pytest.approx(1.0, abs=0.05)

    def test_second_regime(self, capsys):
        assert cli.main(["accountant", "--sigma", "1.49",
                         "--sampling", "0.019960079840319361",
                         "--rounds", "62"]) == 0
        eps = float(capsys.readouterr().out.split()[2])
        assert eps == pytest.approx(0.91, abs=0.05)

    @pytest.mark.parametrize("sigma", ["1e-160", "1e-170"])
    def test_vanishing_sigma_prints_inf(self, capsys, sigma):
        assert cli.main(["accountant", "--sigma", sigma, "--sampling", "0.5",
                         "--rounds", "10"]) == 0
        assert capsys.readouterr().out == "epsilon = inf (lambda* = 1)\n"


class TestSweep:
    def test_sweep_rows_and_duplicate_warning(self, tmp_path, capsys):
        path, _ = base_config(tmp_path)
        assert cli.main(["sweep", str(path),
                         "--ratios", "0.05,0.1,0.05"]) == 0
        captured = capsys.readouterr()
        assert "duplicate" in captured.err
        rows = (tmp_path / "out" / "sweep.csv").read_text().rstrip().split("\n")
        assert len(rows) == 3  # header + two distinct ratios
        assert rows[1].startswith("0.05,fl-top,")
        assert rows[2].startswith("0.1,fl-top,")

    def test_empty_ratio_list_exit_2(self, tmp_path):
        path, _ = base_config(tmp_path)
        assert cli.main(["sweep", str(path), "--ratios", " , "]) == 2

    @pytest.mark.parametrize("ratios, named", [("abc", "--ratios"),
                                               ("0.05,2", "federation.ratio")])
    def test_bad_ratio_exit_2_before_any_run(self, tmp_path, capsys, ratios, named):
        path, _ = base_config(tmp_path)
        assert cli.main(["sweep", str(path), "--ratios", ratios]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and named in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

