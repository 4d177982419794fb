import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fltop
from fltop import cli, config, federation
from fltop.federation import SCHEMES

from oracles import load_index_set

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

    def test_dp_scheme_round_trip(self, tmp_path):
        path, _ = base_config(tmp_path, scheme="fl-top-dp")
        assert cli.main(["run", str(path)]) == 0
        trace = (tmp_path / "out" / "trace.csv").read_text().rstrip().split("\n")
        eps_col = trace[0].split(",").index("epsilon")
        eps = [float(r.split(",")[eps_col]) for r in trace[1:]]
        assert eps == sorted(eps) and eps[0] > 0

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
    assert topk_sgd_calls == [3] * (3 * math.ceil(m / run._group))


# sha256 of trace.csv for the benchmark's wide-topk-dp workload at seed 7
# (fl-top-dp, r = 0.005 on 784 -> 100 -> 10), whose runs cache layer 0.
WIDE_TOPK_SEED_7 = "63be5ac966737bc76ae434e9810f10399bf20cb51c1556ec9f3287efbf892c3a"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("blas_threads", ["1", None])
def test_wide_topk_trace_is_unchanged(tmp_path, blas_threads):
    # perfbench/gen.py writes the workload's IDX files and config. A fresh
    # interpreter, because BLAS reads its thread count at import; None keeps
    # the library's default.
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    if blas_threads is not None:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, blas_threads))
    root = Path(__file__).resolve().parents[1]
    src = str(Path(fltop.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, str(root / "perfbench")])
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave perfbench/ as it is
    script = ("import sys, gen\n"
              "from fltop import cli\n"
              "spec = gen.generate('wide-topk-dp', 7, sys.argv[1])\n"
              "sys.exit(cli.main(['run', spec['config'], '--output-dir', sys.argv[2]]))\n")
    subprocess.run([sys.executable, "-c", script, str(tmp_path / "in"),
                    str(tmp_path / "out")], env=env, timeout=300,
                   capture_output=True, check=True)
    trace = (tmp_path / "out" / "trace.csv").read_bytes()
    assert hashlib.sha256(trace).hexdigest() == WIDE_TOPK_SEED_7


class TestErrors:
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


class TestCalibrate:
    def test_prints_positive_threshold(self, tmp_path, capsys):
        path, _ = base_config(tmp_path)
        assert cli.main(["calibrate", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("S = ")
        assert float(out.split()[2]) > 0


class TestSelectTopk:
    def test_index_file_round_trip(self, tmp_path, capsys):
        path, cfg = base_config(tmp_path)
        out_file = tmp_path / "indices.txt"
        assert cli.main(["select-topk", str(path), "--out", str(out_file)]) == 0
        n = 16 * 32 + 32 + 32 * 2 + 2
        iset = load_index_set(str(out_file), n)
        assert iset.n == n
        assert iset.k == round(cfg["federation"]["ratio"] * n)
        assert "wrote" in capsys.readouterr().out
