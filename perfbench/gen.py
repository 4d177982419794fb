"""Seeded inputs for the fltop benchmark.

Every input a workload feeds the program is made here from the workload seed:
the JSON configs, the 10-class 28x28 IDX image files (written with
`fltop.data.write_idx`) and the accountant query grid. The same seed gives
byte-identical files.

    python3 perfbench/gen.py --workload wide-topk-dp --seed 7 --out DIR

prints the workload spec (what `run.py` consumes) as JSON.
"""

import argparse
import itertools
import json
import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("small-topk-dp", "wide-topk-dp", "wide-std-dp", "accountant-grid")

# Rounds per simulation: enough that one repeat spends most of its time in the
# round loop, few enough that several fresh-process repeats fit in one run.
SMALL_ROUNDS = 300
WIDE_ROUNDS = 60

# Final-round accuracy floors, set well under what every tried seed reaches,
# so that only a broken computation falls below them.
SMALL_FLOOR = 0.80
WIDE_TOPK_FLOOR = 0.25
WIDE_STD_FLOOR = 0.70

# Wide data: 100 clients x 60 images; the cohort is 0.1 * 100 = 10 exactly.
WIDE_CLIENTS = 100
WIDE_SHARD = 60
WIDE_TEST = 1000
WIDE_PUBLIC = 500

# Accountant grid: every (sigma, q) stratum pair, moved by the seed, asked at
# each of GRID_ROUNDS. The quadrature's cost jumps by up to 30% between nearby
# (sigma, q), so the seed moves them only slightly; every seed then costs the
# same, yet each asks for moments no other seed's grid has cached.
GRID_SIGMAS = (0.9, 1.2, 1.6, 2.5)
GRID_QS = (0.01, 0.05, 0.2)
GRID_ROUNDS = (50, 200, 500, 1000)
GRID_JITTER = 1e-4


def _rng(workload, seed):
    return np.random.default_rng([WORKLOADS.index(workload), int(seed)])


def _seeds(rng):
    model, sampling, noise, masks = (int(v) for v in rng.integers(0, 2**31, 4))
    return {"model": model, "sampling": sampling, "noise": noise, "masks": masks}


def _small_config(rng):
    """The README example (fl-top-dp, 20 -> 64 -> 2, N=50, m=10) with more rounds."""
    return {
        "scheme": "fl-top-dp",
        "dataset": {"type": "synthetic", "n_samples": 4000, "n_features": 20,
                    "positive_rate": 0.5, "seed": int(rng.integers(0, 2**31)),
                    "separation": 4.0},
        "model": {"hidden": [64], "loss": "cross_entropy"},
        "federation": {"n_clients": 50, "sampling_fraction": 0.2,
                       "rounds": SMALL_ROUNDS, "local_steps": 5, "batch_size": 10,
                       "learning_rate": 0.3, "ratio": 0.05, "sigma": 1.54,
                       "clip": "calibrate", "seeds": _seeds(rng)},
    }


def _images(rng, prototypes, count):
    """Noisy copies of the class prototypes, as uint8 28x28 images."""
    labels = rng.integers(0, len(prototypes), count)
    pixels = prototypes[labels] + rng.normal(0.0, 60.0, (count, 28, 28))
    return np.clip(np.rint(pixels), 0, 255).astype(np.uint8), labels.astype(np.uint8)


def _write_wide_data(rng, out_dir):
    """Train, test and public IDX pairs for a 10-class 28x28 task."""
    from fltop import data

    # Smooth class prototypes: a 7x7 random pattern blown up 4x.
    coarse = rng.uniform(0.0, 1.0, (10, 7, 7))
    prototypes = 30.0 + 180.0 * np.kron(coarse, np.ones((4, 4)))
    files = {}
    for part, count in (("train", WIDE_CLIENTS * WIDE_SHARD), ("test", WIDE_TEST),
                        ("public", WIDE_PUBLIC)):
        images, labels = _images(rng, prototypes, count)
        img_path = out_dir / f"{part}-images-idx3-ubyte"
        lbl_path = out_dir / f"{part}-labels-idx1-ubyte"
        data.write_idx(images, labels, img_path, lbl_path)
        files[part] = (str(img_path), str(lbl_path))
    return files


def _wide_config(scheme, rng, files):
    """784 -> 100 -> 10 (n = 79,510) on the IDX files; N=100, m=10."""
    return {
        "scheme": scheme,
        "dataset": {"type": "fashion_mnist",
                    "images": files["train"][0], "labels": files["train"][1],
                    "test_images": files["test"][0], "test_labels": files["test"][1],
                    "public_images": files["public"][0],
                    "public_labels": files["public"][1],
                    "public_size": 10, "public_seed": int(rng.integers(0, 2**31))},
        "model": {"hidden": [100], "loss": "cross_entropy"},
        "federation": {"n_clients": WIDE_CLIENTS, "sampling_fraction": 0.1,
                       "rounds": WIDE_ROUNDS, "local_steps": 5, "batch_size": 10,
                       "learning_rate": 0.1,
                       "ratio": 0.005 if scheme == "fl-top-dp" else 1.0,
                       "sigma": 1.0, "clip": "calibrate", "seeds": _seeds(rng)},
    }


def _grid(rng):
    """[sigma, q, T] queries: each jittered (sigma, q) stratum at every T."""
    queries = []
    for sigma, q in itertools.product(GRID_SIGMAS, GRID_QS):
        s, c = (v * (1.0 + GRID_JITTER * rng.uniform(-1.0, 1.0)) for v in (sigma, q))
        queries.extend([round(s, 9), round(c, 9), t] for t in GRID_ROUNDS)
    return queries


def generate(workload, seed, out_dir):
    """Write the workload's inputs under out_dir; return its spec."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = _rng(workload, seed)
    if workload == "accountant-grid":
        return {"kind": "grid", "queries": _grid(rng)}
    if workload == "small-topk-dp":
        config, floor = _small_config(rng), SMALL_FLOOR
    else:
        files = _write_wide_data(rng, out_dir)
        if workload == "wide-topk-dp":
            config, floor = _wide_config("fl-top-dp", rng, files), WIDE_TOPK_FLOOR
        else:
            config, floor = _wide_config("fl-std-dp", rng, files), WIDE_STD_FLOOR
    path = out_dir / "config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return {"kind": "sim", "config": str(path), "floor": floor}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    print(json.dumps(generate(args.workload, args.seed, args.out), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
