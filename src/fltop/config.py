"""Experiment configuration files: JSON schema, loading, and resolution.

A config file pins everything a run needs: scheme, dataset source, model
shape, federation parameters, and the four named seeds. `resolve` turns the
raw dict into concrete objects (datasets, partition, arch, FederationConfig)
and fills in calibrated values, so the emitted resolved config reproduces the
run exactly.
"""

import json
from dataclasses import asdict, dataclass, fields

from . import compression, data, nn, privacy
from .data import to_targets
from .errors import ConfigError
from .federation import (SCHEMES, FederationConfig, Seeds, initial_index_set,
                         local_update)

_REQUIRED_TOP = ("scheme", "dataset", "model", "federation")


@dataclass
class ResolvedExperiment:
    raw: dict                 # fully resolved config dict (re-runnable)
    fed: FederationConfig
    train: data.Dataset
    test: data.Dataset
    part: data.Partition
    public: tuple             # (inputs, labels) or None


def load_config(path):
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from e
    for key in _REQUIRED_TOP:
        if key not in raw:
            raise ConfigError(f"{path}: missing required section {key!r}")
    if raw["scheme"] not in SCHEMES:
        raise ConfigError(
            f"unknown scheme {raw['scheme']!r}; valid: {', '.join(sorted(SCHEMES))}")
    return raw


def _required(section, path, key):
    """`section[key]`; a missing key is a ConfigError naming `path.key`."""
    if key not in section:
        raise ConfigError(f"missing required key {path}.{key}")
    return section[key]


def _build_datasets(ds_cfg):
    kind = ds_cfg.get("type")
    if kind == "synthetic":
        full = data.synth_imbalanced(
            ds_cfg.get("n_samples", 2000),
            ds_cfg.get("n_features", 20),
            ds_cfg.get("positive_rate", 0.5),
            ds_cfg.get("seed", 0),
            separation=ds_cfg.get("separation", 2.0))
        if ds_cfg.get("downsample", False):
            full = data.downsample(full, ds_cfg.get("seed", 0) + 1)
        train, test = data.train_test_split(
            full, ds_cfg.get("test_fraction", 0.2), ds_cfg.get("seed", 0) + 2)
        # Public data: a fresh draw from the same generator, different seed.
        public_src = data.synth_imbalanced(
            max(ds_cfg.get("public_size", 10) * 4, 64),
            ds_cfg.get("n_features", 20),
            ds_cfg.get("positive_rate", 0.5),
            ds_cfg.get("seed", 0) + 1000,
            separation=ds_cfg.get("separation", 2.0))
    elif kind == "fashion_mnist":
        pairs = [(_required(ds_cfg, "dataset", f"{part}images"),
                  _required(ds_cfg, "dataset", f"{part}labels"))
                 for part in ("", "test_", "public_")]
        train, test, public_src = (data.load_idx(*pair) for pair in pairs)
    else:
        raise ConfigError(f"unknown dataset type {kind!r}")
    public = data.public_batch(public_src, ds_cfg.get("public_size", 10),
                               ds_cfg.get("public_seed", 7))
    return train, test, public


def _build_arch(model_cfg, train):
    loss = model_cfg.get("loss", "cross_entropy")
    n_out = 1 if loss == "binary_cross_entropy" else train.n_classes
    return nn.mlp_arch(train.inputs.shape[1], model_cfg.get("hidden", [32]),
                       n_out, loss,
                       hidden_activation=model_cfg.get("hidden_activation", "relu"))


def resolve(raw):
    """Build all run objects from a config dict; calibrates S if requested.

    Returns a ResolvedExperiment whose .raw dict has every implicit value
    (including a calibrated clipping threshold) made explicit.
    """
    raw = json.loads(json.dumps(raw))  # deep copy; keeps emitted config JSON-clean
    train, test, public = _build_datasets(raw["dataset"])
    arch = _build_arch(raw["model"], train)
    fed_cfg = raw["federation"]
    seed_keys = {f.name for f in fields(Seeds)}
    for key in fed_cfg.get("seeds", {}):
        if key not in seed_keys:
            raise ConfigError(f"unknown key federation.seeds.{key}; valid: "
                              f"{', '.join(sorted(seed_keys))}")
    seeds = Seeds(**fed_cfg.get("seeds", {}))
    clip_setting = fed_cfg.get("clip", 1.0)

    fed = FederationConfig(
        arch=arch,
        scheme=raw["scheme"],
        n_clients=_required(fed_cfg, "federation", "n_clients"),
        sampling_fraction=_required(fed_cfg, "federation", "sampling_fraction"),
        rounds=_required(fed_cfg, "federation", "rounds"),
        local_steps=fed_cfg.get("local_steps", 5),
        batch_size=fed_cfg.get("batch_size", 10),
        learning_rate=fed_cfg.get("learning_rate", 0.1),
        ratio=fed_cfg.get("ratio", 1.0),
        sigma=fed_cfg.get("sigma", 1.0),
        delta=fed_cfg.get("delta", 1e-5),
        clip_s=1.0 if clip_setting == "calibrate" else float(clip_setting),
        t_init=fed_cfg.get("t_init", 5),
        lam_max=fed_cfg.get("lambda_max", 64),
        frac_bits=fed_cfg.get("frac_bits", 32),
        seeds=seeds)

    if clip_setting == "calibrate":
        fed.clip_s = calibrate_clip(fed, public)
        raw["federation"]["clip"] = fed.clip_s

    raw["federation"].setdefault("seeds", {})
    raw["federation"]["seeds"] = asdict(seeds)
    for key, default in (("local_steps", fed.local_steps),
                         ("batch_size", fed.batch_size),
                         ("learning_rate", fed.learning_rate),
                         ("ratio", fed.ratio), ("sigma", fed.sigma),
                         ("delta", fed.delta), ("t_init", fed.t_init),
                         ("lambda_max", fed.lam_max),
                         ("frac_bits", fed.frac_bits)):
        raw["federation"].setdefault(key, default)
    raw["federation"].setdefault("clip", fed.clip_s)

    part = data.partition(train, fed.n_clients, seed=seeds.sampling)
    return ResolvedExperiment(raw, fed, train, test, part, public)


def calibrate_clip(fed, public, trials_random=100):
    """Clipping threshold from a local dry run on the public batch.

    Fixed-set schemes: the L2 norm of the compressed update of one local
    round; per-round random schemes: the median over `trials_random` freshly
    drawn index sets.
    """
    arch = fed.arch
    w0 = nn.init_model(arch, fed.seeds.model)
    px, py = public
    targets = to_targets(py, arch)

    def train_fn(iset):
        return local_update(fed.spec, px, targets, w0, w0, arch, iset,
                            fed.local_steps, fed.learning_rate, len(px),
                            [104, fed.seeds.sampling])

    iset = initial_index_set(fed, w0, public)
    if iset is not None:
        sets, trials = [iset], 1
    else:
        n = len(w0)
        sets = (compression.select_random(n, fed.k(n), [105, fed.seeds.sampling, i])
                for i in range(trials_random))
        trials = trials_random
    return privacy.calibrate_sensitivity(train_fn, sets, trials=trials)
