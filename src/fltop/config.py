"""Experiment configuration files: JSON schema, loading, and resolution.

A config file pins everything a run needs: scheme, dataset source, model
shape, federation parameters, and the four named seeds. Each section is one
dataclass (`federation` is `FederationConfig`) declaring its keys, types and
defaults. `resolve` reads the sections into them, builds the run objects and
writes every section back out, defaults and calibrated values included, so
the emitted resolved config reproduces the run exactly.
"""

import json
import sys
from dataclasses import (MISSING, asdict, dataclass, field, fields, is_dataclass,
                         replace)

import numpy as np

from . import compression, data, nn
from .data import to_targets
from .errors import ConfigError
from .federation import FederationConfig, initial_index_set, local_update

@dataclass
class Config:
    """The top level; each section is read by its own class."""
    scheme: str
    dataset: dict
    model: dict
    federation: dict
    output_dir: str = "out"


def _at_least(low, section, *keys):
    """Rejects a dataset section whose `keys` hold a value below `low`."""
    for key in keys:
        if (value := getattr(section, key)) < low:
            raise ConfigError(f"dataset.{key} must be >= {low}, got {value}")


@dataclass
class SyntheticData:
    """`"type": "synthetic"`: the imbalanced binary task of `data.synth_imbalanced`."""
    n_samples: int = 2000
    n_features: int = 20
    positive_rate: float = 0.5
    seed: int = 0
    separation: float = 2.0
    downsample: bool = False
    test_fraction: float = 0.2
    public_size: int = 10
    public_seed: int = 7

    def __post_init__(self):
        _at_least(1, self, "n_samples", "n_features", "public_size")
        _at_least(0, self, "seed", "public_seed")
        for key in ("positive_rate", "test_fraction"):
            if not 0 < (value := getattr(self, key)) < 1:
                raise ConfigError(f"dataset.{key} must be in (0, 1), got {value}")

    def load(self):
        def draw(count, seed):
            return data.synth_imbalanced(count, self.n_features, self.positive_rate,
                                         seed, separation=self.separation)
        full = draw(self.n_samples, self.seed)
        if self.downsample:
            full = data.downsample(full, self.seed + 1)
        train, test = data.train_test_split(full, self.test_fraction, self.seed + 2)
        if not (len(train) and len(test)):
            raise ConfigError(f"dataset.test_fraction {self.test_fraction} splits "
                              f"{len(full)} samples into {len(train)} training and "
                              f"{len(test)} test samples; each needs at least 1")
        # Public data: a fresh draw from the same generator, different seed.
        return train, test, draw(max(self.public_size * 4, 64), self.seed + 1000)


@dataclass
class FashionMnistData:
    """`"type": "fashion_mnist"`: train, test and public IDX file pairs."""
    images: str
    labels: str
    test_images: str
    test_labels: str
    public_images: str
    public_labels: str
    public_size: int = 10
    public_seed: int = 7

    def __post_init__(self):
        _at_least(1, self, "public_size")
        _at_least(0, self, "public_seed")

    def load(self):
        return tuple(data.load_idx(getattr(self, f"{part}images"),
                                   getattr(self, f"{part}labels"))
                     for part in ("", "test_", "public_"))


# The dataset sections by `type`; `load()` gives (train, test, public source).
DATASETS = {"synthetic": SyntheticData, "fashion_mnist": FashionMnistData}


@dataclass
class ModelConfig:
    """The `model` section: an MLP whose output layer matches the loss."""
    hidden: list = field(default_factory=lambda: [32])
    loss: str = "cross_entropy"
    hidden_activation: str = "relu"

    def __post_init__(self):
        if not all(type(width) is int and width > 0 for width in self.hidden):
            raise ConfigError(f"model.hidden widths must be positive ints: {self.hidden}")
        for key, valid in (("loss", nn.LOSSES),
                           ("hidden_activation", nn.HIDDEN_ACTIVATIONS)):
            if (value := getattr(self, key)) not in valid:
                raise ConfigError(f"model.{key} must be one of {', '.join(valid)}; "
                                  f"got {json.dumps(value)}")


@dataclass
class ResolvedExperiment:
    raw: dict                 # fully resolved config dict (re-runnable)
    fed: FederationConfig
    train: data.Dataset
    test: data.Dataset
    part: np.ndarray          # (n_clients, shard size) training-row indices
    public: tuple             # (inputs, labels) or None


def _section(cls, values, path, **given):
    """The dataclass `cls` read from `values`, the JSON object at key path
    `path`. Each key must be a field not in `given` and hold that field's
    JSON type (a bool is no int, an int is a float, and a float is finite:
    `json` reads NaN, Infinity and integers of any size) or, for a dataclass
    field, a nested section. Each field without a default must be present."""
    prefix = f"{path}." if path else ""
    if not isinstance(values, dict):
        raise ConfigError(f"{path or 'the config'} must be a JSON object")
    declared = {f.name: f for f in fields(cls) if f.name not in given}
    for key, value in values.items():
        if key not in declared:
            raise ConfigError(f"unknown key {prefix}{key}; valid: {', '.join(declared)}")
        kind = declared[key].type
        if is_dataclass(kind):
            value = _section(kind, value, prefix + key)
        elif type(value) not in ((int, float) if kind is float else (kind,)):
            raise ConfigError(f"{prefix}{key} must be of type {kind.__name__}, "
                              f"got {json.dumps(value)}")
        elif kind is float and not abs(value) <= sys.float_info.max:
            # NaN, an infinity, or an integer that no float can hold
            raise ConfigError(f"{prefix}{key} must be a finite number, "
                              f"got {json.dumps(value)}")
        given[key] = float(value) if kind is float else value
    for name, f in declared.items():
        if name not in given and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing required key {prefix}{name}")
    return cls(**given)


def load_config(path):
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from e
    _section(Config, raw, "")  # the top level; `resolve` reads the sections
    return raw


def read_sections(raw):
    """Every section of the config dict `raw`, read and checked before any
    data is read: (top level, federation, model, dataset, calibrate). The
    federation's arch is None, since the model's shape comes from the data,
    and `calibrate` says whether its clip is to be calibrated."""
    top = _section(Config, raw, "")
    kind = top.dataset.get("type")
    if not isinstance(kind, str) or kind not in DATASETS:
        raise ConfigError(f"dataset.type must be one of {', '.join(DATASETS)}; "
                          f"got {json.dumps(kind)}")
    fed_values = top.federation
    calibrate = fed_values.get("clip") == "calibrate"
    if calibrate:  # the declared default stands in until the dry run
        fed_values = {k: v for k, v in fed_values.items() if k != "clip"}
    fed = _section(FederationConfig, fed_values, "federation", arch=None,
                   scheme=top.scheme)
    model = _section(ModelConfig, top.model, "model")
    dataset = _section(DATASETS[kind], {k: v for k, v in top.dataset.items()
                                        if k != "type"}, "dataset")
    return top, fed, model, dataset, calibrate


def resolve(raw):
    """Build all run objects from a config dict; calibrates S if requested.

    The returned ResolvedExperiment's .raw lists every declared key with its
    default or calibrated value made explicit. `raw` itself is not changed."""
    top, fed, model, dataset, calibrate = read_sections(raw)
    train, test, public_src = dataset.load()
    # The model's shape comes from the training set; the other sets must fit it.
    for part, d in (("test", test), ("public", public_src)):
        if (width := d.inputs.shape[1]) != train.inputs.shape[1]:
            raise ConfigError(f"dataset.{part}_images holds inputs of width {width}; "
                              f"the training set's are {train.inputs.shape[1]}")
        if (label := d.labels.max(initial=0)) >= train.n_classes:
            raise ConfigError(f"dataset.{part}_labels holds label {label}; the "
                              f"training set has {train.n_classes} classes")
    if model.loss == "binary_cross_entropy" and train.n_classes > 2:
        raise ConfigError(f"model.loss binary_cross_entropy needs labels 0 and 1; "
                          f"the training set has {train.n_classes} classes")
    public = data.public_batch(public_src, dataset.public_size, dataset.public_seed)
    n_out = 1 if model.loss == "binary_cross_entropy" else train.n_classes
    fed = replace(fed, arch=nn.mlp_arch(train.inputs.shape[1], model.hidden, n_out,
                                        model.loss, model.hidden_activation))
    if calibrate:
        fed = replace(fed, clip=calibrate_clip(fed, public))

    resolved = dict(asdict(top), dataset={"type": top.dataset["type"], **asdict(dataset)},
                    model=asdict(model), federation=asdict(fed))
    del resolved["federation"]["arch"], resolved["federation"]["scheme"]
    part = data.partition(train, fed.n_clients, seed=fed.seeds.sampling)
    return ResolvedExperiment(resolved, fed, train, test, part, public)


def calibrate_clip(fed, public):
    """Clipping threshold from a local dry run on the public batch: the
    median L2 norm of one local round's update over the scheme's index sets.
    A fixed-set scheme has one set, so this is that update's norm; a
    per-round scheme takes 100 freshly drawn sets.
    """
    arch = fed.arch
    w0 = nn.init_model(arch, fed.seeds.model)
    px, py = public
    targets = to_targets(py, arch)
    n = len(w0)
    iset = initial_index_set(fed, w0, public)
    sets = [iset] if iset is not None else [
        compression.select_random(n, fed.k(n), [105, fed.seeds.sampling, i])
        for i in range(100)]
    norms = np.sort([np.linalg.norm(local_update(
        fed.spec, px, targets, w0, w0, arch, s, fed.local_steps,
        fed.learning_rate, len(px), [104, fed.seeds.sampling])) for s in sets])
    # np.median's, without its numpy.ma import; a NaN sorts last and wins.
    middle = norms[(len(norms) - 1) // 2:len(norms) // 2 + 1]
    return float(norms[-1] if np.isnan(norms[-1]) else middle.mean())
