"""Round orchestration for the full scheme matrix.

Schemes differ in which coordinates are selected (top-k / random / all),
whether the index set is fixed across rounds or redrawn, whether non-selected
coordinates are re-pinned to the initial model, and whether the update path
is differentially private (clip + noise + masked aggregation). All of them
pick the set with `initial_index_set`, train with `local_update`, and move the
set's coordinates by the cohort mean, resetting the rest to w0 if pinned.

An index set is a sorted int64 array of coordinate positions, validated by
`nn`; a partition is one (clients × shard) array of training-row indices.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from . import compression, nn, privacy, secure_agg
from .data import to_targets
from .errors import ConfigError, DataError

FLOAT_BITS = 32  # accounting constant for bandwidth, not the storage width


@dataclass(frozen=True)
class SchemeSpec:
    selection: str            # topk | random | all
    fixed_across_rounds: bool
    reinit_nonselected: bool
    dp: bool


SCHEMES = {
    "fl-std": SchemeSpec("all", True, False, False),
    "fl-std-dp": SchemeSpec("all", True, False, True),
    "fl-top": SchemeSpec("topk", True, True, False),
    "fl-top-dp": SchemeSpec("topk", True, True, True),
    "fl-top-bis": SchemeSpec("topk", True, False, False),
    "fl-top-bis-dp": SchemeSpec("topk", True, False, True),
    "fl-basic": SchemeSpec("random", False, True, False),
    "fl-basic-dp": SchemeSpec("random", False, True, True),
    "fl-bas-2": SchemeSpec("random", False, False, False),
    "fl-bas-2-dp": SchemeSpec("random", False, False, True),
    "fl-bas-3": SchemeSpec("random", True, True, False),
    "fl-bas-3-dp": SchemeSpec("random", True, True, True),
    "fl-bas-4": SchemeSpec("random", True, False, False),
    "fl-bas-4-dp": SchemeSpec("random", True, False, True),
}


@dataclass(frozen=True)
class Seeds:
    model: int = 0
    sampling: int = 1
    noise: int = 2
    masks: int = 3


@dataclass
class FederationConfig:
    """The `federation` section (fields named by its JSON keys), scheme and model."""
    arch: nn.ArchSpec
    scheme: str
    n_clients: int
    sampling_fraction: float
    rounds: int
    local_steps: int = 5
    batch_size: int = 10
    learning_rate: float = 0.1
    ratio: float = 1.0            # K = round(ratio * n), ignored for selection=all
    sigma: float = 1.0
    delta: float = 1e-5
    clip: float = 1.0             # DP clipping threshold S
    t_init: int = 5
    lambda_max: int = 64
    frac_bits: int = 32
    seeds: Seeds = field(default_factory=Seeds)

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(
                f"unknown scheme {self.scheme!r}; valid: {', '.join(sorted(SCHEMES))}")
        for key in ("n_clients", "rounds", "local_steps", "batch_size", "t_init"):
            if (value := getattr(self, key)) < 1:
                raise ConfigError(f"federation.{key} must be >= 1, got {value}")
        if not 0 < self.sampling_fraction <= 1:
            raise ConfigError("federation.sampling_fraction must be in (0, 1]")
        if self.cohort_size < 1:
            raise ConfigError("federation.sampling_fraction selects no client")
        if self.spec.dp and self.cohort_size < 2:
            raise ConfigError(f"federation.sampling_fraction: {self.scheme} masks the "
                              f"cohort's sum, which needs at least 2 clients; the "
                              f"cohort is {self.cohort_size}")
        if not 0 < self.ratio <= 1:
            raise ConfigError(f"federation.ratio must be in (0, 1], got {self.ratio}")
        if self.spec.dp:
            # Each validator's message begins with its parameter, the key.
            try:
                if not self.clip > 0:
                    raise ConfigError(f"clip must be positive, got {self.clip}")
                privacy.AccountantQuery(self.sigma, self.sampling_rate, self.rounds,
                                        self.delta, self.lambda_max)
                secure_agg.FixedPointCodec(self.frac_bits, cohort_size=self.cohort_size)
            except ConfigError as e:
                raise ConfigError(f"federation.{e}") from None

    @property
    def spec(self):
        return SCHEMES[self.scheme]

    @property
    def cohort_size(self):
        return int(round(self.sampling_fraction * self.n_clients))

    @property
    def sampling_rate(self):
        """The share of clients a round actually samples, m/N."""
        return self.cohort_size / self.n_clients

    def k(self, n):
        if self.spec.selection == "all":
            return n
        return max(1, int(round(self.ratio * n)))


@dataclass
class RoundMetrics:
    round: int
    accuracy: float
    balanced_accuracy: float
    auroc: float
    down_kb: float
    up_kb: float
    epsilon: float
    clamps: int


def bandwidth_cost(r, n, round_index, c, compressed):
    """Cumulative one-direction traffic in kilobytes after `round_index` rounds:
    (r or 1) * n * 32 bits * rounds * sampling fraction."""
    if n <= 0 or round_index < 0 or c <= 0:
        raise ConfigError("bandwidth arguments must be positive")
    bits = (r if compressed else 1.0) * n * FLOAT_BITS * round_index * c
    return bits / 8000.0


def accuracy(scores, labels):
    """Plain accuracy; scores are softmax rows or a sigmoid column."""
    return float(np.mean(_hard_predictions(scores) == labels))


def balanced_accuracy(scores, labels):
    """Mean per-class recall; (TPR + TNR)/2 in the binary case."""
    preds = _hard_predictions(scores)
    recalls = [np.mean(preds[labels == c] == c) for c in np.unique(labels)]
    return float(np.mean(recalls))


def auroc(scores, labels):
    """Area under the ROC curve via the rank statistic; binary labels only."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise DataError("AUROC needs both classes present")
    # Average ranks: a tie group's last 1-based position minus (count-1)/2.
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    u = ranks[labels == 1].sum() - len(pos) * (len(pos) + 1) / 2.0
    return float(u / (len(pos) * len(neg)))


def _hard_predictions(scores):
    scores = np.asarray(scores)
    if scores.ndim == 2 and scores.shape[1] > 1:
        return scores.argmax(axis=1)
    return (scores.reshape(-1) >= 0.5).astype(np.int64)


def initial_index_set(cfg, w0, public):
    """The scheme's index set before round 1, or None if it is redrawn each
    round. Top-K selection runs on the public batch from w0."""
    spec = cfg.spec
    if spec.selection == "all":
        return nn.full_indices(cfg.arch)
    n = len(w0)
    k = cfg.k(n)
    if spec.selection == "topk":
        if public is None:
            raise ConfigError("top-k selection requires a public batch")
        px, py = public
        return compression.select_topk(w0, cfg.arch, px, to_targets(py, cfg.arch),
                                       cfg.t_init, k, cfg.learning_rate)
    if spec.fixed_across_rounds:
        return compression.select_random(n, k, [101, cfg.seeds.sampling])
    return None


def local_update(spec, x, y, w, w0, arch, index_set, steps, eta, batch_size, seed,
                 layer0=None, rows=None):
    """Local training from the global model `w` on rows of the training set
    `x`, `y`; returns the change at the index set's coordinates, in index
    order. `rows` is None for every row, one client's (shard,) row indices,
    which give one K-vector, or a group's (G, shard) array with G batch
    seeds, which trains G clients in one `nn.topk_sgd` call and gives
    (G, K), for G = 1 too.

    A pinning scheme trains only the index set, with every other coordinate
    held at w0; any other scheme trains every coordinate. A set of size n is
    every coordinate, so it trains, and returns, the full vector directly.
    `layer0` is an optional `nn.Layer0Cache` of w0 for every row of x, which
    only a pinning scheme can use (see `nn.topk_sgd`).
    """
    full = len(index_set) == arch.n_params
    trained = index_set if spec.reinit_nonselected and not full else nn.full_indices(arch)
    local = nn.topk_sgd(x, y, w, w0, arch, steps, trained, eta, batch_size, seed,
                        layer0, rows)
    if full:
        local -= w
        return local
    return local.take(index_set, axis=-1) - w[index_set]


# The footprint, in bytes, that one stacked local-SGD call may span: the L2
# cache of one core (2 MiB) of the 2-vCPU Xeon VM the timings below ran on.
# Stacking saves per-client Python and numpy dispatch work: on 20→64→2 with
# a Top-K set, a round ran 2.1× faster at G = 10 than at G = 1 (median of
# 300 interleaved rounds). On 784→100→10 with a 3-unit layer-0 cache, a
# group of 10 holds about 12 MB. It ran a round faster in one process, but
# over 10 fresh-process benchmark runs its round rate spread 2.4 times as
# widely as one client a call: its time follows the load on the shared
# cache and memory, which moves from run to run. A client's footprint
# therefore counts its whole model row and gradient buffer, cache or not,
# so that model (1.35 MB a client) gets G = 1 and 20→64→2 (35 KB a client)
# gets G = 58.
COHORT_GROUP_BYTES = 2 << 20


def cohort_group_size(arch, batch_size):
    """How many clients one `nn.topk_sgd` call trains:
    max(1, COHORT_GROUP_BYTES // what the call holds for a client).

    The call holds a client's model row and gradient buffer, n float64
    values each, and per step its batch's activations and deltas,
    `batch_size` × (in + out) values a layer. Stacking removes per-client
    Python and numpy dispatch work but, once the group outgrows the cache,
    costs more in memory traffic than it saves.
    """
    values = 2 * arch.n_params + batch_size * sum(
        layer.in_width + layer.out_width for layer in arch.layers)
    return max(1, COHORT_GROUP_BYTES // (8 * values))


class FederatedRun:
    """One federated training run; advances round by round.

    The DP path never exposes an individual client's unmasked noised update:
    clients hand back MaskedUpdate residues only, and the server sees their
    modular sum.

    A client is its row of the partition: the indices of its training rows.
    Inputs and targets are kept once, for the whole training set, and a
    round trains its cohort in groups of `cohort_group_size` clients, one
    stacked `nn.topk_sgd` call per group on the group's rows.

    With a fixed index set that is not the full set, the global model equals
    w0 outside the set after every round. Where `nn.layer0_columns` says it
    pays, the run therefore caches layer 0's pre-activation at w0
    (`nn.Layer0Cache`) on first use: once for the test set, which `evaluate`
    then uses, and, if the scheme pins, once for the whole training set.
    """

    def __init__(self, config, train, part, test=None, public=None):
        self.config = config
        self.spec = config.spec
        self.train = train
        self.test = test
        self.arch = config.arch
        self.w0 = nn.init_model(self.arch, config.seeds.model)
        self.w = self.w0.copy()
        self.n = len(self.w0)
        self.codec = secure_agg.FixedPointCodec(
            config.frac_bits, cohort_size=config.cohort_size) if self.spec.dp else None
        self.round_index = 0
        self.clamp_total = 0
        self.index_set = initial_index_set(config, self.w0, public)
        self._shards = part
        self._targets = to_targets(train.labels, self.arch)
        # The layer-0 units that cached forward passes recompute (see
        # `nn.layer0_columns`); None keeps every pass dense. Training reads
        # the cache only if the scheme pins.
        self._layer0_cols = None
        if self.index_set is not None and self.spec.selection != "all":
            self._layer0_cols = nn.layer0_columns(self.arch, self.index_set)
        self._train_cols = self._layer0_cols if self.spec.reinit_nonselected else None
        self._group = cohort_group_size(self.arch, config.batch_size)

    def _layer0(self, inputs, cols):
        return None if cols is None else nn.layer0_cache(self.w0, self.arch,
                                                         inputs, cols)

    @functools.cached_property
    def _train_layer0(self):
        return self._layer0(self.train.inputs, self._train_cols)

    @functools.cached_property
    def _test_layer0(self):
        return self._layer0(self.test.inputs, self._layer0_cols)

    def _round_index_set(self, t):
        if self.index_set is not None:
            return self.index_set
        return compression.select_random(
            self.n, self.config.k(self.n), [102, self.config.seeds.sampling, t])

    def _local_updates(self, cohort, t, index_set):
        """Train the cohort locally in ceil(m / `cohort_group_size`) groups of
        near-equal size, one `local_update` call each; returns one K-vector
        update per client, in cohort order."""
        cfg = self.config
        m = len(cohort)
        n_groups = -(-m // self._group)
        updates = []
        for i in range(n_groups):
            group = cohort[i * m // n_groups:(i + 1) * m // n_groups]
            seeds = [[100, cfg.seeds.sampling, t, int(cid)] for cid in group]
            updates.extend(local_update(
                self.spec, self.train.inputs, self._targets, self.w, self.w0,
                self.arch, index_set, cfg.local_steps, cfg.learning_rate,
                cfg.batch_size, seeds, self._train_layer0, self._shards[group]))
        return updates

    def run_round(self):
        """Advance the global model by one round; returns this round's cohort."""
        cfg = self.config
        t = self.round_index + 1
        index_set = self._round_index_set(t)
        m = cfg.cohort_size
        rng = np.random.default_rng([103, cfg.seeds.sampling, t])
        cohort = np.sort(rng.choice(cfg.n_clients, size=m, replace=False))

        updates = self._local_updates(cohort, t, index_set)

        if self.spec.dp:
            masks = secure_agg.make_masks(m, len(index_set), [cfg.seeds.masks, t])
            masked = []
            for j, (cid, delta) in enumerate(zip(cohort, updates)):
                clipped = privacy.clip(delta, cfg.clip)
                noised = privacy.add_client_noise(
                    clipped, cfg.clip, cfg.sigma, m,
                    [cfg.seeds.noise, t, int(cid)])
                residues, clamps = secure_agg.encode(noised, self.codec)
                self.clamp_total += clamps
                masked.append(secure_agg.encrypt(residues, masks[j]))
            avg = secure_agg.aggregate_decode(masked, self.codec, m) / m
        else:
            avg = sum(updates) / m

        if len(index_set) == self.n:
            self.w = self.w + avg
        else:
            new_w = (self.w0 if self.spec.reinit_nonselected else self.w).copy()
            new_w[index_set] = self.w[index_set] + avg
            self.w = new_w
        self.round_index = t
        return cohort

    def evaluate(self):
        """Metrics of the current global model on the held-out test set."""
        x = self.test.inputs
        y = self.test.labels
        scores = nn.predict(self.w, self.arch, x, self._test_layer0)
        acc = accuracy(scores, y)
        bal = balanced_accuracy(scores, y)
        try:
            auc = auroc(scores, y) if self.arch.loss == "binary_cross_entropy" \
                else float("nan")
        except DataError:
            auc = float("nan")
        return acc, bal, auc

    def costs(self):
        cfg = self.config
        r = cfg.k(self.n) / self.n
        down_compressed = self.spec.selection != "all" and self.spec.fixed_across_rounds
        up_compressed = self.spec.selection != "all"
        down = bandwidth_cost(r, self.n, self.round_index,
                              cfg.sampling_rate, down_compressed)
        up = bandwidth_cost(r, self.n, self.round_index,
                            cfg.sampling_rate, up_compressed)
        return down, up

    def epsilon_so_far(self):
        if not self.spec.dp or self.round_index == 0:
            return float("nan")
        cfg = self.config
        eps, _ = privacy.epsilon(privacy.AccountantQuery(
            cfg.sigma, cfg.sampling_rate, self.round_index,
            cfg.delta, cfg.lambda_max))
        return eps


def run_experiment(config, train, part, test, public=None):
    """Run the configured number of rounds; returns (trace, summary)."""
    run = FederatedRun(config, train, part, test=test, public=public)
    trace = []
    for _ in range(config.rounds):
        run.run_round()
        acc, bal, auc = run.evaluate()
        down, up = run.costs()
        trace.append(RoundMetrics(run.round_index, acc, bal, auc, down, up,
                                  run.epsilon_so_far(), run.clamp_total))
    return trace, summarize(config, trace)


def summarize(config, trace):
    """Best-round summary matching the reported-results convention: all metrics
    of the round with the best (balanced, if binary) accuracy."""
    binary = config.arch.loss == "binary_cross_entropy"
    key = (lambda rm: rm.balanced_accuracy) if binary else (lambda rm: rm.accuracy)
    best = max(trace, key=key)
    return {
        "scheme": config.scheme,
        "ratio": config.ratio if config.spec.selection != "all" else 1.0,
        "best_metric": "balanced_accuracy" if binary else "accuracy",
        "best_value": key(best),
        "round": best.round,
        "accuracy": best.accuracy,
        "balanced_accuracy": best.balanced_accuracy,
        "auroc": best.auroc,
        "down_kb": best.down_kb,
        "up_kb": best.up_kb,
        "epsilon": best.epsilon,
        "clamps": best.clamps,
        "rounds": len(trace),
    }


def trace_to_csv(trace):
    """CSV text for a metrics trace; deterministic formatting."""
    lines = ["round,accuracy,balanced_accuracy,auroc,down_kb,up_kb,epsilon,clamps"]
    for rm in trace:
        lines.append(
            f"{rm.round},{rm.accuracy:.10g},{rm.balanced_accuracy:.10g},"
            f"{rm.auroc:.10g},{rm.down_kb:.10g},{rm.up_kb:.10g},"
            f"{rm.epsilon:.10g},{rm.clamps}")
    return "\n".join(lines) + "\n"
