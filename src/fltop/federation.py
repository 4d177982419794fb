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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import compression, nn, privacy, secure_agg
from .data import to_targets
from .errors import ConfigError, DataError, ProtocolError

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
    """The `federation.seeds` section: ints >= 0 of any size."""
    model: int = 0
    sampling: int = 1
    noise: int = 2
    masks: int = 3

    def __post_init__(self):
        for key, value in vars(self).items():
            if value < 0:
                raise ConfigError(f"federation.seeds.{key} must be >= 0, got {value}")


def seed_words(*parts, ids=None):
    """The uint32 words that `np.random.SeedSequence` makes of the list seed
    `[*parts]` of non-negative ints: each part's little-endian 32-bit words,
    at least one. `np.random.default_rng` takes them faster, to the same
    generator. With `ids`, (m,) ints below 2**32, row i of the (m, w)
    result is the words of `[*parts, ids[i]]`."""
    words = [part >> shift & 0xFFFFFFFF for part in map(int, parts)
             for shift in range(0, max(part.bit_length(), 1), 32)]
    if ids is None:
        return np.array(words, dtype=np.uint32)
    out = np.empty((len(ids), len(words) + 1), dtype=np.uint32)
    out[:, :-1], out[:, -1] = words, ids
    return out


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


def accuracies(scores, labels, counts=None):
    """(accuracy, balanced accuracy) from one hard prediction a row; scores
    are softmax rows or a sigmoid column. Balanced accuracy is the mean
    recall over the classes present, (TPR + TNR)/2 in the binary case.
    `counts` is `np.bincount(labels)`, for labels scored again and again."""
    scores = np.asarray(scores)
    hits = labels == (scores.argmax(axis=1) if scores.ndim == 2 and scores.shape[1] > 1
                      else scores.reshape(-1) >= 0.5)
    counts = np.bincount(labels) if counts is None else counts
    present = counts > 0
    recalls = np.bincount(labels[hits], minlength=len(counts))[present] / counts[present]
    return float(np.mean(hits)), float(np.mean(recalls))


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
    if not (full or spec.reinit_nonselected):
        local = local.take(index_set, axis=-1)
    local -= w if full else w[index_set]
    return local


# The footprint, in bytes, that one stacked local-SGD call may span: the L2
# cache of one core (2 MiB) of the 2-vCPU Xeon VM where, on 20→64→2 with a
# Top-K set, a round ran 2.1× faster at G = 10 than at G = 1 (median of 300
# interleaved rounds). A client takes 35 KB there (G = 58), and on
# 784→100→10 1.35 MB with full model rows (G = 1) but 184 KB with the
# compact sub-model of a Top-K set that touches 7 layer-0 units (G = 11).
# The group also sizes the DP pass: a DP round clips, noises, encodes and
# masks each group's (G, K) stack while it is still in cache. On the same
# VM, a pass per client ran 2.7% slower on the 20→64→2 and Top-K 784→100→10
# benchmark workloads, for its extra numpy calls, and a pass over the whole
# cohort's (m, K) stack ran slower on full 784→100→10 rows.
COHORT_GROUP_BYTES = 2 << 20


def cohort_group_size(arch, batch_size, layer0_cols=None):
    """How many clients one `nn.topk_sgd` call trains:
    max(1, COHORT_GROUP_BYTES // what the call holds for a client).

    The call holds a client's model row and gradient buffer, n float64
    values each, or under a layer-0 cache over the units `layer0_cols` the
    compact sub-model's (see `nn._index_set`), and per step its batch's
    activations and deltas, `batch_size` × (in + out) values a layer.
    Stacking removes per-client Python and numpy dispatch work but, once the
    group outgrows the cache, costs more in memory traffic than it saves.
    """
    first = arch.layers[0]
    clean = 0 if layer0_cols is None else first.out_width - len(layer0_cols)
    values = 2 * (arch.n_params - clean * (first.in_width + 1)) + batch_size * sum(
        layer.in_width + layer.out_width for layer in arch.layers)
    return max(1, COHORT_GROUP_BYTES // (8 * values))


def _group_slices(m, size):
    """ceil(m / size) near-equal slices of a cohort of m, in cohort order."""
    n_groups = -(-m // size)
    return [slice(i * m // n_groups, (i + 1) * m // n_groups) for i in range(n_groups)]


# The fewest noise values (G·K) that a DP round's largest training group
# must draw for the round's draws to run on the run's draw worker, ahead
# of training. Below it the same draws run inline, as the round reaches each
# group. On the 2-vCPU VM, whole runs with every group on the worker, in
# 8 alternating pairs in one process, took 0.81× the inline time with
# full 784→100→10 rows (G·K = 79,510) but 1.04× on the Python-bound
# 20→64→2 Top-K benchmark workload (G·K = 740, 1 win of 8) and 1.01× on
# Top-K 784→100→10 (G·K = 3,980).
DRAW_AHEAD_MIN_VALUES = 1 << 15


class FederatedRun:
    """One federated training run; advances round by round.

    The DP path never exposes an individual client's unmasked noised update:
    each client's residues are masked before they reach the round's
    `secure_agg.SecureSum`, and the server sees only their modular sum.

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
        self._test_counts = None if test is None else np.bincount(test.labels)
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
        self._group = cohort_group_size(self.arch, config.batch_size,
                                        self._train_cols)
        m = config.cohort_size
        self._groups = _group_slices(m, self._group)
        # Under DP, whether each round's noise and masks are drawn on the
        # draw worker, and the next round's submitted there, ahead of training.
        self._draw_ahead = self.spec.dp and (
            -(-m // len(self._groups)) * config.k(self.n) >= DRAW_AHEAD_MIN_VALUES)
        self._ahead = None  # the next round's `_draws`, if submitted
        self._draw_worker = None  # a one-thread executor, once used

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
            self.n, self.config.k(self.n), seed_words(102, self.config.seeds.sampling, t))

    def _local_updates(self, cohort, t, index_set):
        """Train the cohort locally in ceil(m / `cohort_group_size`) groups of
        near-equal size, one `local_update` call each; yields, group by
        group in cohort order, the group's slice of the cohort and its
        (G, K) stack of updates, one row a client."""
        cfg = self.config
        seeds = seed_words(100, cfg.seeds.sampling, t, ids=cohort)
        for group in _group_slices(len(cohort), self._group):
            yield group, local_update(
                self.spec, self.train.inputs, self._targets, self.w, self.w0,
                self.arch, index_set, cfg.local_steps, cfg.learning_rate,
                cfg.batch_size, seeds[group], self._train_layer0,
                self._shards[cohort[group]])

    def _cohort(self, t):
        cfg = self.config
        rng = np.random.default_rng(seed_words(103, cfg.seeds.sampling, t))
        return np.sort(rng.choice(cfg.n_clients, size=cfg.cohort_size, replace=False))

    def _draws(self, t):
        """DP round t's cohort, noise seed words and `secure_agg.SecureSum`,
        and for each group in `self._groups` a call that gives its clients'
        (noise, masks). Inline the call draws; ahead it is a future's
        `result` on the run's draw worker, whose one thread deals the masks
        in cohort order and exits once the run is freed. The thread runs
        only `draw`, `privacy._noise` and `SecureSum.masks`: a profiler may
        wrap public functions with timers that are not thread-safe."""
        cfg = self.config
        cohort = self._cohort(t)
        noise_seeds = seed_words(cfg.seeds.noise, t, ids=cohort)
        k = cfg.k(self.n)
        secure_sum = secure_agg.SecureSum(self.codec, len(cohort), k,
                                          seed_words(cfg.seeds.masks, t))

        def draw(group):
            noise = privacy._noise(noise_seeds[group], k, cfg.clip, cfg.sigma,
                                   len(cohort))
            return noise, secure_sum.masks(len(noise))

        if self._draw_ahead and self._draw_worker is None:
            self._draw_worker = ThreadPoolExecutor(1, thread_name_prefix="fltop-draws")
        calls = [self._draw_worker.submit(draw, group).result if self._draw_ahead
                 else functools.partial(draw, group) for group in self._groups]
        return cohort, noise_seeds, secure_sum, calls

    def _secure_mean(self, t, index_set):
        """Round t's cohort and the mean of its clients' updates through the
        secure sum. Each group's stack, while it is fresh from training, is
        clipped, noised, encoded and masked in place, each row with its own
        client's seeds, and added to the round's `secure_agg.SecureSum`.
        The stacks must come in the run's groups: each is paired with the
        next group's draws, which are freed once added."""
        cfg = self.config
        draws, self._ahead = self._ahead or self._draws(t), None
        cohort, noise_seeds, secure_sum, calls = draws
        m = len(cohort)
        for group, stack in self._local_updates(cohort, t, index_set):
            if not calls:
                raise ProtocolError(f"round {t} has no draws past its {m} clients")
            noise, masks = calls.pop(0)()
            if len(noise) != len(stack):
                raise ProtocolError(f"round {t}: a group of {len(stack)} updates "
                                    f"against draws for {len(noise)} clients")
            noised = privacy.add_client_noise(
                privacy.clip(stack, cfg.clip), cfg.clip, cfg.sigma, m,
                noise_seeds[group], noise)
            residues, clamps = secure_agg.encode(noised, self.codec)
            self.clamp_total += clamps
            secure_sum.add(residues, masks)
            del noise, masks  # not held while the next group trains
        return cohort, secure_sum.decode() / m

    def run_round(self):
        """Advance the global model by one round; returns this round's cohort.

        Its generators are seeded by `seed_words`. Under DP the cohort mean
        is the decoded secure sum of `_secure_mean`. Its noise and masks read
        no data: with groups of at least `DRAW_AHEAD_MIN_VALUES` noise values
        they are drawn on the run's draw worker, and once this round is
        summed the next round's are submitted, so they overlap `evaluate`
        and the next round's training. Every byte is the same as when drawn
        inline.
        """
        cfg = self.config
        t = self.round_index + 1
        index_set = self._round_index_set(t)
        m = cfg.cohort_size
        if self.spec.dp:
            cohort, avg = self._secure_mean(t, index_set)
            if self._draw_ahead and t < cfg.rounds:
                self._ahead = self._draws(t + 1)
        else:
            cohort = self._cohort(t)
            groups = self._local_updates(cohort, t, index_set)
            avg = sum(update for _, stack in groups for update in stack) / m

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
        acc, bal = accuracies(scores, y, self._test_counts)
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
