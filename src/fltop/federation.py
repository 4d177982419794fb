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
from dataclasses import asdict, dataclass, field, fields

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
    at least one. `np.random.default_rng` makes the same generator of them
    as of the list. With `ids`, (m,) ints below 2**32, row i of the (m, w)
    result is the words of `[*parts, ids[i]]`; `_generators` seeds a group
    of such rows in one pass."""
    words = [part >> shift & 0xFFFFFFFF for part in map(int, parts)
             for shift in range(0, max(part.bit_length(), 1), 32)]
    if ids is None:
        return np.array(words, dtype=np.uint32)
    out = np.empty((len(ids), len(words) + 1), dtype=np.uint32)
    out[:, :-1], out[:, -1] = words, ids
    return out


# `SeedSequence.generate_state` hashes the sequence's 4-word pool into
# PCG64's 8 state words with constants that do not depend on the pool: word
# i is pool[i % 4] ^ _HASH[i], times _HASH[i + 1], xor-shifted right by 16.
_HASH = np.array([0x8B51F9DD * pow(0x58F38DED, i, 1 << 32) % (1 << 32)
                  for i in range(9)], dtype=np.uint32)


@functools.cache
def _hashed_type():
    """The seed sequence type that hands PCG64 the state words `_generators`
    has hashed. It is made on first use because subclassing numpy's
    `ISeedSequence` imports `numpy.random`: imported with fltop, before the
    data are loaded, rather than at its first use, `numpy.random` slowed
    `wide-topk-dp`'s harness set-up and rounds by about 10% on a 2-vCPU
    VM, as that one import added at interpreter start-up did on its own."""

    class Hashed(np.random.bit_generator.ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state  # PCG64 asks only for its (4,) uint64 state

    return Hashed


def _generators(rows):
    """One `np.random.Generator` per row of seed words, bit for bit
    `np.random.default_rng(row)`'s: each row's `SeedSequence` pool, then the
    `generate_state` hash of every pool in one pass."""
    pools = np.array([np.random.SeedSequence(row).pool for row in rows])
    state = np.concatenate((pools, pools), axis=1)
    state ^= _HASH[:-1]
    state *= _HASH[1:]
    state ^= state >> 16
    # numpy reads the state words as little-endian uint64 on any host.
    state = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    hashed = _hashed_type()
    return [np.random.Generator(np.random.PCG64(hashed(row))) for row in state]


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
        raise ValueError("bandwidth arguments must be positive")
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
    With `layer0`, (x, layer0) is the training set's `nn.layer0_view`,
    which only a pinning scheme can use (see `nn.topk_sgd`).
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
# 784→100→10 1.35 MB with full model rows (G = 1) but 118 KB with the sub-
# model of a Top-K set on 7 layer-0 units and 200 input rows (G = 17).
# The group also sizes the DP pass: a DP round clips, noises, encodes and
# masks each group's (G, K) stack while it is still in cache. On the same
# VM, a pass per client ran 2.7% slower on the 20→64→2 and Top-K 784→100→10
# benchmark workloads, for its extra numpy calls, and a pass over the whole
# cohort's (m, K) stack ran slower on full 784→100→10 rows.
COHORT_GROUP_BYTES = 2 << 20


def cohort_group_size(arch, batch_size, indices=None):
    """How many clients one `nn.topk_sgd` call trains:
    max(1, COHORT_GROUP_BYTES // what the call holds for a client).

    The call holds a client's model row and gradient buffer, each
    `nn.model_size` values for the set `indices` it pins, if any, and per
    step its batch's activations and deltas, `batch_size` × (in + out)
    values a layer. Stacking removes per-client Python and numpy dispatch
    work but, once the group outgrows the cache, costs more in memory
    traffic than it saves.
    """
    values = 2 * nn.model_size(arch, indices) + batch_size * sum(
        layer.in_width + layer.out_width for layer in arch.layers)
    return max(1, COHORT_GROUP_BYTES // (8 * values))


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
    w0 outside the set after every round. So the run reads each dataset
    through its `nn.layer0_view` of w0 where `nn` says that pays, built on
    first use: the test set's when round 1 is scored, and the training
    set's in training if the scheme pins.

    A run has one worker thread, made on first use. Where a DP round's
    draws are large it draws the next round's noise and masks ahead (see
    `_plan`); where the draws run inline and the test set has a layer-0
    view, it scores round t while round t + 1 trains (see `_scores_ahead`).
    Never both in one run, and never a byte of difference from running
    everything inline.
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
        self._group = cohort_group_size(
            self.arch, config.batch_size,
            self.index_set if self.spec.reinit_nonselected else None)
        self._next = None  # the next round's `_plan`, once made
        self._worker = None  # a one-thread executor, once used

    @functools.cached_property
    def _train_view(self):
        pins = self.index_set is not None and self.spec.reinit_nonselected
        return nn.layer0_view(self.w0, self.arch, self.train.inputs,
                              self.index_set) if pins else None

    @functools.cached_property
    def _test_view(self):
        return None if self.index_set is None else nn.layer0_view(
            self.w0, self.arch, self.test.inputs, self.index_set)

    def _round_index_set(self, t):
        if self.index_set is not None:
            return self.index_set
        return compression.select_random(
            self.n, self.config.k(self.n), seed_words(102, self.config.seeds.sampling, t))

    def _draws_ahead(self):
        """Whether a DP round's draws run on the run's worker: when the
        round's largest group draws at least `DRAW_AHEAD_MIN_VALUES` noise
        values (G·K)."""
        m = self.config.cohort_size
        largest = -(-m // -(-m // self._group))
        return self.spec.dp and largest * self.config.k(self.n) >= DRAW_AHEAD_MIN_VALUES

    def _scores_ahead(self):
        """Whether `run_experiment` scores each round on the run's worker
        while the next round trains: where the test set is read through a
        layer-0 view and no draw runs on the worker, so the two never share
        its thread. Asking builds the view on the calling thread;
        `run_experiment` asks as each round ends, so the view is built once
        round 1 has trained, as `evaluate` would build it. The gate keeps
        the offload where the benchmark harness measured its gain, Top-K
        784→100→10 with inline draws, on a 2-vCPU VM. Ungated, on the
        Python-bound 20→64→2 Top-K benchmark workload, whole runs in
        process took 1.02× the inline time (2 wins of 8 pairs)."""
        return self._test_view is not None and not self._draws_ahead()

    def _submit(self, fn, *args):
        """`fn(*args)` as a future on the run's worker, a one-thread executor
        made on first use, whose thread exits once the run is freed."""
        if self._worker is None:
            self._worker = ThreadPoolExecutor(1, thread_name_prefix="fltop-draws")
        return self._worker.submit(fn, *args)

    def _plan(self, t):
        """Round t's cohort, its groups and, under DP, its
        `secure_agg.SecureSum`. The cohort's m clients are split into
        ceil(m / G) near-equal slices, one `local_update` call each. Under
        DP each slice comes with a call that gives its clients' (noise,
        masks), else with None. Inline the call draws; where `_draws_ahead`
        holds it is a future's `result` on the run's worker, whose one
        thread deals the masks in cohort order. Such a run never scores on
        the worker (see `_scores_ahead`). `draw` seeds its group's noise
        generators with `_generators`, so for draws the thread runs only
        `draw`, `_generators` (and `_hashed_type`), `privacy._noise` and
        `SecureSum.masks`, and for scores only `nn.predictor`'s closure: a
        profiler may wrap public functions with timers that are not
        thread-safe."""
        cfg = self.config
        rng = np.random.default_rng(seed_words(103, cfg.seeds.sampling, t))
        cohort = np.sort(rng.choice(cfg.n_clients, size=cfg.cohort_size, replace=False))
        m = len(cohort)
        n_groups = -(-m // self._group)
        slices = [slice(i * m // n_groups, (i + 1) * m // n_groups)
                  for i in range(n_groups)]
        if not self.spec.dp:
            return cohort, [(group, None) for group in slices], None
        k = cfg.k(self.n)
        noise_seeds = seed_words(cfg.seeds.noise, t, ids=cohort)
        secure_sum = secure_agg.SecureSum(self.codec, m, k,
                                          seed_words(cfg.seeds.masks, t))

        def draw(group):
            noise = privacy._noise(_generators(noise_seeds[group]), k, cfg.clip,
                                   cfg.sigma, m)
            return noise, secure_sum.masks(len(noise))

        ahead = self._draws_ahead()
        calls = [self._submit(draw, group).result if ahead
                 else functools.partial(draw, group) for group in slices]
        return cohort, list(zip(slices, calls)), secure_sum

    def run_round(self):
        """Advance the global model by one round; returns this round's cohort.

        Its generators are seeded by `seed_words`. Each group of the round's
        `_plan` is trained by one `local_update` call, with its clients'
        batch generators seeded in one `_generators` pass. Without DP the cohort
        mean is the running total of the updates, in cohort order. Under DP
        each group's stack, while it is fresh from training, is clipped,
        noised, encoded and masked in place, each row with its own client's
        seeds, and added to the round's secure sum, whose decoded total gives
        the mean. Once the round is summed the next round's plan is made, so
        draws on the run's worker (see `_draws_ahead`) overlap the round's
        scoring, which then runs inline, and the next round's training.
        Where draws run inline and the test set has a layer-0 view, it is
        the scoring that overlaps: `run_experiment` scores this round on
        the worker while the next one trains. Every byte is the same as
        with everything inline. A failed round is planned afresh when it is
        run again.
        """
        cfg = self.config
        t = self.round_index + 1
        index_set = self._round_index_set(t)
        (cohort, groups, secure_sum), self._next = self._next or self._plan(t), None
        seeds = seed_words(100, cfg.seeds.sampling, t, ids=cohort)
        x, layer0 = self._train_view or (self.train.inputs, None)
        total = clamps = 0
        for group, draw in groups:
            stack = local_update(
                self.spec, x, self._targets, self.w, self.w0, self.arch, index_set,
                cfg.local_steps, cfg.learning_rate, cfg.batch_size,
                _generators(seeds[group]),
                layer0, self._shards[cohort[group]])
            if secure_sum is None:
                for update in stack:
                    total = total + update
                continue
            noise, masks = draw()
            if len(noise) != len(stack):
                raise ProtocolError(f"round {t}: a group of {len(stack)} updates "
                                    f"against draws for {len(noise)} clients")
            noised = privacy.clip(stack, cfg.clip)
            noised += noise
            residues, clamped = secure_agg.encode(noised, self.codec)
            clamps += clamped
            secure_sum.add(residues, masks)
            del noise, masks  # not held while the next group trains
        avg = (total if secure_sum is None else secure_sum.decode()) / len(cohort)
        self.clamp_total += clamps  # a failed round counts none
        if t < cfg.rounds:
            self._next = self._plan(t + 1)

        if len(index_set) == self.n:
            self.w = self.w + avg
        else:
            new_w = (self.w0 if self.spec.reinit_nonselected else self.w).copy()
            new_w[index_set] = self.w[index_set] + avg
            self.w = new_w
        self.round_index = t
        return cohort

    def evaluate(self, pending=None):
        """Metrics of the current global model on the held-out test set; or,
        with `pending`, a call that gives a model's test scores (a scoring
        future's `result`), that model's metrics."""
        if self.test is None:
            raise ValueError("no test set: a run's metrics are scored on the "
                             "held-out test set")
        y = self.test.labels
        if pending is None:
            x, layer0 = self._test_view or (self.test.inputs, None)
            scores = nn.predict(self.w, self.arch, x, layer0, self.index_set, self.w0)
        else:
            scores = pending()
        acc, bal = accuracies(scores, y, self._test_counts)
        try:
            auc = auroc(scores, y) if self.arch.loss == "binary_cross_entropy" \
                else float("nan")
        except DataError:
            auc = float("nan")
        return acc, bal, auc

    def _round_metrics(self):
        """A call that gives the current round's `RoundMetrics`. Where
        `_scores_ahead` holds, the round's test scores are submitted to the
        worker and the call collects them; else the round is evaluated now."""
        ahead = self._scores_ahead()
        if ahead:
            x, layer0 = self._test_view
            pending = self._submit(nn.predictor(self.w, self.arch, x, layer0,
                                                self.index_set, self.w0)).result
        else:
            metrics = self.evaluate()
        row = self.round_index, *self.costs(), self.epsilon_so_far(), self.clamp_total
        return lambda: RoundMetrics(
            row[0], *(self.evaluate(pending) if ahead else metrics), *row[1:])

    def costs(self):
        cfg = self.config
        sparse = self.spec.selection != "all"
        return tuple(bandwidth_cost(cfg.k(self.n) / self.n, self.n, self.round_index,
                                    cfg.sampling_rate, compressed)
                     for compressed in (sparse and self.spec.fixed_across_rounds, sparse))

    def epsilon_so_far(self):
        if not self.spec.dp or self.round_index == 0:
            return float("nan")
        cfg = self.config
        eps, _ = privacy.epsilon(privacy.AccountantQuery(
            cfg.sigma, cfg.sampling_rate, self.round_index,
            cfg.delta, cfg.lambda_max))
        return eps


def run_experiment(config, train, part, test, public=None):
    """Run the configured number of rounds; returns (trace, summary).

    Each round is scored on the test set as it ends or, where
    `FederatedRun._scores_ahead` holds, on the run's worker while the next
    round trains; its scores are then collected, and its metrics computed,
    on this thread, the last round's before `summarize`. The trace is the
    same either way. A scoring error reaches the caller with its own type.
    """
    if test is None:
        raise ValueError("run_experiment needs a test set: every round is scored "
                         "on it")
    run = FederatedRun(config, train, part, test=test, public=public)
    trace, pending = [], None
    for _ in range(config.rounds):
        run.run_round()
        if pending is not None:
            trace.append(pending())
        pending = run._round_metrics()
    trace.append(pending())
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
        **asdict(best),
        "rounds": len(trace),
    }


def trace_to_csv(trace):
    """CSV text for a metrics trace, one column per `RoundMetrics` field;
    deterministic formatting."""
    names = [f.name for f in fields(RoundMetrics)]
    lines = [",".join(names)]
    for rm in trace:
        values = (getattr(rm, name) for name in names)
        lines.append(",".join(f"{v:.10g}" if isinstance(v, float) else str(v)
                              for v in values))
    return "\n".join(lines) + "\n"
