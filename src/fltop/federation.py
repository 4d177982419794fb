"""Round orchestration for the full scheme matrix.

Scheme axes: which coordinates are trained (top-k / random / all), whether the
index set is fixed across rounds or redrawn, whether non-selected coordinates
are re-pinned to the initial model during local SGD, and whether the update
path is differentially private (clip + noise + masked aggregation).
"""

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
    arch: nn.ArchSpec
    scheme: str
    n_clients: int
    sampling_fraction: float
    rounds: int
    local_steps: int
    batch_size: int
    learning_rate: float
    ratio: float = 1.0            # K = round(ratio * n), ignored for selection=all
    sigma: float = 1.0
    delta: float = 1e-5
    clip_s: float = 1.0           # DP clipping threshold S
    t_init: int = 5
    lam_max: int = 64
    frac_bits: int = 32
    seeds: Seeds = field(default_factory=Seeds)

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(
                f"unknown scheme {self.scheme!r}; valid: {', '.join(sorted(SCHEMES))}")
        if not 0 < self.sampling_fraction <= 1:
            raise ConfigError("sampling fraction must be in (0, 1]")
        if self.cohort_size < 1:
            raise ConfigError("sampling fraction selects no client")
        if not 0 < self.ratio <= 1:
            raise ConfigError("compression ratio must be in (0, 1]")

    @property
    def spec(self):
        return SCHEMES[self.scheme]

    @property
    def cohort_size(self):
        return int(round(self.sampling_fraction * self.n_clients))

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
    from scipy.stats import rankdata
    ranks = rankdata(scores)
    u = ranks[labels == 1].sum() - len(pos) * (len(pos) + 1) / 2.0
    return float(u / (len(pos) * len(neg)))


def _hard_predictions(scores):
    scores = np.asarray(scores)
    if scores.ndim == 2 and scores.shape[1] > 1:
        return scores.argmax(axis=1)
    return (scores.reshape(-1) >= 0.5).astype(np.int64)


class FederatedRun:
    """One federated training run; advances round by round.

    The DP path never exposes an individual client's unmasked noised update:
    clients hand back MaskedUpdate residues only, and the server sees their
    modular sum.
    """

    def __init__(self, config, train, part, test=None, public=None):
        self.config = config
        self.spec = config.spec
        self.train = train
        self.part = part
        self.test = test
        self.public = public
        self.arch = config.arch
        self.w0 = nn.init_model(self.arch, config.seeds.model)
        self.w = self.w0.copy()
        self.n = len(self.w0)
        self.codec = secure_agg.FixedPointCodec(config.frac_bits)
        self.round_index = 0
        self.clamp_total = 0
        self.index_set = self._initial_index_set()
        self._targets_cache = {}

    def _initial_index_set(self):
        cfg = self.config
        if self.spec.selection == "all":
            return compression.full_set(self.n)
        k = cfg.k(self.n)
        if self.spec.selection == "topk":
            if self.public is None:
                raise ConfigError("top-k selection requires a public batch")
            px, py = self.public
            return compression.select_topk(
                self.w0, self.arch, px, to_targets(py, self.arch),
                cfg.t_init, k, cfg.learning_rate)
        if self.spec.fixed_across_rounds:
            return compression.select_random(self.n, k, [101, cfg.seeds.sampling])
        return None  # redrawn each round

    def _round_index_set(self, t):
        if self.index_set is not None:
            return self.index_set
        return compression.select_random(
            self.n, self.config.k(self.n), [102, self.config.seeds.sampling, t])

    def _client_batch(self, client_id):
        idx = self.part.assignments[client_id]
        key = int(client_id)
        if key not in self._targets_cache:
            self._targets_cache[key] = (
                self.train.inputs[idx],
                to_targets(self.train.labels[idx], self.arch))
        return self._targets_cache[key]

    def _local_update(self, client_id, t, index_set):
        """Train one client locally; returns its compressed update."""
        cfg = self.config
        x, y = self._client_batch(client_id)
        seed = [100, cfg.seeds.sampling, t, int(client_id)]
        if self.spec.reinit_nonselected and self.spec.selection != "all":
            idx = index_set.indices
            local = nn.topk_sgd(x, y, self.w, self.w0, self.arch, cfg.local_steps,
                                idx, cfg.learning_rate, cfg.batch_size, seed)
            return local[idx] - self.w[idx]
        local = nn.sgd(x, y, self.w, self.arch, cfg.local_steps,
                       cfg.learning_rate, cfg.batch_size, seed)
        return compression.compress(local - self.w, index_set)

    def run_round(self):
        """Advance the global model by one round; returns this round's cohort."""
        cfg = self.config
        t = self.round_index + 1
        index_set = self._round_index_set(t)
        m = cfg.cohort_size
        rng = np.random.default_rng([103, cfg.seeds.sampling, t])
        cohort = np.sort(rng.choice(cfg.n_clients, size=m, replace=False))

        updates = [self._local_update(cid, t, index_set) for cid in cohort]

        if self.spec.dp:
            masks = secure_agg.make_masks(m, index_set.k, [cfg.seeds.masks, t])
            masked = []
            for j, (cid, delta) in enumerate(zip(cohort, updates)):
                clipped = privacy.clip(delta, cfg.clip_s)
                noised = privacy.add_client_noise(
                    clipped, cfg.clip_s, cfg.sigma, m,
                    [cfg.seeds.noise, t, int(cid)])
                residues, clamps = secure_agg.encode(noised, self.codec)
                self.clamp_total += clamps
                masked.append(secure_agg.encrypt(residues, masks[j]))
            avg = secure_agg.aggregate_decode(masked, self.codec, m) / m
        elif self.spec.selection == "all":
            sizes = np.array([len(self.part.assignments[c]) for c in cohort],
                             dtype=np.float64)
            if np.all(sizes == sizes[0]):
                avg = sum(updates) / m
            else:
                weights = sizes / sizes.sum()
                avg = sum(wt * u for wt, u in zip(weights, updates))
        else:
            avg = sum(updates) / m

        if self.spec.selection == "all":
            new_w = self.w + avg
        elif self.spec.reinit_nonselected:
            new_w = self.w0.copy()
            new_w[index_set.indices] = self.w[index_set.indices] + avg
        else:
            new_w = self.w.copy()
            new_w[index_set.indices] += avg
        self.w = new_w
        self.round_index = t
        return cohort

    def evaluate(self):
        """Metrics of the current global model on the held-out test set."""
        x = self.test.inputs
        y = self.test.labels
        scores = nn.predict(self.w, self.arch, x)
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
                              cfg.sampling_fraction, down_compressed)
        up = bandwidth_cost(r, self.n, self.round_index,
                            cfg.sampling_fraction, up_compressed)
        return down, up

    def epsilon_so_far(self):
        if not self.spec.dp or self.round_index == 0:
            return float("nan")
        cfg = self.config
        eps, _ = privacy.epsilon(privacy.AccountantQuery(
            cfg.sigma, cfg.sampling_fraction, self.round_index,
            cfg.delta, cfg.lam_max))
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
    if not trace:
        return {"scheme": config.scheme, "rounds": 0}
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
