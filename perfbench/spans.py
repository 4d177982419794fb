"""In-memory span tracer for the fltop package, and the arithmetic on spans.

`Tracer.install()` wraps each public function of each fltop module, and the
public methods of `FederatedRun`, at every module attribute that holds it.
That covers the sites a `from .nn import gradient` bound at import time
(`compression.gradient`, `cli.run_experiment`, ...), not only the defining
module. A span is `[name, start, end, parent]`: parent is the index of the
enclosing span, or -1. Spans stay in memory until the caller writes them out.

Counters are taken at the same boundaries by small hooks that read a call's
arguments and result (bytes shipped, noise values drawn, clients clipped).
"""

import functools
import importlib
import inspect
import time

import numpy as np

MODULES = ("data", "config", "compression", "nn", "privacy", "secure_agg",
           "federation", "cli")
FEDERATED_RUN_METHODS = ("run_round", "evaluate", "costs", "epsilon_so_far")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _count_topk_sgd(counters, args, kwargs, result):
    # topk_sgd(x, y, w, w0, arch, t_gd, indices, ...): K of n coordinates kept.
    steps = _arg(args, kwargs, 5, "t_gd")
    _add(counters, "grad_useful", len(_arg(args, kwargs, 6, "indices")) * steps)
    _add(counters, "grad_computed", len(_arg(args, kwargs, 3, "w0")) * steps)


def _count_sgd(counters, args, kwargs, result):
    # sgd(x, y, w, arch, t_gd, ...): every computed coordinate is used.
    work = len(_arg(args, kwargs, 2, "w")) * _arg(args, kwargs, 4, "t_gd")
    _add(counters, "grad_useful", work)
    _add(counters, "grad_computed", work)


def _count_clip(counters, args, kwargs, result):
    norm = float(np.linalg.norm(_arg(args, kwargs, 0, "delta_w")))
    _add(counters, "clip_calls", 1)
    _add(counters, "clipped", int(norm > _arg(args, kwargs, 1, "s")))


def _count_noise(counters, args, kwargs, result):
    _add(counters, "noise_values", int(np.size(result)))


def _count_masks(counters, args, kwargs, result):
    _add(counters, "mask_bytes", int(result.nbytes))


def _count_encode(counters, args, kwargs, result):
    _add(counters, "clamps", int(result[1]))


def _count_encrypt(counters, args, kwargs, result):
    _add(counters, "up_bytes", int(result.nbytes))


HOOKS = {
    "nn.topk_sgd": _count_topk_sgd,
    "nn.sgd": _count_sgd,
    "privacy.clip": _count_clip,
    "privacy.add_client_noise": _count_noise,
    "secure_agg.make_masks": _count_masks,
    "secure_agg.encode": _count_encode,
    "secure_agg.encrypt": _count_encrypt,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []
        self._patched = []

    def wrap(self, name, fn, hook=None):
        """`fn` recording one span per call, then running `hook` on the result."""
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Trace every fltop layer boundary; `uninstall` puts the originals back."""
        modules = {m: importlib.import_module(f"fltop.{m}") for m in MODULES}
        sites = list(modules.values()) + [importlib.import_module("fltop")]
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                name = f"{short}.{attr}"
                traced = self.wrap(name, fn, HOOKS.get(name))
                for site in sites:
                    for site_attr, value in list(vars(site).items()):
                        if value is fn:
                            self._patch(site, site_attr, traced)
        run_cls = modules["federation"].FederatedRun
        for method in FEDERATED_RUN_METHODS:
            if method in vars(run_cls):
                self._patch(run_cls, method,
                            self.wrap(f"federation.{method}", vars(run_cls)[method]))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# ---- arithmetic on a finished span list -------------------------------------

def _children(spans):
    kids = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            kids[parent].append(i)
    return kids


def covered(intervals, start, end):
    """Length of [start, end] covered by the union of `intervals`."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Per span: its duration minus the part its direct children cover."""
    kids = _children(spans)
    return [end - start - covered([(spans[k][1], spans[k][2]) for k in kids[i]],
                                  start, end)
            for i, (_, start, end, _) in enumerate(spans)]


def inclusive_time(spans, name):
    """Wall time inside calls of `name`, not counting a nested call twice."""
    total = 0.0
    for i, (span_name, start, end, _) in enumerate(spans):
        if span_name == name and not _has_ancestor(spans, i, name):
            total += end - start
    return total


def _has_ancestor(spans, i, name):
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metric -> the span whose inclusive wall time it reports.
INCLUSIVE = {
    "nn.topk_sgd_s": "nn.topk_sgd",
    "nn.sgd_s": "nn.sgd",
    "privacy.add_client_noise_s": "privacy.add_client_noise",
    "privacy.clip_s": "privacy.clip",
    "privacy.epsilon_s": "privacy.epsilon",
    "secure_agg.make_masks_s": "secure_agg.make_masks",
    "secure_agg.encode_s": "secure_agg.encode",
    "secure_agg.encrypt_s": "secure_agg.encrypt",
    "secure_agg.aggregate_decode_s": "secure_agg.aggregate_decode",
    "federation.evaluate_s": "federation.evaluate",
    "compression.select_topk_s": "compression.select_topk",
    "compression.compress_s": "compression.compress",
    "compression.expand_s": "compression.expand",
    "config.calibrate_clip_s": "config.calibrate_clip",
    "data.load_idx_s": "data.load_idx",
    "data.synth_imbalanced_s": "data.synth_imbalanced",
    "data.partition_s": "data.partition",
}
# Per-layer metric -> the span whose self time (own code, callees excluded) it reports.
SELF = {
    "federation.run_round_self_s": "federation.run_round",
    "config.resolve_self_s": "config.resolve",
}


def layer_metrics(spans, counters):
    """Per-layer metrics of one traced process, from its spans and counters."""
    out = {metric: inclusive_time(spans, name) for metric, name in INCLUSIVE.items()}
    own = self_times(spans)
    for metric, name in SELF.items():
        out[metric] = sum(t for t, s in zip(own, spans) if s[0] == name)

    def count(name):
        return sum(1 for s in spans if s[0] == name)

    kids = _children(spans)

    def calls_beneath(i, name):
        return any(spans[k][0] == name or calls_beneath(k, name) for k in kids[i])

    eps_calls = [i for i, s in enumerate(spans) if s[0] == "privacy.epsilon"]
    hits = sum(1 for i in eps_calls if not calls_beneath(i, "privacy.log_moment"))

    round_starts = [s[1] for s in spans if s[0] == "federation.run_round"]
    loops = [s for s in spans if s[0] == "federation.run_experiment"]
    if round_starts and loops:
        bounds = round_starts[:2] + [loops[-1][2]]
        first_round = bounds[1] - bounds[0]
    else:
        first_round = 0.0
    commands = [s for s in spans if s[0] == "cli.cmd_run"]
    write_outputs = commands[-1][2] - loops[-1][2] if commands and loops else 0.0

    out.update({
        "nn.gradient_calls": count("nn.gradient"),
        "nn.grad_useful_ratio": _ratio(counters.get("grad_useful", 0),
                                       counters.get("grad_computed", 0)),
        "privacy.noise_values": counters.get("noise_values", 0),
        "privacy.clip_fraction": _ratio(counters.get("clipped", 0),
                                        counters.get("clip_calls", 0)),
        "privacy.log_moment_calls": count("privacy.log_moment"),
        "privacy.moment_cache_hit_ratio": _ratio(hits, len(eps_calls)),
        "secure_agg.mask_bytes": counters.get("mask_bytes", 0),
        "secure_agg.clamps": counters.get("clamps", 0),
        "secure_agg.up_bytes_per_round": _ratio(counters.get("up_bytes", 0),
                                                len(round_starts)),
        "federation.first_round_s": first_round,
        "cli.write_outputs_s": write_outputs,
    })
    return out
