"""fltop benchmark: end-to-end run speed, set-up time and memory per workload,
and a separate traced run for the per-layer breakdown.

    python3 perfbench/run.py --workload small-topk-dp --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --trace 0   # every workload, end to end
    python3 perfbench/run.py --workload all --trace 1   # per-layer metrics, tracing overhead

Workloads are in gen.py. Each repeat is a fresh Python process (child.py) that
runs the package from `src/` with BLAS pinned to one thread, because a user
pays imports, the accountant's moment-cache fill and BLAS warm-up on every
`fltop run`. Repeats follow one another (one closed-loop caller) for about
--seconds, each between two timings of a fixed reference kernel (see
REFERENCE_NOMINAL_S). Every repeat is checked; see `sim_failures` and
`query_failures`. The last line printed for a workload is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones. An "op" is one
federated round in a simulation workload and one accountant query in
accountant-grid.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
# Pinned before numpy loads: the child processes inherit the setting, and the
# reference kernel below runs in this process under the same one.
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), BLAS_THREADS))

import numpy as np  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = Path(__file__).resolve().parent / "child.py"

MIN_REPEATS = 4
REPEAT_TIMEOUT_S = 120
TAIL_LADDER = (50, 90, 95, 99, 99.9, 99.99)
MIN_BEYOND_TAIL = 10

END_TO_END = {"setup_s": "s", "run_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "nn.topk_sgd_s": "s", "nn.sgd_s": "s", "nn.gradient_calls": "count",
    "nn.grad_useful_ratio": "ratio",
    "privacy.add_client_noise_s": "s", "privacy.noise_values": "count",
    "privacy.clip_s": "s", "privacy.clip_fraction": "ratio",
    "privacy.epsilon_s": "s", "privacy.log_moment_calls": "count",
    "privacy.moment_cache_hit_ratio": "ratio",
    "secure_agg.make_masks_s": "s", "secure_agg.mask_bytes": "bytes",
    "secure_agg.encode_s": "s", "secure_agg.encrypt_s": "s",
    "secure_agg.aggregate_decode_s": "s", "secure_agg.clamps": "count",
    "secure_agg.up_bytes_per_round": "bytes",
    "federation.first_round_s": "s", "federation.run_round_self_s": "s",
    "federation.evaluate_s": "s",
    "compression.select_topk_s": "s", "compression.compress_s": "s",
    "compression.expand_s": "s",
    "config.calibrate_clip_s": "s", "config.resolve_self_s": "s",
    "data.load_idx_s": "s", "data.synth_imbalanced_s": "s", "data.partition_s": "s",
    "cli.write_outputs_s": "s",
    "trace.overhead_s": "s",
}

_EPSILON_LINE = re.compile(r"epsilon = (\S+) \(lambda\* = (\d+)\)")


# ---- statistics ---------------------------------------------------------------

def percentile(values, p):
    """Linear-interpolation percentile (numpy's default rule)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest ladder percentile with at least MIN_BEYOND_TAIL of n samples above it."""
    best = None
    for p in TAIL_LADDER:
        if n * (100 - p) >= MIN_BEYOND_TAIL * 100 - 1e-9:
            best = p
    return best


# ---- correctness checks ---------------------------------------------------------

def _last_row(trace_csv):
    header, *rows = trace_csv.strip().splitlines()
    return dict(zip(header.split(","), rows[-1].split(",")))


def sim_failures(traces, floor):
    """Why each repeat of one simulation set failed ('' when it passed).

    `traces` holds each repeat's trace.csv text, or None when the run did not
    finish. A repeat fails if its trace differs from the set's first one, its
    final accuracy is below `floor`, or the secure sum clamped any value.
    """
    reasons = []
    for text in traces:
        if text is None:
            reasons.append("run did not finish")
            continue
        why = []
        if text != traces[0]:
            why.append("trace.csv differs from the first run")
        last = _last_row(text)
        if float(last["accuracy"]) < floor:
            why.append(f"final accuracy {last['accuracy']} < floor {floor}")
        if int(last["clamps"]) > 0:
            why.append(f"{last['clamps']} clamps")
        reasons.append("; ".join(why))
    return reasons


def query_failures(queries, records):
    """Why each accountant query failed ('' when its epsilon matches the oracle)."""
    reasons = []
    for (sigma, q, rounds), rec in zip(queries, records):
        found = _EPSILON_LINE.search(rec["stdout"])
        if rec["rc"] != 0 or not found:
            reasons.append(f"exit {rec['rc']}: {rec['stdout'].strip()!r}")
            continue
        expected = oracle.epsilon(sigma, q, rounds)
        if not oracle.agrees(float(found.group(1)), expected):
            reasons.append(f"epsilon {found.group(1)} != oracle {expected:.6g}")
        else:
            reasons.append("")
    return reasons


# ---- machine speed ----------------------------------------------------------------

# On a shared 2-vCPU VM (2.1 GHz Xeon), the whole VM runs 15-50% slower for
# phases of several minutes. CPU time slows as much as wall time and no steal
# time shows, so nothing inside a process can tell such a phase apart, and a
# whole run can lie inside one. Each repeat is therefore paired with a fixed
# reference kernel, timed in this process just before and just after it, and
# the gated times are given at the speed at which the kernel takes
# REFERENCE_NOMINAL_S (about its time on that VM when idle).
REFERENCE_NOMINAL_S = 0.15


def reference_kernel_s():
    """Seconds for a fixed mix of the work a round does, without fltop:
    interpreted Python, 10x784 by 784x100 matmuls, and arithmetic and Gaussian
    draws on 80,000-long vectors."""
    rng = np.random.default_rng(0)
    a, w = rng.standard_normal((10, 784)), rng.standard_normal((784, 100))
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    for _ in range(2000):
        a @ w
    for _ in range(40):
        (rng.standard_normal(80_000) * 3.0 + 1.0).astype(np.int64) % 65521
    return time.perf_counter() - start


def at_reference_speed(value, reference_s, unit):
    """A time (unit 's') or a rate (unit '1/s') measured while the reference
    kernel took reference_s, rescaled to the nominal kernel time."""
    factor = REFERENCE_NOMINAL_S / reference_s
    return value * factor if unit == "s" else value / factor


# ---- one repeat -------------------------------------------------------------------

def run_repeat(spec, work, traced):
    """Run one fresh-process repeat; returns its result dict (rc != 0 on failure)."""
    work.mkdir(parents=True)
    result_path = work / "result.json"
    if spec["kind"] == "sim":
        tail = ["run", spec["config"], str(work / "out")]
    else:
        tail = ["grid", spec["grid_path"]]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), "--src", str(SRC), "--t0", repr(t0),
             "--trace", str(int(traced)), "--result", str(result_path), *tail],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
            timeout=REPEAT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the child and waited for it.
        return {"rc": -1, "trace": int(traced),
                "error": f"no result within {REPEAT_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result_path.exists():
        return {"rc": proc.returncode or 1, "trace": int(traced),
                "error": (proc.stderr or proc.stdout).strip()[-500:]}
    result = json.loads(result_path.read_text())
    trace_path = work / "out" / "trace.csv"
    result["trace_csv"] = trace_path.read_text() if trace_path.exists() else None
    return result


def repeat_timings(result):
    """(setup_s, run_s, ops_per_s, steady op durations in ms) of one repeat."""
    t0 = result["t0"]
    if "queries" in result:
        recs = result["queries"]
        ops = [r["end"] - r["start"] for r in recs]
        start = recs[0]["start"]
        rate = len(ops) / (recs[-1]["end"] - start)
    else:
        bounds = result["round_starts"] + [result["loop_end"]]
        start = bounds[0]
        # Round 1 pays one-off costs (first accountant call); the rate is
        # taken over rounds 2..R.
        ops = [b - a for a, b in zip(bounds[1:], bounds[2:])]
        rate = len(ops) / (bounds[-1] - bounds[1])
    return start - t0, result["t_end"] - t0, rate, [1000.0 * d for d in ops]


# ---- one workload -------------------------------------------------------------------

def run_workload(workload, seed, seconds, trace, work):
    spec = gen.generate(workload, seed, work / "inputs")
    if spec["kind"] == "grid":
        spec["grid_path"] = str(work / "inputs" / "grid.json")
        Path(spec["grid_path"]).write_text(json.dumps(spec["queries"]))
    repeats, durations = [], []
    start = time.monotonic()
    before = reference_kernel_s()
    # With tracing, untraced and traced repeats alternate, so the overhead is
    # measured on the same machine state.
    while (len(repeats) < MIN_REPEATS * (1 + trace) or (trace and len(repeats) % 2)
           or keep_going(time.monotonic() - start, durations, seconds)):
        traced = bool(trace) and len(repeats) % 2 == 1
        t = time.monotonic()
        result = run_repeat(spec, work / f"repeat{len(repeats)}", traced)
        after = reference_kernel_s()
        result["reference_s"] = (before + after) / 2
        before = after
        repeats.append(result)
        durations.append(time.monotonic() - t)
    return spec, repeats


def keep_going(elapsed, durations, seconds):
    """Start another repeat only if a typical one still ends within `seconds`,
    so that a run measures for --seconds, not --seconds plus one repeat."""
    return elapsed + statistics.median(durations) <= seconds


def check_repeats(spec, repeats):
    """(attempted, failed, per-repeat lines) after checking every output."""
    lines = []
    if spec["kind"] == "sim":
        reasons = sim_failures([r.get("trace_csv") for r in repeats], spec["floor"])
        for i, (r, why) in enumerate(zip(repeats, reasons)):
            sha = (hashlib.sha256(r["trace_csv"].encode()).hexdigest()
                   if r.get("trace_csv") else "-")
            tag = "traced" if r["trace"] else "untraced"
            lines.append(f"repeat {i} ({tag}): trace.csv sha256 {sha} "
                         f"{'FAIL ' + why if why else 'ok'}"
                         + (f" [{r['error']}]" if r.get("error") else ""))
        return len(reasons), sum(1 for w in reasons if w), lines
    attempted = failed = 0
    for i, r in enumerate(repeats):
        if r["rc"] != 0:
            attempted += len(spec["queries"])
            failed += len(spec["queries"])
            lines.append(f"repeat {i}: FAIL [{r['error']}]")
            continue
        reasons = query_failures(spec["queries"], r["queries"])
        attempted += len(reasons)
        failed += sum(1 for w in reasons if w)
        bad = [w for w in reasons if w]
        lines.append(f"repeat {i}: {len(reasons) - len(bad)}/{len(reasons)} epsilons "
                     f"match the oracle (rel. tol. {oracle.REL_TOLERANCE:g})"
                     + (f"; first failure: {bad[0]}" if bad else ""))
    return attempted, failed, lines


def end_to_end_metrics(repeats):
    """Gated end-to-end metrics of the untraced repeats, and the rows to print.

    Every gated value is a median over repeats; times and rates are taken at
    reference speed (see REFERENCE_NOMINAL_S). The rows hold the values as
    measured. Op times (median and tail) and the reference kernel's times are
    printed, not gated.
    """
    done = [r for r in repeats if r["rc"] == 0 and not r["trace"]]
    if not done:
        return {}, []
    timed = ("setup_s", "run_s", "ops_per_s")
    measured = {name: [] for name in timed}
    scaled = {name: [] for name in timed}
    ops = []
    for r in done:
        *values, op_ms = repeat_timings(r)
        ops.extend(op_ms)
        for name, value in zip(timed, values):
            measured[name].append(value)
            scaled[name].append(
                at_reference_speed(value, r["reference_s"], END_TO_END[name]))
    rss = [r["maxrss_kb"] / 1024.0 for r in done]
    metrics = {name: statistics.median(scaled[name]) for name in timed}
    metrics["peak_rss_mb"] = statistics.median(rss)
    rows = [(name, END_TO_END[name], measured[name], metrics[name]) for name in timed]
    rows += [("op_ms", "ms", ops, None),
             ("peak_rss_mb", "MB", rss, metrics["peak_rss_mb"]),
             ("reference_s", "s", [r["reference_s"] for r in done], None)]
    return metrics, rows


def per_layer_metrics(repeats):
    """Medians over the traced repeats, and the tracing overhead: the median
    traced run_s minus the median untraced one, both at reference speed."""
    per_repeat = [spans.layer_metrics(r["spans"], r["counters"])
                  for r in repeats if r["rc"] == 0 and r["trace"]]
    if not per_repeat:
        return {}, 0
    metrics = {name: statistics.median(m[name] for m in per_repeat)
               for name in PER_LAYER if name != "trace.overhead_s"}

    def run_s(traced):
        return statistics.median(
            at_reference_speed(r["t_end"] - r["t0"], r["reference_s"], "s")
            for r in repeats if r["rc"] == 0 and bool(r["trace"]) == traced)

    metrics["trace.overhead_s"] = run_s(True) - run_s(False)
    return metrics, len(per_repeat)


# ---- output -------------------------------------------------------------------------

def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload, seed, seconds, trace, spec, repeats):
    """Print the human-readable block, then the JSON line; returns True if all passed."""
    print(f"# workload {workload}  seed {seed}  seconds {seconds}  trace {trace}  "
          f"repeats {len(repeats)}")
    env = next((r["env"] for r in repeats if r["rc"] == 0), None)
    if env:
        print("# env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    attempted, failed, lines = check_repeats(spec, repeats)
    for line in lines:
        print("#   " + line)
    if trace:
        metrics, traced = per_layer_metrics(repeats)
        units = PER_LAYER
        print(f"# per-layer metrics, median of {traced} traced repeats")
        for name in units:
            if name in metrics:
                print(f"#   {name:32s} {_fmt(metrics[name]):>14s} {units[name]}")
        if metrics:
            print(f"# tracing overhead (trace.overhead_s): median traced minus "
                  f"median untraced run_s at reference speed = "
                  f"{metrics['trace.overhead_s']:.4f} s")
    else:
        metrics, rows = end_to_end_metrics(repeats)
        units = END_TO_END
        if rows:
            op = "round" if spec["kind"] == "sim" else "accountant query"
            print(f"# end-to-end metrics; an op is one {op}; tail is the highest "
                  f"of {'/'.join(f'p{p:g}' for p in TAIL_LADDER)} with >= "
                  f"{MIN_BEYOND_TAIL} samples beyond it")
            print(f"#   as measured, and the gated median (times and rates at the "
                  f"speed where the reference kernel takes {REFERENCE_NOMINAL_S} s)")
            print(f"#   {'metric':12s} {'unit':>4s} {'median':>10s} {'tail':>18s} "
                  f"{'samples':>7s}  gated value")
            for name, unit, values, gated in rows:
                p = tail_percentile(len(values))
                tail = f"{percentile(values, p):.5g} (p{p:g})" if p is not None else "n/a"
                gated = "not gated" if gated is None else f"{gated:.5g}"
                print(f"#   {name:12s} {unit:>4s} {statistics.median(values):10.5g} "
                      f"{tail:>18s} {len(values):7d}  {gated}")
    print(f"#   failed_run_share = {failed}/{attempted} = "
          f"{failed / attempted if attempted else 1.0:.4g}")
    if not metrics:
        print("error: no repeat finished; no metrics", file=sys.stderr)
        return False
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }), flush=True)
    return True


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "fltop" / "__init__.py").is_file():
        print(f"error: no fltop package under {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # running child and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    try:
        for workload in workloads:
            work = WORK / f"{workload}-{args.seed}-{os.getpid()}"
            try:
                spec, repeats = run_workload(workload, args.seed, args.seconds,
                                             args.trace, work)
                ok = report(workload, args.seed, args.seconds, args.trace,
                            spec, repeats) and ok
            finally:
                shutil.rmtree(work, ignore_errors=True)
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
