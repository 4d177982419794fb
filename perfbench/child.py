"""One benchmark repeat, in a fresh Python process.

    python3 perfbench/child.py --src SRC --t0 T --trace 0|1 --result OUT.json run CONFIG OUTDIR
    python3 perfbench/child.py --src SRC --t0 T --trace 0|1 --result OUT.json grid GRID.json

`run` is one `fltop run` (`fltop.cli.main`); `grid` is one `fltop accountant`
call per query of the grid file. T is the parent's `time.monotonic()` just
before it started this process, so set-up time includes interpreter start and
imports. With --trace 0 only round starts and the end of the round loop are
time-stamped (one clock read each); with --trace 1 every layer boundary is a
span. The result file is written when the work is done.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _stamp_rounds(federation, marks):
    """Record the start of every round and the end of the round loop."""
    run_round = federation.FederatedRun.run_round
    summarize = federation.summarize

    def stamped_run_round(self):
        marks["round_starts"].append(time.monotonic())
        return run_round(self)

    def stamped_summarize(*args, **kwargs):
        # run_experiment summarizes right after its last round.
        marks["loop_end"] = time.monotonic()
        return summarize(*args, **kwargs)

    federation.FederatedRun.run_round = stamped_run_round
    federation.summarize = stamped_summarize


def _environment():
    import numpy
    import scipy

    def blas(module):
        try:
            dep = module.__config__.CONFIG["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (AttributeError, KeyError):
            return "unknown"

    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}


def _accountant(cli, sigma, q, rounds):
    out = io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["accountant", "--sigma", repr(sigma), "--sampling", repr(q),
                       "--rounds", str(rounds)])
    return {"start": start, "end": time.monotonic(), "rc": rc,
            "stdout": out.getvalue()}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--result", required=True)
    p.add_argument("kind", choices=("run", "grid"))
    p.add_argument("paths", nargs="+")
    args = p.parse_args()

    from fltop import cli, federation
    if Path(cli.__file__).resolve().parents[1] != Path(args.src).resolve():
        sys.exit(f"fltop imported from {cli.__file__}, not from {args.src}")

    marks = {"round_starts": [], "loop_end": None}
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    else:
        _stamp_rounds(federation, marks)

    result = {"trace": args.trace, "t0": args.t0}
    if args.kind == "run":
        config, out_dir = args.paths
        result["rc"] = cli.main(["run", config, "--output-dir", out_dir])
        result["t_end"] = time.monotonic()
        result.update(marks)
    else:
        queries = json.loads(Path(args.paths[0]).read_text())
        records = [_accountant(cli, *query) for query in queries]
        result["rc"] = 0
        result["t_end"] = records[-1]["end"]
        result["queries"] = records
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
    result["env"] = _environment()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
