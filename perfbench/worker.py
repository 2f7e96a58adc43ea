"""One benchmark process: set up a workload, run passes, check outputs.

Started by ``run.py`` in a fresh interpreter with BLAS/OpenMP pinned to one
thread.  Prints one JSON object as its last line of standard output.  At
import it loads only the standard library, so that ``setup_s`` includes
importing numpy and scipy.

    python worker.py --workload NAME --seed N --seconds S --trace 0|1
                     --out DIR [--setup-only]

``setup_s`` runs from before ``import sdetci`` until the configs and models
are built; with ``--setup-only`` the process then times ``Reference`` once
and exits.  The first pass is a warm-up: its outputs are checked but its
time is not a sample.  Passes run until the next one would end after
``--seconds``, and at least ``MIN_PASSES`` are timed.  Each timed pass is
preceded by one run of ``Reference``; ``wall_per_ref`` is the median pass
time over the median reference time.  With ``--trace 1``
the warm-up pass also records the allocation peak inside ``simulate``, and
each later untraced pass is followed by a traced one, so the two walls come
from one process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "PYTHONHASHSEED")


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "worker_env": {k: os.environ.get(k) for k in ENV_VARS},
        "machine": platform.machine(),
    }


class Reference:
    """Fixed work that does not use sdetci, timed before every pass.

    A Python loop, numpy arithmetic on a 1 MB vector (in place, so it adds
    about 2 MB to the peak RSS) and many small numpy calls: the three kinds
    of work the workloads mix.  The host's speed drifts by about 1.5x over
    minutes, and a pass timed against this kernel drifts much less.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.vec = np.random.default_rng(0).random(131_072)
        self.tmp = np.empty_like(self.vec)
        self.small = np.random.default_rng(1).random((64, 64))

    def time(self):
        np = self.np
        t0 = time.perf_counter()
        s = 0
        for i in range(750_000):
            s += i * i
        for _ in range(550):
            np.multiply(self.vec, 1.5, out=self.tmp)
            np.add(self.tmp, 2.0, out=self.tmp)
            self.tmp.sum()
        for _ in range(15000):
            self.small.sum(axis=0)
        return time.perf_counter() - t0


class Tally:
    """Output checks attempted and failed, with the names of failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.errors = []

    def add(self, checks, error=None):
        self.attempted += len(checks)
        for name, ok in checks.items():
            if not ok:
                self.failed += 1
                self.failures[name] = self.failures.get(name, 0) + 1
        if error is not None:
            self.errors.append(error)

    @property
    def fail_ratio(self):
        return self.failed / self.attempted if self.attempted else 1.0

    def as_dict(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "fail_ratio": self.fail_ratio, "failures": self.failures,
                "errors": self.errors[:3]}


def run_pass(workloads, wl, state, tally, tracer=None):
    """One pass; returns its wall time.  Any exception fails the pass's checks.

    Garbage of earlier passes is collected first, outside the timed region,
    so that it is not freed (or kept alive) inside this one.
    """
    gc.collect()
    root = None if tracer is None else tracer.open("bench.pass")
    t0 = time.perf_counter()
    error = None
    outputs = None
    try:
        outputs = wl.run(state)
    except Exception:  # the benchmark keeps running and reports the failure
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    if root is not None:
        tracer.close(root)
    try:
        checks = workloads.run_checks(wl, state, outputs, error is not None)
    except Exception:
        error = traceback.format_exc()
        checks = workloads.run_checks(wl, state, None, True)
    tally.add(checks, error)
    return wall


def spread(values):
    """Interquartile range over the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def timing(values):
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "iqr_over_median": spread(values)}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    out_dir = Path(args.out)

    t0 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tracer = instr = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        instr = tracing.Instrumentation(tracer)
        instr.apply()
        root = tracer.open(tracing.ROOT_SETUP)
    state = wl.setup(args.seed, out_dir)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "ref_s": Reference().time()}))
        return 0

    result = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
              "env": environment()}
    tally = Tally()
    start = time.perf_counter()
    if tracer is None:
        ref = Reference()
        result["warmup_s"] = run_pass(workloads, wl, state, tally)
        walls, refs = [], []
        while True:
            refs.append(ref.time())
            walls.append(run_pass(workloads, wl, state, tally))
            elapsed = time.perf_counter() - start
            step = statistics.median(walls) + statistics.median(refs)
            if len(walls) >= MIN_PASSES and elapsed + step > args.seconds:
                break
        result["pass_s"] = walls
        result["ref_s"] = refs
        result["wall"] = timing(walls)
        result["ref"] = timing(refs)
        result["wall_per_ref"] = statistics.median(walls) / statistics.median(refs)
    else:
        tracer.close(root)
        setup_trace = tracer.take()
        tracer.track_alloc = True
        result["warmup_s"] = run_pass(workloads, wl, state, tally, tracer)
        tracer.track_alloc = False
        warm = tracer.take()
        plain, traced, per_pass, kept = [], [], [], [setup_trace, warm]
        while True:
            instr.restore()
            plain.append(run_pass(workloads, wl, state, tally))
            instr.apply()
            traced.append(run_pass(workloads, wl, state, tally, tracer))
            pt = tracer.take()
            kept.append(pt)
            per_pass.append(tracing.pass_metrics(pt))
            elapsed = time.perf_counter() - start
            pair = statistics.median(plain) + statistics.median(traced)
            if len(traced) >= MIN_TRACED_PAIRS and elapsed + pair > args.seconds:
                break
        instr.restore()
        layers = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        layers.update(tracing.setup_metrics(setup_trace))
        layers["simulate.peak_alloc_mb"] = warm.peak_alloc / 2**20
        layers["trace.untraced_wall_s"] = statistics.median(plain)
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        result["layers"] = {k: {"value": layers[k], "unit": unit}
                            for k, (unit, _) in tracing.PER_LAYER.items()}
        result["wall"] = timing(plain)
        result["traced_wall"] = timing(traced)
        result["spans_file"] = write_spans(kept, out_dir, args.workload, args.seed)
    result["checks"] = tally.as_dict()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def write_spans(traces, out_dir, workload, seed):
    """All spans of the run in one compressed file: set-up, warm-up, passes."""
    import numpy as np

    names = sorted({n for pt in traces for n in pt.names})
    index = {n: i for i, n in enumerate(names)}
    arrays = {"names": np.array(names)}
    for k, pt in enumerate(traces):
        arrays[f"p{k}_name"] = np.array([index[n] for n in pt.names], dtype=np.int16)
        arrays[f"p{k}_start"] = np.array(pt.starts)
        arrays[f"p{k}_end"] = np.array(pt.ends)
        arrays[f"p{k}_parent"] = np.array(pt.parents, dtype=np.int32)
    path = out_dir / f"spans-{workload}-seed{seed}.npz"
    np.savez_compressed(path, **arrays)
    return str(path)


if __name__ == "__main__":
    sys.exit(main())
