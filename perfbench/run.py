"""Benchmark of the sdetci lab: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload tail_sweep|transform|invariance|all
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
Each workload runs in a fresh process with BLAS/OpenMP pinned to one
thread and ``PYTHONHASHSEED=0``.  With ``--trace 0`` the end-to-end metrics are measured:

* ``wall_per_ref``: the median seconds per warm pass (``wall_s``, printed
  too) over the median time of a fixed reference kernel run before each
  pass in the same process; it stands in for ``wall_s`` on a host whose
  speed drifts;
* ``setup_s``: median, over ``SETUP_PROBES`` fresh processes, of the time to
  import sdetci and build the workload's configs and models, each scaled by
  ``REFERENCE_S`` over the reference kernel's time in the same process
  (the unscaled median is printed as ``setup_wall_s``);
* ``peak_rss_mb``: peak resident memory of the workload process.

Output checks failed over checks attempted (``fail_ratio``) go to the
``failed`` and ``attempted`` fields.  With ``--trace 1`` a separate run
wraps each module's entry points and reports the per-layer metrics of
``tracing.PER_LAYER``.  The last line of standard output is one JSON
object; lines before it print every metric by name with its unit, and the
full result is saved under ``.perfbench_out/``.  Exits non-zero without a
result when the package or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("tail_sweep", "transform", "invariance")
SETUP_PROBES = 5
# ``worker.Reference`` takes about this long on an unloaded 2-vCPU Xeon
# KVM guest; ``setup_s`` is the set-up time scaled to that speed
REFERENCE_S = 0.2
DEADLINE_S = 170.0
# one BLAS/OpenMP thread, and str hashing fixed so that two runs differ
# only by their seed and the host
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker(args, deadline):
    env = dict(os.environ, **WORKER_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--out", str(OUT_DIR)] + args
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker timed out: {' '.join(args)}") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed with exit code {proc.returncode}: {' '.join(args)}")
    try:
        return json.loads(lines[-1])
    except ValueError as e:
        raise BenchError(f"worker printed no result: {' '.join(args)}") from e


def _end_to_end(name, seed, seconds, deadline):
    common = ["--workload", name, "--seed", str(seed)]
    # the first import compiles bytecode and fills the page cache; not a sample
    probes = [_worker(common + ["--seconds", "0", "--setup-only"], deadline)]
    probes += [_worker(common + ["--seconds", "0", "--setup-only"], deadline)
               for _ in range(SETUP_PROBES)]
    res = _worker(common + ["--seconds", str(seconds), "--trace", "0"], deadline)
    res["setup_probes"] = probes[1:]
    setup = [p["setup_s"] for p in probes[1:]]
    scaled = [p["setup_s"] * REFERENCE_S / p["ref_s"] for p in probes[1:]]
    metrics = {
        "wall_per_ref": {"value": res["wall_per_ref"], "unit": "ratio"},
        "setup_s": {"value": statistics.median(scaled), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    w, r = res["wall"], res["ref"]
    rows = [
        ("wall_s", w["median"], "s",
         f"median of {w['n']} warm passes, min {w['min']:.4f}, max {w['max']:.4f}, "
         f"IQR/median {w['iqr_over_median']:.3f}"),
        ("wall_per_ref", res["wall_per_ref"], "ratio",
         f"over the reference kernel's median {r['median']:.4f} s, "
         f"IQR/median {r['iqr_over_median']:.3f}"),
        ("setup_wall_s", statistics.median(setup), "s",
         f"median of {len(setup)} fresh processes"),
        ("setup_s", metrics["setup_s"]["value"], "s",
         f"each probe's set-up scaled by {REFERENCE_S} s over its reference time"),
        ("peak_rss_mb", res["peak_rss_mb"], "MB", ""),
    ]
    return res, metrics, rows


def _per_layer(name, seed, seconds, deadline):
    res = _worker(["--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "1"], deadline)
    layers = res["layers"]
    return res, layers, [(k, m["value"], m["unit"], "") for k, m in layers.items()]


def run_one(name, seed, seconds, trace):
    measure = _per_layer if trace else _end_to_end
    deadline = time.monotonic() + DEADLINE_S
    res, metrics, rows = measure(name, seed, seconds, deadline)
    checks = res["checks"]
    res["metrics"] = metrics
    path = OUT_DIR / f"result-{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(res, indent=1, sort_keys=True))
    for key, value, unit, note in rows:
        print(f"{name} {key} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"{name} fail_ratio {checks['fail_ratio']:.6g} ratio  "
          f"({checks['failed']} of {checks['attempted']} checks failed)")
    for check, n in sorted(checks["failures"].items()):
        print(f"{name} failed check {check} x{n}")
    for err in checks["errors"]:
        sys.stderr.write(err)
    return {"correct": checks["failed"] == 0, "attempted": checks["attempted"],
            "failed": checks["failed"], "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sdetci" / "__init__.py").is_file():
        sys.stderr.write(f"no sdetci package under {ROOT / 'src'}\n")
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_one(n, args.seed, args.seconds, args.trace)
                   for n in names}
    except BenchError as e:
        sys.stderr.write(f"benchmark failed: {e}\n")
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
