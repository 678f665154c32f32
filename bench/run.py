"""coneproj benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Runs from the root of a source checkout; the library is imported from
``src/`` there.  Each workload runs in fresh interpreters (``worker.py``)
with BLAS and OpenMP limited to one thread.  The last line printed is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones and ``setup_s`` is the
median of SETUP_REPEATS fresh set-ups; with ``--trace 1`` they are the
per-layer ones.  ``--workload all`` runs every workload untraced and prints
a table of the metrics by name.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("falsify-fastpath", "falsify-solver", "oneshot", "cli-cold")
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKER_TIMEOUT_S = 170


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def start_worker(args, env):
    """Start a worker; return (process, seconds until it printed READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    for line in proc.stdout:
        if line.strip() == "READY":
            return proc, time.perf_counter() - t0
    proc.wait()
    raise RuntimeError(f"worker exited with code {proc.returncode} before set-up finished")


def wait(proc):
    """The worker's remaining output, once it has exited with code 0."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def environment():
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: "1" for var in THREAD_VARS},
    }


def run_workload(name, seed, seconds, trace):
    env = child_env()
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        proc, _ = start_worker(base + ["--trace", "1"], env)
        return json.loads(wait(proc).strip().splitlines()[-1])
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        proc, t = start_worker(base + ["--setup-only"], env)
        wait(proc)
        setups.append(t)
    proc, t = start_worker(base, env)
    setups.append(t)
    result = json.loads(wait(proc).strip().splitlines()[-1])
    setup = ("setup_s", {"value": statistics.median(setups), "unit": "s"})
    for table in ("metrics", "named"):
        result[table] = dict([setup, *result[table].items()])
    result["info"]["setup_s_samples"] = setups
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    if not (ROOT / "src" / "coneproj" / "__init__.py").is_file():
        print(f"error: no coneproj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env_info = environment()
    names = WORKLOADS if a.workload == "all" else (a.workload,)
    try:
        results = {n: run_workload(n, a.seed, a.seconds, a.trace and a.workload != "all")
                   for n in names}
    except (RuntimeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for n, res in results.items():
        detail = {"workload": n, "seed": a.seed, "environment": env_info,
                  **{k: res.pop(k) for k in ("named", "info") if k in res}}
        print(json.dumps(detail))
        if a.workload == "all":
            for metric, m in detail["named"].items():
                print(f"{n:18s} {metric:16s} {m['value']:14.6g} {m['unit']}")
    if a.workload == "all":
        res = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}}
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
