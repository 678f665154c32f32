"""One workload in one fresh interpreter; started by run.py.

Prints ``READY`` once imports, input generation and warm-up are done (the
parent times set-up up to that line), then measures and prints one JSON
object as its last line.  ``--setup-only`` stops after ``READY``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import coneproj
import spans
import workloads as W

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
# Tail percentile per workload, pinned rather than recomputed per run so that
# a faster program (more samples) is compared at the same percentile.  At the
# seed commit a 30 s run has at least ten samples beyond each pin.  On
# falsify-solver p99 moved 20-30 % from seed to seed, against 10-15 % for p95.
# On oneshot p95 falls on the steep lower side of the certify queries'
# times, and p99 (hundreds of samples beyond it) moved less.  cli-cold gets
# about 25 commands in 30 s, too few for any percentile to have ten beyond
# it, so its tail is the slowest command.
TAIL_PERCENTILE = {"falsify-fastpath": 95.0, "falsify-solver": 95.0,
                   "oneshot": 99.0, "cli-cold": 100.0}
WARM_BLOCKS = 4        # oneshot blocks run in the warm-up and in the traced sweep


def tail(values, pct):
    """The pct-th percentile and how many samples lie beyond it."""
    v = np.asarray(values)
    q = float(np.percentile(v, pct))
    return q, int(np.sum(v > q))


def run_ops(wl, seconds=None, count=None, first=0, runner=None, tracer=None, root="op"):
    """Closed loop over ``wl.op(first)``, ``wl.op(first + 1)``, ...: each op
    starts after the previous one finished and was checked.  Stops after
    ``count`` ops, or once ``seconds`` of wall time have passed.

    Returns one sample per op: (op index, seconds, work done, refuted pair,
    failure reason or None).  Checks run outside the timed interval and, in
    a traced run, with recording off.
    """
    runner = runner or wl.run
    samples = []
    start = time.perf_counter()
    i = first
    while (i - first < count) if count is not None else (time.perf_counter() - start < seconds):
        op = wl.op(i)
        err = result = None
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.root(root, i):
                    result = runner(op)
            else:
                result = runner(op)
        except Exception as exc:  # a raising op is a failed op, not a crash
            err = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        if err is None:
            try:
                err = wl.check(op, result)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        work = wl.work(op, result) if err is None else 0
        samples.append((i, dt, work, wl.refuted(op), err))
        i += 1
    return samples


def label(op):
    """Short description of an op for the failure list."""
    if isinstance(op[0], str):
        return f"{op[0]}:{op[3]}"
    if isinstance(op[0], list):
        return " ".join(op[0][:1] + [Path(a).name for a in op[0][1:3]])
    return f"falsify {type(op[0]).__name__} vs {type(op[1]).__name__}"


def end_to_end(name, wl, samples):
    """Metrics of an untraced run, under the BENCHMARK.json names and the
    per-workload names printed on the detail line."""
    busy = sum(s[1] for s in samples)
    work = sum(s[2] for s in samples)
    failures = [(label(wl.op(s[0])), s[4]) for s in samples if s[4]]
    lat = [s[1] for s in samples if s[3]] if name == "falsify-solver" else [s[1] for s in samples]
    if not lat:  # a very short run can end before any refuted pair
        lat = [s[1] for s in samples]
    lat_ms = [1e3 * v for v in lat]
    p50 = statistics.median(lat_ms)
    pct = TAIL_PERCENTILE[name]
    t, beyond = tail(lat_ms, pct)
    metrics = {
        "throughput_per_s": (work / busy, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (t, "ms"),
    }
    named = {"failed_ratio": (len(failures) / len(samples), "ratio")}
    if name.startswith("falsify"):
        named["trials_per_s"] = (work / busy, "1/s")
    if name == "falsify-solver":
        named["refute_ms_p50"] = (p50, "ms")
        named["refute_ms_tail"] = (t, "ms")
    if name == "oneshot":
        named["queries_per_s"] = (work / busy, "1/s")
        named["query_us_p50"] = (1e3 * p50, "us")
        named["query_us_tail"] = (1e3 * t, "us")
    if name == "cli-cold":
        named["cmd_ms_p50"] = (p50, "ms")
        named["cmd_ms_tail"] = (t, "ms")
    info = {
        "tail": {"percentile": pct, "samples": len(lat_ms), "beyond": beyond},
        "latency_ms_percentiles": {p: float(np.percentile(lat_ms, p)) for p in (50, 75, 90, 95, 99)},
        "failures": sorted({f"{l}: {e}" for l, e in failures}),
    }
    return metrics, named, info, failures


def known_defects(seed):
    """Run the oneshot known-defect probes once, untimed (see DefectProbes)."""
    probes = W.DefectProbes(seed)
    samples = run_ops(probes, count=len(probes.ops))
    failures = [f"{label(probes.op(s[0]))}: {s[4]}" for s in samples if s[4]]
    return {"attempted": len(samples), "failed": len(failures), "failures": failures}


def peak_rss_mb(name):
    who = resource.RUSAGE_CHILDREN if name == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Traced run


def run_cli_child(args, tracer, probe, dump):
    """One CLI command in a fresh traced interpreter; merges its spans."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH / "cli_child.py"), str(dump), *args],
                          capture_output=True, text=True, timeout=W.CLI_TIMEOUT_S)
    with open(dump, encoding="utf-8") as fh:
        child = json.load(fh)
    probe["python_startup_ms"].append(1e3 * (child["started"] - t0))
    probe["import_ms"].append(1e3 * child["import_s"])
    for s in child["spans"]:
        s[4] = tracer.op
        if s[0] == "cli.main":
            probe["command_inproc_ms"][s[5]].append(1e3 * (s[2] - s[1]))
    tracer.extend(child["spans"])
    return proc.returncode, proc.stdout


def traced(name, seed, seconds, workdir):
    """Untraced then traced pass over the same ops, then a fixed layer sweep."""
    wl = W.make(name, seed, workdir)
    warm_up(name, wl)
    tracer = spans.Tracer().install()
    probe = {"python_startup_ms": [], "import_ms": [],
             "command_inproc_ms": {c: [] for c in spans.CLI_COMMANDS}}
    dump = Path(workdir) / "child-trace.json"
    cli_runner = None
    if name == "cli-cold":
        def cli_runner(op):
            return run_cli_child(op[0], tracer, probe, dump)

    plain = run_ops(wl, seconds=seconds / 2.0)
    traced_samples = run_ops(wl, count=len(plain), runner=cli_runner, tracer=tracer)
    overhead = 100.0 * (sum(s[1] for s in traced_samples) / sum(s[1] for s in plain) - 1.0)

    # The sweep calls every layer a few times so that each per-layer metric is
    # measured on every workload; workloads that use a layer dominate its figure.
    oneshot = W.Oneshot(seed + 1, blocks=WARM_BLOCKS)
    run_ops(oneshot, count=WARM_BLOCKS * W.BLOCK_LEN, tracer=tracer, root="sweep")
    solver = W.FalsifySolver(seed + 1, size=0.05)
    run_ops(solver, count=3, first=W.SOLVER_PERIOD - 3, tracer=tracer, root="sweep")
    run_ops(W.FalsifyFastpath(seed + 1, size=0.05), count=2, tracer=tracer, root="sweep")
    cli = W.CliCold(seed + 1, os.path.join(workdir, "sweep"))
    for k in range(len(spans.CLI_COMMANDS)):
        with tracer.root("sweep", k):
            run_cli_child(cli.op(k)[0], tracer, probe, dump)
    tracer.uninstall()

    metrics = spans.layer_metrics(tracer.spans, probe)
    metrics["trace.overhead_pct"] = overhead
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{name}-seed{seed}.json.gz",
                {"workload": name, "seed": seed, "traced_ops": len(plain)})
    failed = sum(1 for s in traced_samples if s[4])
    return {"correct": failed == 0, "attempted": len(traced_samples), "failed": failed,
            "metrics": {k: {"value": v, "unit": spans.unit_of(k)} for k, v in metrics.items()}}


# ---------------------------------------------------------------------------


def warm_up(name, wl):
    """Run and check a few ops so lazy imports and caches are settled."""
    if name == "cli-cold":
        wl.record_references()
    elif name == "oneshot":
        run_ops(wl, count=WARM_BLOCKS * W.BLOCK_LEN)
    else:
        run_ops(wl, count=1 if name == "falsify-fastpath" else 6)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    a = ap.parse_args(argv)

    src = (BENCH.parent / "src").resolve()
    if Path(coneproj.__file__).resolve().parent.parent != src:
        print(f"error: coneproj imported from {coneproj.__file__}, not {src}", file=sys.stderr)
        return 2
    np.seterr(all="ignore")
    workdir = str(OUT / f"{a.workload}-{a.seed}-{os.getpid()}")
    try:
        if a.trace:
            print("READY", flush=True)
            result = traced(a.workload, a.seed, a.seconds, workdir)
        else:
            wl = W.make(a.workload, a.seed, workdir)
            warm_up(a.workload, wl)
            print("READY", flush=True)
            if a.setup_only:
                return 0
            samples = run_ops(wl, seconds=a.seconds)
            metrics, named, info, failures = end_to_end(a.workload, wl, samples)
            metrics["peak_rss_mb"] = named["peak_rss_mb"] = (peak_rss_mb(a.workload), "MB")
            if a.workload == "oneshot":
                info["known_defects"] = probes = known_defects(a.seed)
                ratio = probes["failed"] / probes["attempted"]
                named["known_defect_failed_ratio"] = (ratio, "ratio")
            result = {"correct": not failures, "attempted": len(samples), "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                      "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
                      "info": info}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
