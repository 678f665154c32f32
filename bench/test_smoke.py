"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import coneproj  # noqa: E402
import coneproj.projections as P  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def check_metrics(line, wanted):
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}
    for m in wanted:
        assert got[m["name"]]["unit"] == m["unit"]
        assert isinstance(got[m["name"]]["value"], (int, float))
    return result


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_every_end_to_end_metric_printed_with_unit(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = check_metrics(lines[-1], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    detail = json.loads(lines[-2])
    assert {"cpu", "nproc", "python", "numpy", "scipy", "threads"} <= set(detail["environment"])
    assert all(m["unit"] for m in detail["named"].values())
    if workload == "oneshot":
        assert detail["info"]["known_defects"]["attempted"] == len(W.DefectProbes(3).ops)


def test_every_per_layer_metric_printed_with_unit():
    proc = run_bench("--workload", "oneshot", "--seed", "3", "--seconds", "1.5", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    check_metrics(proc.stdout.strip().splitlines()[-1], SPEC["per_layer"])


def test_planted_wrong_projection_raises_failed_ratio(monkeypatch):
    wl = W.Oneshot(5, blocks=2)

    def failed_ratio():
        samples = worker.run_ops(wl, count=2 * W.BLOCK_LEN)
        _, named, _, _ = worker.end_to_end("oneshot", wl, samples)
        return named["failed_ratio"][0]

    assert failed_ratio() == 0.0
    original = P.project

    def apex(cone, x):
        r = original(cone, x)
        return P.ProjectionResult(point=np.zeros_like(r.point), dual_point=-np.asarray(x),
                                  residual=r.residual, active_facets=None, iterations=0)

    for mod in (coneproj, P):
        monkeypatch.setattr(mod, "project", apex)
    assert failed_ratio() > 0.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "oneshot", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
