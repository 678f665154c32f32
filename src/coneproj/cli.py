"""Command-line front end.

Commands: project | certify | sign-flip | falsify | recognize-orthant-isotone
| dual.  Reports are JSON on stdout; diagnostics go to stderr.  Exit codes:
0 pass/value, 1 refuted/counterexample, 2 inconclusive/non-convergence,
3 input error.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import click
import numpy as np

from . import isotonic
from .cones import (
    ConeFormatError,
    DimensionMismatchError,
    Simplicial,
    UnsupportedConeError,
    cone_to_dict,
    dual,
    load_cone,
    save_cone,
)
from .isotonic import FalsifierConfig, Obstruction, SamplingError
from .kernels import IndeterminateError
from .projections import NonConvergenceError, project

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _fail(message, code):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load(path):
    try:
        return load_cone(path)
    except (ConeFormatError, OSError) as exc:
        _fail(str(exc), EXIT_INPUT)


def _parse_point(text):
    text = text.strip()
    try:
        if text.startswith("["):
            values = json.loads(text)
        else:
            values = [float(v) for v in text.split(",")]
        x = np.asarray(values, dtype=float)
    except (ValueError, json.JSONDecodeError) as exc:
        _fail(f"cannot parse point {text!r}: {exc}", EXIT_INPUT)
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        _fail("point must be a finite 1-D vector", EXIT_INPUT)
    return x


def _emit(report, out, started):
    report["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    text = json.dumps(report, indent=2, sort_keys=True)
    click.echo(text)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


@click.group()
def main():
    """Cone projections and order-isotonicity certification."""


tol_option = click.option("--tol", type=float, default=1e-9, show_default=True)
out_option = click.option("--out", type=click.Path(), default=None,
                          help="Also write the report JSON to this file.")


@main.command("project")
@click.argument("cone_file", type=click.Path(exists=True))
@click.option("--point", required=True, help="Comma-separated values or JSON array.")
@tol_option
@out_option
def cmd_project(cone_file, point, tol, out):
    """Project a point onto the cone and report the Moreau companions."""
    started = time.perf_counter()
    cone = _load(cone_file)
    x = _parse_point(point)
    try:
        result = project(cone, x)
    except DimensionMismatchError as exc:
        _fail(str(exc), EXIT_INPUT)
    except NonConvergenceError as exc:
        _fail(str(exc), EXIT_INCONCLUSIVE)
    p, q = result.point, result.dual_point
    # <p, q> relative to the input, s = max|x|: finite at every scale.
    s = float(np.abs(x).max())
    report = {
        "command": "project",
        "inputs": {cone_file: _digest(cone_file)},
        "verdict": "value",
        "point": p.tolist(),
        "dual_point": q.tolist(),
        "residual": result.residual,
        "moreau_gap": float((p / s) @ (q / s)) if s > 0.0 else 0.0,
    }
    _emit(report, out, started)
    sys.exit(EXIT_OK)


@main.command("certify")
@click.argument("k_file", type=click.Path(exists=True))
@click.argument("l_file", type=click.Path(exists=True))
@tol_option
@out_option
def cmd_certify(k_file, l_file, tol, out):
    """Run the structural necessary conditions for L-isotonicity of P_K."""
    started = time.perf_counter()
    K = _load(k_file)
    L = _load(l_file)
    certificate = None
    try:
        if isinstance(K, Simplicial):
            triple = isotonic.triple_obstruction(K, tol)
            if triple is not None:
                certificate = Obstruction(cycle=triple)
        if certificate is None:
            certificate = isotonic.certify_necessary(K, L, tol)
    except (UnsupportedConeError, ValueError) as exc:
        _fail(str(exc), EXIT_INPUT)
    except IndeterminateError as exc:
        _fail(str(exc), EXIT_INCONCLUSIVE)
    refuted = certificate.refuted
    if refuted and not isotonic.verify_certificate(certificate, K, L, tol):
        _fail("refutation certificate failed re-verification", EXIT_INCONCLUSIVE)
    report = {
        "command": "certify",
        "inputs": {k_file: _digest(k_file), l_file: _digest(l_file)},
        "verdict": "refuted" if refuted else "inconclusive",
        "certificate": certificate._to_json(),
    }
    _emit(report, out, started)
    sys.exit(EXIT_REFUTED if refuted else EXIT_INCONCLUSIVE)


@main.command("sign-flip")
@click.argument("k_file", type=click.Path(exists=True))
@tol_option
@out_option
def cmd_sign_flip(k_file, tol, out):
    """Search for a sign flip making the simplicial cone subdual."""
    started = time.perf_counter()
    K = _load(k_file)
    if not isinstance(K, Simplicial):
        _fail("sign-flip requires a simplicial cone file", EXIT_INPUT)
    cert = isotonic.sign_flip_search(K, tol)
    if not isotonic.verify_certificate(cert, K, tol=tol):
        _fail("certificate failed re-verification", EXIT_INCONCLUSIVE)
    report = {
        "command": "sign-flip",
        "inputs": {k_file: _digest(k_file)},
        "verdict": "refuted" if cert.refuted else "certified",
        "certificate": cert._to_json(),
    }
    _emit(report, out, started)
    sys.exit(EXIT_REFUTED if cert.refuted else EXIT_OK)


@main.command("falsify")
@click.argument("k_file", type=click.Path(exists=True))
@click.argument("l_file", type=click.Path(exists=True))
@click.option("--trials", type=int, default=10_000, show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--scale", type=float, default=10.0, show_default=True)
@tol_option
@out_option
def cmd_falsify(k_file, l_file, trials, seed, scale, tol, out):
    """Randomized search for an isotonicity counterexample (one-sided)."""
    started = time.perf_counter()
    K = _load(k_file)
    L = _load(l_file)
    try:
        cfg = FalsifierConfig(trials=trials, seed=seed, tol=tol, scale=scale)
        cex = isotonic.falsify(K, L, cfg)
    except (DimensionMismatchError, UnsupportedConeError, ValueError) as exc:
        _fail(str(exc), EXIT_INPUT)
    except SamplingError as exc:
        _fail(str(exc), EXIT_INCONCLUSIVE)
    if cex is not None and not isotonic.verify_certificate(cex, K, L, tol):
        _fail("counterexample failed re-verification", EXIT_INCONCLUSIVE)
    report = {
        "command": "falsify",
        "inputs": {k_file: _digest(k_file), l_file: _digest(l_file)},
        "verdict": "refuted" if cex is not None else "inconclusive",
        "trials": trials,
        "seed": seed,
    }
    if cex is not None:
        report["certificate"] = cex._to_json()
    else:
        report["note"] = f"no violation in {trials} trials (not a proof)"
    _emit(report, out, started)
    sys.exit(EXIT_REFUTED if cex is not None else EXIT_OK)


@main.command("recognize-orthant-isotone")
@click.argument("k_file", type=click.Path(exists=True))
@tol_option
@out_option
def cmd_recognize(k_file, tol, out):
    """Decide whether the cone is isotone for the coordinatewise order."""
    started = time.perf_counter()
    K = _load(k_file)
    try:
        rep = isotonic.orthant_isotone_recognize(K, tol)
    except UnsupportedConeError as exc:
        _fail(str(exc), EXIT_INPUT)
    report = {
        "command": "recognize-orthant-isotone",
        "inputs": {k_file: _digest(k_file)},
        "verdict": "certified" if rep.isotone else "refuted",
        "facet_count": rep.facet_count,
    }
    if rep.offending_normal is not None:
        report["offending_normal"] = rep.offending_normal.tolist()
    if rep.isotone:
        try:
            in_orthant, interior_disjoint = isotonic.alternatives_check(K, tol)
            report["alternatives"] = {
                "in_orthant": in_orthant,
                "interior_disjoint": interior_disjoint,
            }
        except (UnsupportedConeError, ValueError):
            pass  # no generator form; the verdict stands on the facet pattern
        except IndeterminateError as exc:
            _fail(str(exc), EXIT_INCONCLUSIVE)
    _emit(report, out, started)
    sys.exit(EXIT_OK if rep.isotone else EXIT_REFUTED)


@main.command("dual")
@click.argument("k_file", type=click.Path(exists=True))
@click.option("--cone-out", type=click.Path(), default=None,
              help="Write the dual cone description to this file.")
@out_option
def cmd_dual(k_file, cone_out, out):
    """Compute the dual cone and emit its description."""
    started = time.perf_counter()
    D = dual(_load(k_file))
    if cone_out:
        save_cone(D, cone_out)
    report = {
        "command": "dual",
        "inputs": {k_file: _digest(k_file)},
        "verdict": "value",
        "dual": cone_to_dict(D),
    }
    _emit(report, out, started)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
