"""Command-line front end.

Commands: project | certify | sign-flip | falsify | recognize-orthant-isotone
| dual.  Reports are JSON on stdout; diagnostics go to stderr.  Every command
runs through `_run`, which loads the cone files, maps library errors to exit
codes and emits the report.  Exit codes: 0 pass/value, 1 refuted/counterexample,
2 inconclusive/non-convergence, 3 input or usage error.  A verdict other than
"inconclusive" that rests on a certificate is printed only after
`verify_certificate` has re-checked it.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time

import click
import numpy as np

from . import isotonic
from .cones import (DimensionMismatchError, Simplicial, UnsupportedConeError, cone_to_dict,
                    dual, is_proper, load_cone, save_cone)
from .isotonic import FalsifierConfig, Obstruction
from .kernels import NonConvergenceError
from .projections import project

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _fail(message, code):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _parse_point(text):
    text = text.strip()
    try:
        values = json.loads(text) if text.startswith("[") else [float(v) for v in text.split(",")]
        x = np.asarray(values, dtype=float)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"cannot parse point {text!r}: {exc}") from exc
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        raise ValueError("point must be a finite 1-D vector")
    return x


def _run(command, paths, out, body):
    """Load the cones at `paths`, call `body(*cones)` and emit its report.

    `body` returns (verdict, exit code, report fields).  Input errors exit 3;
    a solve that hits its iteration cap exits 2.
    """
    started = time.perf_counter()
    try:
        verdict, code, fields = body(*[load_cone(path) for path in paths])
        report = {"command": command, "inputs": {path: _digest(path) for path in paths},
                  "verdict": verdict, **fields}
        report["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
        text = json.dumps(report, indent=2, sort_keys=True)
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    except (ValueError, OSError) as exc:
        _fail(str(exc), EXIT_INPUT)
    except NonConvergenceError as exc:
        _fail(str(exc), EXIT_INCONCLUSIVE)
    click.echo(text)
    sys.exit(code)


def _judge(cert, K, L, tol, held=("inconclusive", EXIT_INCONCLUSIVE), **fields):
    """Verdict, exit code and report fields of a certificate, `held` if it does not
    refute.  Any verdict but "inconclusive" needs `verify_certificate` to pass."""
    verdict, code = ("refuted", EXIT_REFUTED) if cert.refuted else held
    if verdict != "inconclusive" and not isotonic.verify_certificate(cert, K, L, tol):
        _fail("certificate failed re-verification", EXIT_INCONCLUSIVE)
    return verdict, code, {**fields, "certificate": cert._to_json()}


class _Group(click.Group):
    """A group whose usage errors exit with the input-error code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = EXIT_INPUT
            raise


@click.group(cls=_Group)
def main():
    """Cone projections and order-isotonicity certification."""


def _finite_tol(ctx, param, value):
    if not 0.0 <= value < math.inf:
        raise click.BadParameter("must be finite and >= 0")
    return value


tol_option = click.option("--tol", type=float, default=1e-9, show_default=True,
                          callback=_finite_tol)
out_option = click.option("--out", type=click.Path(), default=None,
                          help="Also write the report JSON to this file.")


@main.command("project")
@click.argument("cone_file")
@click.option("--point", required=True, help="Comma-separated values or JSON array.")
@out_option
def cmd_project(cone_file, point, out):
    """Project a point onto the cone and report the Moreau companions."""
    def body(cone):
        x = _parse_point(point)
        result = project(cone, x)
        p, q = result.point, result.dual_point
        # <p, q> relative to the input, s = max|x|: finite at every scale.
        s = float(np.abs(x).max())
        return "value", EXIT_OK, {
            "point": p.tolist(), "dual_point": q.tolist(), "residual": result.residual,
            "moreau_gap": float((p / s) @ (q / s)) if s > 0.0 else 0.0}
    _run("project", [cone_file], out, body)


@main.command("certify")
@click.argument("k_file")
@click.argument("l_file")
@tol_option
@out_option
def cmd_certify(k_file, l_file, tol, out):
    """Run the structural necessary conditions for L-isotonicity of P_K."""
    def body(K, L):
        triple = isotonic.triple_obstruction(K, tol) if isinstance(K, Simplicial) else None
        if triple is None:
            return _judge(isotonic.certify_necessary(K, L, tol), K, L, tol)
        # The triple reads K alone; L must still pass certify_necessary's input checks.
        if K.dim != L.dim:
            raise DimensionMismatchError("K and L dimensions disagree")
        if not is_proper(L):
            raise ValueError("certify_necessary requires proper cones")
        return _judge(Obstruction(cycle=triple), K, L, tol)
    _run("certify", [k_file, l_file], out, body)


@main.command("sign-flip")
@click.argument("k_file")
@tol_option
@out_option
def cmd_sign_flip(k_file, tol, out):
    """Search for a sign flip making the simplicial cone subdual."""
    def body(K):
        if not isinstance(K, Simplicial):
            raise UnsupportedConeError("sign-flip requires a simplicial cone file")
        return _judge(isotonic.sign_flip_search(K, tol), K, None, tol, ("certified", EXIT_OK))
    _run("sign-flip", [k_file], out, body)


@main.command("falsify")
@click.argument("k_file")
@click.argument("l_file")
@click.option("--trials", type=int, default=10_000, show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--scale", type=float, default=10.0, show_default=True)
@tol_option
@out_option
def cmd_falsify(k_file, l_file, trials, seed, scale, tol, out):
    """Randomized search for an isotonicity counterexample (one-sided)."""
    def body(K, L):
        cfg = FalsifierConfig(trials=trials, seed=seed, tol=tol, scale=scale)
        cex = isotonic.falsify(K, L, cfg)
        fields = {"trials": trials, "seed": seed}
        if cex is not None:
            return _judge(cex, K, L, tol, **fields)
        fields["note"] = f"no violation in {trials} trials (not a proof)"
        return "inconclusive", EXIT_OK, fields
    _run("falsify", [k_file, l_file], out, body)


@main.command("recognize-orthant-isotone")
@click.argument("k_file")
@tol_option
@out_option
def cmd_recognize(k_file, tol, out):
    """Decide whether the cone is isotone for the coordinatewise order."""
    def body(K):
        rep = isotonic.orthant_isotone_recognize(K, tol)
        fields = {}
        if rep.isotone:
            try:
                in_orthant, interior_disjoint = isotonic.alternatives_check(K, tol)
                fields["alternatives"] = {"in_orthant": in_orthant,
                                          "interior_disjoint": interior_disjoint}
            except ValueError:
                pass  # no generator form; the verdict stands on the facet pattern
        return _judge(rep, K, None, tol, ("certified", EXIT_OK), **fields)
    _run("recognize-orthant-isotone", [k_file], out, body)


@main.command("dual")
@click.argument("k_file")
@click.option("--cone-out", type=click.Path(), default=None,
              help="Write the dual cone description to this file.")
@out_option
def cmd_dual(k_file, cone_out, out):
    """Compute the dual cone and emit its description."""
    def body(K):
        D = dual(K)
        if cone_out:
            save_cone(D, cone_out)
        return "value", EXIT_OK, {"dual": cone_to_dict(D)}
    _run("dual", [k_file], out, body)


if __name__ == "__main__":
    main()
