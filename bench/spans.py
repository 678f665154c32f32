"""In-memory span tracer for the benchmark's traced run.

The tracer records a span around each public library function that one
coneproj module calls in another.  It does so by rebinding the function's
name in every coneproj module that holds it, so no library source changes.
A span is ``[name, start, end, parent, op, tag, extra]``: ``parent`` indexes
the enclosing span (-1 for none), ``op`` is the benchmark operation that
caused it, ``tag`` a cone family or command name, and ``extra`` a per-call
count or outcome (projection iterations, LP status, falsifier trials).
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from contextlib import contextmanager

LAYERS = ("isotonic", "projections", "cones", "kernels", "cli")

# Public functions each module exposes to the others.  Private helpers are
# left alone: their time counts as self time of the public caller.
TARGETS = {
    "kernels": ("nnls", "lp_feasible"),
    "cones": (
        "cone_from_dict", "cone_margin", "membership", "dual", "is_proper",
        "facet_normals", "generator_matrix", "gram", "load_cone",
    ),
    "projections": ("project", "moreau"),
    "isotonic": (
        "falsify", "verify_certificate", "certify_necessary",
        "sign_flip_search", "triple_obstruction", "orthant_isotone_recognize",
        "alternatives_check", "leq",
    ),
}

FAMILIES = {
    "Orthant": "orthant",
    "SignedOrthant": "signed_orthant",
    "Simplicial": "simplicial",
    "Lorentz": "lorentz",
    "MonotoneNonneg": "monotone_nonneg",
    "PolyhedralH": "polyhedral_h",
    "PolyhedralV": "polyhedral_v",
}

CLI_COMMANDS = (
    "project", "certify", "sign-flip", "falsify",
    "recognize-orthant-isotone", "dual",
)


def family(cone):
    return FAMILIES.get(type(cone).__name__, type(cone).__name__)


def _note_project(args, kwargs, result):
    return family(args[0]), result.iterations


def _note_lp(args, kwargs, result):
    return None, result.status


def _note_falsify(args, kwargs, result):
    import coneproj.isotonic as iso

    cfg = args[2] if len(args) > 2 else kwargs.get("cfg", iso.FalsifierConfig())
    return family(args[0]), cfg.trials if result is None else result.trial


NOTES = {
    "projections.project": _note_project,
    "kernels.lp_feasible": _note_lp,
    "isotonic.falsify": _note_falsify,
}


class Tracer:
    """Span recorder; ``enabled`` gates recording so checks stay untraced."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.enabled = False
        self._installed = []

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                span[6] = "raise:" + type(exc).__name__
                raise
            span[2] = clock()
            stack.pop()
            if note is not None:
                span[5], span[6] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every target in every coneproj module that holds it."""
        import importlib

        modules = [importlib.import_module("coneproj")] + [
            importlib.import_module(f"coneproj.{m}") for m in LAYERS
        ]
        for layer, names in TARGETS.items():
            home = importlib.import_module(f"coneproj.{layer}")
            for attr in names:
                original = getattr(home, attr)
                name = f"{layer}.{attr}"
                wrapper = self.wrap(name, original, NOTES.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._installed.append((mod, key, original))
        return self

    def uninstall(self):
        for mod, key, original in reversed(self._installed):
            setattr(mod, key, original)
        self._installed.clear()

    @contextmanager
    def root(self, name, op, tag=None):
        """A benchmark-side span that parents one operation's library calls."""
        self.op = op
        idx = len(self.spans)
        span = [name, time.perf_counter(), 0.0, -1, op, tag, None]
        self.spans.append(span)
        self.stack.append(idx)
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def extend(self, spans):
        """Append spans recorded elsewhere (a child process), re-indexing parents."""
        base = len(self.spans)
        for s in spans:
            s = list(s)
            if s[3] >= 0:
                s[3] += base
            self.spans.append(s)

    def dump(self, path, meta):
        """Write the spans, gzip-compressed JSON, after the run."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# Summary


def self_times(spans):
    """Each span's duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def _p50_us(values):
    return 1e6 * statistics.median(values) if values else 0.0


def layer_metrics(spans, cli_probe):
    """Per-layer metrics from recorded spans and the CLI probe timings.

    ``cli_probe`` maps ``python_startup_ms``/``import_ms`` to lists of ms and
    ``command_inproc_ms`` to ``{command: [ms, ...]}``.
    """
    selfs = self_times(spans)
    dur, own, count = {}, {}, {}
    for s, st in zip(spans, selfs):
        dur.setdefault(s[0], []).append(s[2] - s[1])
        own.setdefault(s[0], []).append(st)
        count[s[0]] = count.get(s[0], 0) + 1

    def n(name):
        return count.get(name, 0)

    out = {}
    falsify_trials = sum(s[6] for s in spans if s[0] == "isotonic.falsify" and isinstance(s[6], int))
    falsify_self = sum(own.get("isotonic.falsify", []))
    out["isotonic.falsify.self_us_per_trial"] = (
        1e6 * falsify_self / falsify_trials if falsify_trials else 0.0
    )
    out["isotonic.falsify.trials"] = falsify_trials
    out["isotonic.verify_certificate.us_p50"] = _p50_us(dur.get("isotonic.verify_certificate", []))
    out["isotonic.certify_necessary.self_us_p50"] = _p50_us(own.get("isotonic.certify_necessary", []))
    out["isotonic.sign_flip_search.us_p50"] = _p50_us(dur.get("isotonic.sign_flip_search", []))
    out["isotonic.orthant_isotone_recognize.us_p50"] = _p50_us(
        dur.get("isotonic.orthant_isotone_recognize", []))
    out["isotonic.alternatives_check.self_us_p50"] = _p50_us(own.get("isotonic.alternatives_check", []))
    out["kernels.lp_feasible.calls"] = n("kernels.lp_feasible")
    out["kernels.lp_feasible.us_p50"] = _p50_us(dur.get("kernels.lp_feasible", []))
    out["kernels.lp_feasible.indeterminate"] = sum(
        1 for s in spans if s[0] == "kernels.lp_feasible" and s[6] == "indeterminate")
    out["cones.is_proper.self_us_p50"] = _p50_us(own.get("cones.is_proper", []))

    proj = [(s, st) for s, st in zip(spans, selfs) if s[0] == "projections.project"]
    for fam in FAMILIES.values():
        mine = [st for s, st in proj if s[5] == fam]
        out[f"projections.project.calls.{fam}"] = len(mine)
        out[f"projections.project.self_us_p50.{fam}"] = _p50_us(mine)
    out["projections.project.iterations.polyhedral"] = sum(
        s[6] for s, _ in proj if s[5] in ("polyhedral_h", "polyhedral_v") and isinstance(s[6], int))
    out["projections.project.nonconvergence"] = sum(
        1 for s, _ in proj if s[6] == "raise:NonConvergenceError")
    out["kernels.nnls.calls"] = n("kernels.nnls")
    out["kernels.nnls.us_p50"] = _p50_us(dur.get("kernels.nnls", []))
    out["projections.moreau.self_us_p50"] = _p50_us(own.get("projections.moreau", []))
    out["cones.dual.us_p50"] = _p50_us(dur.get("cones.dual", []))
    out["cones.cone_from_dict.us_p50"] = _p50_us(dur.get("cones.cone_from_dict", []))
    out["cones.cone_margin.calls"] = n("cones.cone_margin")
    out["cones.cone_margin.us_p50"] = _p50_us(dur.get("cones.cone_margin", []))

    med = statistics.median
    out["cli.python_startup_ms"] = med(cli_probe["python_startup_ms"])
    out["cli.import_ms"] = med(cli_probe["import_ms"])
    for cmd in CLI_COMMANDS:
        out[f"cli.command_inproc_ms.{cmd}"] = med(cli_probe["command_inproc_ms"][cmd])

    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            st for s, st in zip(spans, selfs) if s[0].startswith(layer + "."))
    return out


def unit_of(name):
    """Unit of a per-layer metric, read from its name."""
    parts = name.split(".")
    if any(p == "us_p50" or p.endswith(("_us_p50", "_us_per_trial")) for p in parts):
        return "us"
    if any(p.endswith("_ms") for p in parts):
        return "ms"
    if parts[-1] == "self_s":
        return "s"
    if parts[-1].endswith("_pct"):
        return "%"
    return "count"
