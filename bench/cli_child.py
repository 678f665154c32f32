"""Traced stand-in for ``python -m coneproj.cli``, used by the traced run.

Usage: ``python bench/cli_child.py DUMP.json COMMAND [ARGS...]``.  Runs the
command through click with ``standalone_mode=False`` under the span tracer,
prints the command's report and exits with its code, like the real entry
point.  DUMP.json receives the interpreter start time, the import time of
``coneproj.cli`` and the spans.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402


def main():
    dump, args = sys.argv[1], sys.argv[2:]
    t = time.perf_counter()
    from coneproj import cli

    import_s = time.perf_counter() - t
    tracer = spans.Tracer().install()
    tracer.enabled = True
    code = 0
    try:
        with tracer.root("cli.main", 0, tag=args[0]):
            cli.main(args, standalone_mode=False)
    except SystemExit as exc:
        code = exc.code or 0
    finally:
        with open(dump, "w", encoding="utf-8") as fh:
            json.dump({"started": STARTED, "import_s": import_s, "spans": tracer.spans}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
