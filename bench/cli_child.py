"""`python -m cfinite.cli ARGS...` with every cfinite module traced.

    python bench/cli_child.py SPANS_OUT ARGS...

The traced cli workload runs this in place of `-m cfinite.cli`.  It imports
the command, wraps the modules as bench/spans.py does in-process, runs
`main(ARGS)` and writes the spans to SPANS_OUT before exiting with main's
exit status.
"""

import sys

import cfinite.cli

import spans


def run(out: str, argv: list) -> int:
    rec = spans.Recorder()
    installed = spans.install(rec, spans.cfinite_modules())
    try:
        return cfinite.cli.main(argv)
    finally:
        installed.undo()
        rec.dump(out)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
