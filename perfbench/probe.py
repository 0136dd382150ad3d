"""Program-side entry point of a traced run: runs inside the child process.

    probe.py --trace OUT cli ARGS...      run ``symcube ARGS...`` traced

Spans are recorded around the public functions and their totals are
written to OUT as JSON when the work is done; stdout and the exit code
are the same as those of ``python -m symcube.cli ARGS...``.
"""

import json
import sys


def main(argv):
    if argv[:1] != ["--trace"] or argv[2:3] != ["cli"]:
        print("usage: probe.py --trace OUT cli ARGS...", file=sys.stderr)
        return 1
    trace_out, rest = argv[1], argv[3:]
    import tracing

    recorder = tracing.install()
    from symcube import cli

    code = cli.main(rest)
    sys.stdout.flush()
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(recorder.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
