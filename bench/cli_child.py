"""Run the galrep CLI once under spans, for the traced cli-oneshot run.

Usage: python3 bench/cli_child.py SPAN_FILE [galrep arguments...]

Behaves like ``python -m galrep``: same stdout and exit code.  The spans
(``cli.import`` around ``import galrep.cli``, ``cli.main`` around the CLI,
and the layer spans inside it) are written to SPAN_FILE as JSON, with
``begin_ns``, the clock when this script began.  galrep is imported before
anything of the benchmark's, so that the import costs what it costs under
``python -m galrep``.
"""

import sys
import time

begin_ns = time.perf_counter_ns()
import galrep.cli  # noqa: E402

imported_ns = time.perf_counter_ns()

import json  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    recorder.request = "r0"
    recorder.spans.append(["cli.import", begin_ns, imported_ns, -1, recorder.request, True])
    recorder.install()
    try:
        with recorder.span("cli.main"):
            return galrep.cli.main(argv)
    finally:
        sys.stdout.flush()
        Path(span_file).write_text(json.dumps(dict(recorder.dump(), begin_ns=begin_ns)))


if __name__ == "__main__":
    sys.exit(main())
