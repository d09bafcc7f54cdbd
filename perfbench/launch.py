"""Run one ``dcemetrics`` CLI command under the span tracer.

    python3 perfbench/launch.py SPANS_JSON OP_ID ALLOC COMMAND ARGS...

Behaves like ``python -m dcemetrics COMMAND ARGS...`` (same exit code) but
times the cold ``import dcemetrics.cli``, installs the wrappers from
``spans.py`` and writes the spans of the command to SPANS_JSON.  With
ALLOC=1 tracemalloc runs during the command, for allocation peaks.
"""

import sys
import time
import tracemalloc

from spans import Tracer, install


def main() -> int:
    out_path, op, alloc = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    start = time.perf_counter()
    import dcemetrics.cli as cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    tracer.op = op
    tracer.active = True
    if alloc:
        tracemalloc.start()
    try:
        code = cli.main(sys.argv[4:])
    finally:
        tracemalloc.stop()
        tracer.dump(out_path, import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
