"""Start one traced herzkit CLI process.

    python3 bench/boot.py SPANS_FILE ARG...

Times the import of ``herzkit.cli``, installs the benchmark's trace
wrappers, calls ``herzkit.cli.main(ARG...)`` and exits with its code.  The
span summary, with ``import_ms``, is written to SPANS_FILE.  stdout is left
to the CLI, which prints its one JSON document there.
"""

import json
import sys
import time


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import herzkit.cli
    import_ms = 1e3 * (time.perf_counter() - start)

    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = herzkit.cli.main(argv)
    finally:
        tracer.uninstall()
        summary = tracer.summary()
        summary["import_ms"] = import_ms
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
