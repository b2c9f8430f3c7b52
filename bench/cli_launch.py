"""Start the CLI as the ``affine-schur`` console script does.

    python3 bench/cli_launch.py [CLI arguments...]

When the environment names a trace file in BENCH_TRACE_FILE, the launcher
times the import of ``affine_schur.cli``, installs the per-layer wrappers,
runs ``cli.main`` and writes the per-layer totals to that file on exit.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main():
    trace_file = os.environ.get("BENCH_TRACE_FILE")
    if not trace_file:
        from affine_schur.cli import main as cli_main

        return cli_main()
    from tracer import Tracer

    start = time.perf_counter()
    import affine_schur.cli as cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    tracer.totals["cli.import_s"] += import_s
    try:
        return cli.main()
    finally:
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"totals": tracer.metrics(), "missing": tracer.missing}, fh)


if __name__ == "__main__":
    sys.exit(main())
