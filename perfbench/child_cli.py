"""One traced cache-hit CLI op in a fresh interpreter (traced runs of
``cli_replay``).

Times the public startup calls in the order the CLI makes them —
``import repro.runner.cli``, ``build_parser()``, the first
``code_version()`` — then installs the harness timing wrappers and runs
``main(["run", <experiment>, "--output", <fmt>, "--trace", <path>])``,
checking its stdout against the output captured when the cache was
primed.  Prints one JSON record as its last line.

Usage: python perfbench/child_cli.py EXPERIMENT FORMAT EXPECTED TRACE
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def main(argv) -> int:
    experiment, fmt, expected_path, trace_path = argv
    start = time.perf_counter()
    import repro.runner.cli as cli
    import_s = time.perf_counter() - start

    start = time.perf_counter()
    cli.build_parser()
    build_parser_s = time.perf_counter() - start

    from repro.runner.cache import code_version
    start = time.perf_counter()
    code_version()
    code_version_s = time.perf_counter() - start

    import layers
    wrappers = layers.Wrappers().install()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        status = cli.main(["run", experiment, "--output", fmt,
                           "--trace", trace_path])
    wrappers.uninstall()

    from repro.obs import read_trace
    payload = read_trace(trace_path)
    spans = layers.spans_from_artifact(payload)
    with open(expected_path, "rb") as handle:
        expected = handle.read()
    record = {
        "ok": status == 0 and stdout.getvalue().encode("utf-8") == expected,
        "status": status,
        "startup.import_s": import_s,
        "cli.build_parser_s": build_parser_s,
        "cache.code_version_s": code_version_s,
        "ops": layers.op_breakdown(spans, "run"),
        "wrappers": wrappers.snapshot(),
        "counters": payload["counters"],
        "top_level_s": layers.top_level_span_seconds(spans),
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
