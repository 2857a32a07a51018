"""Traced stand-in for `python -m crosspeaks`, used by traced cli passes.

    cli_child.py <trace.json> <crosspeaks arguments...>

Times the crosspeaks.cli import, runs the command under the tracer, writes
{"import_s": ..., "agg": ...} to <trace.json> and exits with the command's
exit code.
"""

import json
import sys
import time

start = time.perf_counter()
import crosspeaks.cli  # noqa: E402

import_s = time.perf_counter() - start

import tracing  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = crosspeaks.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        with open(sys.argv[1], "w") as fh:
            json.dump({"import_s": import_s, "agg": tracer.agg.to_json()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
