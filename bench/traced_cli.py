"""Run one mpo-tomo command with spans recorded around each layer call.

    python3 bench/traced_cli.py TRACE.json <command> --config cfg.json --out run/

The arguments after TRACE.json are those of ``mpo-tomo``.  The exit code is
the command's; the spans and the monotonic time at which ``main`` was entered
are written to TRACE.json when the command ends.
"""

import json
import sys
import time

import tracing
from mpo_tomo import cli


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    main_t = time.monotonic()
    try:
        return cli.main(argv)
    finally:
        with open(trace_path, "w") as fh:
            json.dump({"main_t": main_t, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
