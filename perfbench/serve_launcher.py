"""Start ``repro serve`` on an ephemeral port, optionally with layer spans.

    python perfbench/serve_launcher.py [--trace-out spans.json]

With ``--trace-out`` the benchmark's layer wrappers are installed in the
server process before it starts; on SIGINT the server stops and the
spans are written as JSON.  The caller sets the environment
(``plans.hermetic_env``) and reads the listening port off stdout.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from pathlib import Path

from tracer import Tracer


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace-out", type=Path, default=None)
    args = ap.parse_args(argv)
    # SIGINT stops the server even when the parent started it with SIGINT
    # ignored (as a shell does for a background job)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    t0 = time.monotonic()
    from repro import cli

    import_s = time.monotonic() - t0
    tracer = Tracer().install() if args.trace_out else None
    try:
        return cli.main(["serve", "--host", "127.0.0.1", "--port", "0", "--jobs", "1"])
    finally:
        if tracer is not None:
            tracer.restore()
            args.trace_out.write_text(json.dumps({
                "main_tid": threading.main_thread().ident,
                "import_s": import_s,
                "spans": [s.to_json() for s in tracer.spans],
            }))


if __name__ == "__main__":
    sys.exit(main())
