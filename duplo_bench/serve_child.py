"""``repro serve`` under the benchmark tracer, for ``--trace 1`` runs.

Usage::

    python3 serve_child.py REPORT RESET_MARKER [repro serve flags...]

SIGUSR1 clears the tracer (so set-up traffic is not counted) and then
touches RESET_MARKER.  SIGINT stops the server; the tracer snapshot is
then written to REPORT as JSON.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

from common import use_checkout_sources


def main(argv) -> int:
    report, marker, serve_args = Path(argv[0]), Path(argv[1]), argv[2:]
    use_checkout_sources()
    from tracer import Tracer

    from repro.cli import main as repro_main

    tracer = Tracer()
    tracer.install()

    def reset(signum, frame):
        tracer.reset()
        marker.touch()

    signal.signal(signal.SIGUSR1, reset)
    try:
        return repro_main(["serve", *serve_args])
    finally:
        report.write_text(json.dumps(tracer.snapshot()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
