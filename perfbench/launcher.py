"""Start the sort service daemon with its service layers traced.

    python perfbench/launcher.py --spans OUT.json serve --socket PATH ...

Wraps admission, pool leases, envelope building and the telemetry
hooks (see ``layers.SERVICE_SITES``), then runs ``repro.cli.main`` with
the remaining arguments.  When the daemon exits (after a ``drain``)
the recorded spans are written to ``OUT.json``.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        print("usage: launcher.py --spans OUT.json serve ARGS...",
              file=sys.stderr)
        return 2
    from repro import cli

    from layers import SERVICE_SITES, install
    from spans import SpanRecorder

    recorder = SpanRecorder()
    missing = install(recorder, SERVICE_SITES)
    try:
        return cli.main(argv[2:])
    finally:
        recorder.uninstall()
        recorder.dump(argv[1], sites_missing=missing)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
