"""Run one ``repro`` CLI command with per-layer accounting switched on.

Usage: ``python perfbench/traced_cli.py OUT.json -- <repro cli args>``.

The command runs in this process exactly as ``python -m repro.cli``
would run it, except that ``repro.telemetry`` is enabled (so pool
workers ship their metrics back) and the layer wrappers of
``layers.py`` are installed.  The layer snapshot is written to
``OUT.json``; the parent times this process from spawn to exit.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    out_path = Path(argv[0])
    if argv[1] != "--":
        raise SystemExit("usage: traced_cli.py OUT.json -- <repro cli args>")
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import layers
    from repro import cli, telemetry

    clock = layers.LayerClock()
    layers.install(clock)
    import_s = time.perf_counter() - start
    tracer = telemetry.enable()
    code = cli.main(argv[2:])
    out_path.write_text(json.dumps(layers.snapshot(clock, tracer.registry, import_s)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
