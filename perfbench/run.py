"""Benchmark entry point: one workload, one seed, one result line.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload campaign-uniform --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``campaign-uniform``    — ``repro campaign`` on the Fig. 10 cell, serial.
* ``campaign-stratified`` — ``repro campaign`` on a Fig. 11a cell with
  stratified sampling, two workers, a journal and a status file.
* ``store-mixed``         — interleaved ingest and slicing queries on
  one result store, in process.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
per-layer accounting of ``layers.py`` and prints the per-layer metrics.
The last line of standard output is the JSON result; earlier lines
describe the environment, the samples and any failed check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("campaign-uniform", "campaign-stratified", "store-mixed")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {common.SRC}", file=sys.stderr)
        return 2
    removed = common.sanitize_environment()
    sys.path.insert(0, str(common.SRC))
    print("env: " + json.dumps(common.environment_record(removed), sort_keys=True))

    refs = common.load_references()[args.workload]
    ledger = common.Ledger()
    work = common.fresh_dir(common.WORK_ROOT / f"{args.workload}-{args.seed}")
    try:
        if args.workload == "store-mixed":
            import store_mixed

            metrics = store_mixed.run(args.seed, args.seconds, bool(args.trace), refs, work, ledger)
        else:
            import campaigns

            metrics = campaigns.run(
                args.workload, args.seed, args.seconds, bool(args.trace), refs, work, ledger
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            common.WORK_ROOT.rmdir()
        except OSError:
            pass

    for problem in ledger.problems:
        print(f"FAILED: {problem}")
    declared = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in wanted if metrics.get(name, (None,))[0] is None]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {name: metrics[name] for name in wanted}
    print(
        f"failed_frac: {ledger.failed / ledger.attempted:.6f} "
        f"({ledger.failed}/{ledger.attempted})"
    )
    common.emit(ledger.failed == 0, ledger.attempted, ledger.failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
