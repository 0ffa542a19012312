"""Subprocess store writer for the multi-process concurrency test.

Usage::

    python -m tests.forensics._store_writer ROOT WORKER COUNT ACK

Puts ``COUNT`` synthetic records (seeded per ``WORKER``) into the v2
store at ``ROOT``.  Each id is appended to ``ACK`` (fsync'd) only after
``put`` returns, so the file lists exactly the acknowledged writes.
"""

from __future__ import annotations

import os
import sys

from repro.forensics.store import CampaignStore
from repro.forensics.synth import synthesize_record


def main(root: str, worker: int, count: int, ack: str) -> None:
    store = CampaignStore(root)
    with open(ack, "a") as handle:
        for index in range(count):
            record = synthesize_record(
                seed=10_000 * (worker + 1) + index, n_injections=40, label=f"w{worker}"
            )
            cid = store.put(record)
            handle.write(cid + "\n")
            handle.flush()
            os.fsync(handle.fileno())


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4])
