"""Build legacy v1 stores (a bare ``campaigns.jsonl`` log) for tests.

Layout v1 is read-only migration input, so no store API writes it; tests
write the log lines directly in the shared record-line format.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.forensics.store import encode_record_line


def write_v1_store(root: Path, records: Iterable[dict]) -> list[str]:
    """Write ``records`` as a v1 log under ``root``; returns their ids."""
    encoded = [encode_record_line(record) for record in records]
    root.mkdir(parents=True, exist_ok=True)
    (root / "campaigns.jsonl").write_text("".join(line + "\n" for _cid, line in encoded))
    return [cid for cid, _line in encoded]


def snapshot_files(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` by relative path, with its bytes."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }
