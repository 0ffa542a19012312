"""Tests for the content-addressed campaign result store.

Layout v2 is the one writable layout; v1 stores are read-only migration
input, written here by :func:`tests.forensics.v1store.write_v1_store`.
"""

from __future__ import annotations

import json
import os
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.faultinject.campaign import CampaignConfig, run_campaign
from repro.faultinject.registers import RegKind
from repro.forensics.store import (
    LAYOUT_V1,
    LAYOUT_V2,
    CampaignStore,
    StoreError,
    build_record,
    campaign_id,
    encode_record_line,
    migrate_store,
    record_summary,
)
from repro.forensics.query import StoreQuery, index_query, scan_query
from repro.forensics.synth import synthesize_corpus, synthesize_record

from tests.faultinject.test_parallel import ToyWorkloadSpec, toy_workload
from tests.forensics.v1store import snapshot_files, write_v1_store


@pytest.fixture(scope="module")
def toy_campaign():
    spec = ToyWorkloadSpec()
    _, golden, cycles = spec.build()
    campaign = run_campaign(
        toy_workload,
        golden,
        cycles,
        CampaignConfig(
            n_injections=40, kind=RegKind.GPR, seed=9, probe=True, keep_sdc_outputs=True
        ),
    )
    return campaign, golden


class TestBuildRecord:
    def test_record_is_json_and_content_addressed(self, toy_campaign):
        campaign, golden = toy_campaign
        record = build_record(campaign, golden_output=golden, label="toy")
        json.dumps(record)  # storable end to end
        assert len(record["injections"]) == 40
        assert record["counts"]["total"] == 40
        assert record["divergence"]["probed"] == 40
        # Identical campaign -> identical id (content addressing).
        again = build_record(campaign, golden_output=golden, label="toy")
        assert campaign_id(record) == campaign_id(again)
        assert len(campaign_id(record)) == 16

    def test_label_changes_id(self, toy_campaign):
        campaign, golden = toy_campaign
        a = build_record(campaign, label="a")
        b = build_record(campaign, label="b")
        assert campaign_id(a) != campaign_id(b)

    def test_sdc_quality_requires_golden(self, toy_campaign):
        campaign, golden = toy_campaign
        assert build_record(campaign)["sdc_quality"] == []
        scored = build_record(campaign, golden_output=golden)["sdc_quality"]
        assert len(scored) == campaign.counts.sdc
        for entry in scored:
            assert set(entry) == {"index", "relative_l2", "ed"}



@pytest.fixture(params=(LAYOUT_V1, LAYOUT_V2))
def root(request, tmp_path):
    """An empty store root: born v2, or born v1 and then migrated."""
    root = tmp_path / "store"
    if request.param == LAYOUT_V1:
        write_v1_store(root, [])
        migrate_store(root)
    return root


class TestCampaignStoreBothLayouts:
    """Campaign-record in, record out, whichever layout a store began in."""

    def test_put_get_roundtrip(self, toy_campaign, root):
        campaign, golden = toy_campaign
        store = CampaignStore(root)
        record = build_record(campaign, golden_output=golden, label="toy")
        cid = store.put(record)
        assert store.get(cid) == record
        assert store.ids() == [cid]
        assert store.summaries()[cid]["probe"] is True
        assert store.summaries()[cid]["sampling"] == "uniform"

    def test_put_is_idempotent(self, toy_campaign, root):
        campaign, _ = toy_campaign
        store = CampaignStore(root)
        record = build_record(campaign, label="same")
        assert store.put(record) == store.put(record)
        assert len(store.ids()) == 1
        assert len(list(store.records())) == 1

    def test_insertion_order_preserved(self, toy_campaign, root):
        campaign, _ = toy_campaign
        store = CampaignStore(root)
        ids = [store.put(build_record(campaign, label=label)) for label in "abc"]
        assert store.ids() == ids
        assert [cid for cid, _record in store.records()] == ids

    def test_autodetect_matches_creating_layout(self, root):
        # Every put lands in v2: a v1-born store was migrated first.
        store = CampaignStore(root)
        store.put(synthesize_record(seed=1, n_injections=8))
        store.close()
        detected = CampaignStore(root)
        assert detected.layout == LAYOUT_V2
        assert len(detected.ids()) == 1

    def test_missing_id_rejected(self, root):
        store = CampaignStore(root)
        with pytest.raises(StoreError, match="not in store"):
            store.get("deadbeefdeadbeef")

    def test_wrong_schema_rejected(self, root):
        store = CampaignStore(root)
        with pytest.raises(StoreError, match="schema"):
            store.put({"schema": 999})

    def test_ids_stable_across_layouts(self, root):
        # Content addressing is layout-independent: a record's id is its
        # campaign_id whichever layout the store began in.
        record = synthesize_record(seed=5, n_injections=12)
        store = CampaignStore(root)
        assert store.put(record) == campaign_id(record)

    def test_put_campaign_shortcut(self, toy_campaign, root):
        campaign, golden = toy_campaign
        store = CampaignStore(root)
        cid = store.put_campaign(campaign, golden_output=golden, label="short")
        assert store.get(cid)["label"] == "short"


class TestV1Layout:
    """v1 stores answer reads from their log and refuse every write."""

    def test_corrupted_record_detected(self, tmp_path):
        (cid,) = write_v1_store(
            tmp_path / "store", [synthesize_record(seed=2, n_injections=10, label="x")]
        )
        log = tmp_path / "store" / "campaigns.jsonl"
        # Flip a stored count without recomputing the CRC.
        log.write_text(log.read_text().replace('"masked":', '"maskex":', 1))
        with pytest.raises(StoreError):
            CampaignStore(tmp_path / "store").get(cid)

    def test_torn_log_tail_ignored_by_readers(self, tmp_path):
        (cid,) = write_v1_store(
            tmp_path / "store", [synthesize_record(seed=25, n_injections=10)]
        )
        log = tmp_path / "store" / "campaigns.jsonl"
        with open(log, "ab") as handle:
            handle.write(b'{"id":"torn-partial-line')
        before = log.read_bytes()
        fresh = CampaignStore(tmp_path / "store")
        assert fresh.ids() == [cid]
        assert [c for c, _r in fresh.records()] == [cid]
        assert log.read_bytes() == before

    def test_legacy_index_json_read(self, tmp_path):
        # Stores from older releases carry side indexes beside the log;
        # reads ignore them and take one first-wins scan of the log.
        root = tmp_path / "store"
        records = synthesize_corpus(3, seed=22, n_injections=10)
        ids = write_v1_store(root, records + records[:1])
        stale = {"schema": 1, "order": ids[:1], "campaigns": {ids[0]: {}}}
        (root / "index.json").write_text(json.dumps(stale) + "\n")
        (root / "index.jsonl").write_text("definitely{not json\n")
        fresh = CampaignStore(root)
        assert fresh.layout == LAYOUT_V1
        assert fresh.ids() == ids[:3]
        assert [cid for cid, _record in fresh.records()] == ids[:3]
        assert fresh.summaries() == {
            cid: record_summary(record) for cid, record in zip(ids, records)
        }
        assert fresh.get(ids[1]) == records[1]
        with pytest.raises(StoreError, match="not in store"):
            fresh.get("deadbeefdeadbeef")

    def test_put_refused_and_files_unchanged(self, tmp_path):
        root = tmp_path / "store"
        write_v1_store(root, synthesize_corpus(2, seed=22, n_injections=10))
        (root / "index.json").write_text("{}\n")
        before = snapshot_files(root)
        with pytest.raises(StoreError, match=f"repro store migrate {root}"):
            CampaignStore(root).put(synthesize_record(seed=24, n_injections=10))
        assert snapshot_files(root) == before

    def test_layout_v1_cannot_be_pinned(self, tmp_path):
        with pytest.raises(StoreError, match="only layout 2 is writable"):
            CampaignStore(tmp_path / "store", layout=LAYOUT_V1)


class TestV2Layout:
    def test_segments_roll_at_size_cap(self, tmp_path):
        store = CampaignStore(tmp_path / "store", segment_max_bytes=2048)
        ids = [store.put(r) for r in synthesize_corpus(5, seed=30, n_injections=20)]
        segments = sorted(p.name for p in store.segments_dir.iterdir())
        assert len(segments) > 1
        # Every segment stays bounded by cap + one record's overflow.
        for name in segments[:-1]:
            assert (store.segments_dir / name).stat().st_size >= 2048
        assert store.ids() == ids
        for cid in ids:
            assert campaign_id(store.get(cid)) == cid

    def test_get_reads_one_seek_not_a_scan(self, tmp_path):
        store = CampaignStore(tmp_path / "store", segment_max_bytes=2048)
        records = synthesize_corpus(4, seed=31, n_injections=20)
        ids = [store.put(r) for r in records]
        segment, offset, length = store.location(ids[2])
        raw = (store.segments_dir / segment).read_bytes()[offset : offset + length]
        entry = json.loads(raw.decode("utf-8"))
        assert entry["id"] == ids[2]
        assert entry["record"] == records[2]

    def test_corrupted_record_detected(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        cid = store.put(synthesize_record(seed=32, n_injections=10))
        store.close()
        segment = tmp_path / "store" / "segments" / "seg-000001.jsonl"
        segment.write_bytes(segment.read_bytes().replace(b'"masked":', b'"maskex":', 1))
        fresh = CampaignStore(tmp_path / "store")
        with pytest.raises(StoreError, match="CRC"):
            fresh.get(cid)

    def test_missing_sqlite_rebuilt_on_open(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        ids = [store.put(r) for r in synthesize_corpus(3, seed=33, n_injections=10)]
        store.close()
        (tmp_path / "store" / "index.sqlite").unlink()
        fresh = CampaignStore(tmp_path / "store")
        assert fresh.ids() == ids

    def test_corrupt_sqlite_rebuilt_on_open(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        ids = [store.put(r) for r in synthesize_corpus(2, seed=34, n_injections=10)]
        store.close()
        (tmp_path / "store" / "index.sqlite").write_bytes(b"not a database")
        fresh = CampaignStore(tmp_path / "store")
        assert fresh.ids() == ids

    def test_stale_sqlite_synced_incrementally(self, tmp_path):
        # A record appended to the segment but missing from the index
        # (the index write raced a crash) is picked up on the next open.
        store = CampaignStore(tmp_path / "store")
        first = store.put(synthesize_record(seed=35, n_injections=10))
        store.close()
        stale = CampaignStore(tmp_path / "store")
        second = stale.put(synthesize_record(seed=36, n_injections=10))
        stale.close()
        # Roll the index back to the first record's state.
        conn = sqlite3.connect(tmp_path / "store" / "index.sqlite")
        seq, segment, offset = conn.execute(
            "SELECT seq, segment, offset FROM campaigns WHERE cid = ?", (second,)
        ).fetchone()
        conn.execute("DELETE FROM injections WHERE campaign_seq = ?", (seq,))
        conn.execute("DELETE FROM campaigns WHERE seq = ?", (seq,))
        conn.execute(
            "UPDATE segments SET indexed_bytes = ? WHERE name = ?", (offset, segment)
        )
        conn.commit()
        conn.close()
        fresh = CampaignStore(tmp_path / "store")
        assert fresh.ids() == [first, second]

    def test_torn_tail_ignored_by_readers(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        cid = store.put(synthesize_record(seed=40, n_injections=10))
        store.close()
        segment = tmp_path / "store" / "segments" / "seg-000001.jsonl"
        before = segment.read_bytes()
        # A crashed put leaves a partial, never-acknowledged final line.
        with open(segment, "ab") as handle:
            handle.write(b'{"id":"torn-partial-line')
        fresh = CampaignStore(tmp_path / "store")
        assert fresh.ids() == [cid]
        assert [c for c, _r in fresh.records()] == [cid]
        # A pure read never modifies the file.
        assert segment.read_bytes() == before + b'{"id":"torn-partial-line'

    def test_torn_tail_truncated_before_write(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        first = store.put(synthesize_record(seed=41, n_injections=10))
        store.close()
        segment = tmp_path / "store" / "segments" / "seg-000001.jsonl"
        with open(segment, "ab") as handle:
            handle.write(b'{"id":"torn-partial-line')
        fresh = CampaignStore(tmp_path / "store")
        second = fresh.put(synthesize_record(seed=42, n_injections=10))
        assert fresh.ids() == [first, second]
        assert b"torn-partial-line" not in segment.read_bytes()
        for line in segment.read_text().splitlines():
            json.loads(line)  # every surviving line is whole

    def test_put_indexes_foreign_tail_before_append(self, tmp_path):
        # Another writer appended a record but crashed before committing
        # its index rows (or is still mid-put): our put must index that
        # tail before recording indexed_bytes past it, or the foreign
        # record would be marked covered without ever getting rows.
        store = CampaignStore(tmp_path / "store")
        first = store.put(synthesize_record(seed=50, n_injections=10))
        orphan = synthesize_record(seed=51, n_injections=10)
        ocid, line = encode_record_line(orphan)
        with open(tmp_path / "store" / "segments" / "seg-000001.jsonl", "ab") as handle:
            handle.write((line + "\n").encode("utf-8"))
        third = store.put(synthesize_record(seed=52, n_injections=10))
        assert store.ids() == [first, ocid, third]
        assert store.get(ocid) == orphan
        fresh = CampaignStore(tmp_path / "store")
        assert fresh.ids() == [first, ocid, third]

    def test_put_after_writer_died_mid_roll(self, tmp_path):
        # A writer killed between appending a new segment to the manifest
        # and committing its index row leaves a segment the long-lived
        # handle's index has never seen; the next put must register it.
        store = CampaignStore(tmp_path / "store")
        first = store.put(synthesize_record(seed=56, n_injections=10))
        CampaignStore(tmp_path / "store")._append_manifest(
            {"type": "segment", "name": "seg-000002.jsonl", "seq": 2}
        )
        second = store.put(synthesize_record(seed=57, n_injections=10))
        assert store.location(second)[0] == "seg-000002.jsonl"
        assert CampaignStore(tmp_path / "store").ids() == [first, second]

    def test_interleaved_writers_share_store(self, tmp_path):
        # Two long-lived handles on the same root must see each other's
        # appends (the advisory lock + per-put tail sync make this safe
        # across processes too).
        a = CampaignStore(tmp_path / "store")
        b = CampaignStore(tmp_path / "store")
        first = a.put(synthesize_record(seed=53, n_injections=10))
        second = b.put(synthesize_record(seed=54, n_injections=10))
        third = a.put(synthesize_record(seed=55, n_injections=10))
        a.close()
        b.close()
        fresh = CampaignStore(tmp_path / "store")
        assert fresh.ids() == [first, second, third]
        for cid in (first, second, third):
            assert campaign_id(fresh.get(cid)) == cid

    def test_multiprocess_writers_survive_sigkill(self, tmp_path):
        # Three writer processes share one store (small segments, so
        # rolls race too); one is SIGKILLed mid-run.  Every put any of
        # them acknowledged must survive, once, with index == scan.
        repo = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join((str(repo / "src"), str(repo)))
        env["REPRO_STORE_SEGMENT_BYTES"] = "16384"
        root = tmp_path / "store"
        acks = [tmp_path / f"ack-{worker}.txt" for worker in range(3)]

        def writer(worker: int, count: int) -> subprocess.Popen:
            return subprocess.Popen(
                [sys.executable, "-m", "tests.forensics._store_writer",
                 str(root), str(worker), str(count), str(acks[worker])],
                cwd=repo,
                env=env,
            )

        def acked(worker: int) -> list[str]:
            path = acks[worker]
            return path.read_text().split() if path.exists() else []

        # The victim would write far more than 20; it dies part-way.
        victim = writer(0, 10_000)
        others = [writer(worker, 20) for worker in (1, 2)]
        deadline = time.monotonic() + 120
        while len(acked(0)) < 10:
            assert victim.poll() is None, "victim exited before it was killed"
            assert time.monotonic() < deadline, "victim acknowledged too few puts"
            time.sleep(0.01)
        os.kill(victim.pid, signal.SIGKILL)
        assert victim.wait(timeout=30) == -signal.SIGKILL
        for process in others:
            assert process.wait(timeout=120) == 0

        store = CampaignStore(root)
        ids = store.ids()
        assert len(ids) == len(set(ids))
        acknowledged = [cid for worker in range(3) for cid in acked(worker)]
        assert len(acknowledged) >= 10 + 2 * 20
        for cid in acknowledged:
            assert campaign_id(store.get(cid)) == cid
        for query in (
            StoreQuery(),
            StoreQuery(filters={"outcome": ("sdc", "crash")}, group_by=("kind", "stage")),
        ):
            assert index_query(store, query) == scan_query(store, query)
        extra = store.put(synthesize_record(seed=99, n_injections=10))
        assert store.ids() == ids + [extra]

    def test_schema_version_bump_forces_rebuild(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        ids = [store.put(synthesize_record(seed=37, n_injections=10))]
        store.close()
        conn = sqlite3.connect(tmp_path / "store" / "index.sqlite")
        conn.execute("PRAGMA user_version = 999")
        conn.commit()
        conn.close()
        fresh = CampaignStore(tmp_path / "store")
        assert fresh.ids() == ids
