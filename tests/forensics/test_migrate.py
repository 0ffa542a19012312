"""Migration tests: v1 -> v2 must be lossless, id-stable, byte-stable."""

from __future__ import annotations

import pytest

from repro.forensics.query import StoreQuery, run_query
from repro.forensics.report import diff_records, render_report
from repro.forensics.store import (
    LAYOUT_V1,
    LAYOUT_V2,
    CampaignStore,
    StoreError,
    migrate_store,
    rebuild_store,
)
from repro.forensics.synth import synthesize_corpus, synthesize_record
from repro.observe.trend import build_trend, render_trend

from tests.forensics.v1store import snapshot_files, write_v1_store


@pytest.fixture
def v1_root(tmp_path):
    root = tmp_path / "store"
    write_v1_store(
        root, synthesize_corpus(5, seed=200, n_injections=30, stratified_every=4)
    )
    return root


class TestMigrate:
    def test_ids_and_records_survive(self, v1_root):
        v1 = CampaignStore(v1_root)
        ids = v1.ids()
        records = {cid: v1.get(cid) for cid in ids}
        report = migrate_store(v1_root)
        assert report.ids == ids
        assert report.records == len(ids)
        v2 = CampaignStore(v1_root)
        assert v2.layout == LAYOUT_V2
        assert v2.ids() == ids
        for cid in ids:
            assert v2.get(cid) == records[cid]

    def test_segment_bytes_are_verbatim_copies(self, v1_root):
        original = (v1_root / "campaigns.jsonl").read_bytes()
        migrate_store(v1_root)
        store = CampaignStore(v1_root)
        concatenated = b"".join(
            (store.segments_dir / name).read_bytes()
            for name in sorted(p.name for p in store.segments_dir.iterdir())
        )
        assert concatenated == original

    def test_rendered_reports_are_byte_identical(self, v1_root):
        v1 = CampaignStore(v1_root)
        ids = v1.ids()
        before = {
            cid: render_report(v1.get(cid), cid=cid, fmt="markdown") for cid in ids
        }
        trend_before = render_trend(build_trend(v1), fmt="markdown")
        migrate_store(v1_root)
        v2 = CampaignStore(v1_root)
        for cid in ids:
            assert render_report(v2.get(cid), cid=cid, fmt="markdown") == before[cid]
        assert render_trend(build_trend(v2), fmt="markdown") == trend_before

    def test_diff_unchanged_after_migration(self, v1_root):
        v1 = CampaignStore(v1_root)
        a, b = v1.ids()[:2]
        before = diff_records(v1.get(a), v1.get(b))
        migrate_store(v1_root)
        v2 = CampaignStore(v1_root)
        assert diff_records(v2.get(a), v2.get(b)) == before

    def test_queries_unchanged_after_migration(self, v1_root):
        query = StoreQuery(
            filters={"outcome": ("sdc", "crash")}, group_by=("register_class", "stage")
        )
        before = run_query(CampaignStore(v1_root), query)
        migrate_store(v1_root)
        assert run_query(CampaignStore(v1_root), query) == before

    def test_v1_files_kept_as_backups(self, v1_root):
        report = migrate_store(v1_root)
        assert "campaigns.jsonl.v1" in report.backups
        assert (v1_root / "campaigns.jsonl.v1").exists()
        assert not (v1_root / "campaigns.jsonl").exists()

    def test_segments_respect_size_cap(self, v1_root):
        report = migrate_store(v1_root, segment_max_bytes=4096)
        assert report.segments > 1
        store = CampaignStore(v1_root)
        assert len(store.ids()) == report.records

    def test_store_stays_writable_after_migration(self, v1_root):
        migrate_store(v1_root)
        store = CampaignStore(v1_root)
        count = len(store.ids())
        cid = store.put(synthesize_record(seed=999, n_injections=10))
        assert len(store.ids()) == count + 1
        assert store.get(cid)["fingerprint"]["seed"] == 999

    def test_already_v2_rejected(self, v1_root):
        migrate_store(v1_root)
        with pytest.raises(StoreError, match="already"):
            migrate_store(v1_root)

    def test_missing_log_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="no campaigns.jsonl"):
            migrate_store(tmp_path / "empty")

    def test_duplicate_log_lines_deduped(self, v1_root):
        # Logs written before the v1 dedupe fix can hold the same cid
        # line twice; migration keeps the first occurrence (matching
        # index semantics) and still verifies cleanly.
        ids = CampaignStore(v1_root).ids()
        log = v1_root / "campaigns.jsonl"
        duplicate = log.read_text().splitlines()[0]
        with open(log, "a") as handle:
            handle.write(duplicate + "\n")
        report = migrate_store(v1_root)
        assert report.ids == ids
        v2 = CampaignStore(v1_root)
        assert v2.ids() == ids
        assert [cid for cid, _record in v2.records()] == ids

    def test_torn_v1_tail_dropped_not_migrated(self, v1_root):
        # A torn final line was never acknowledged; migration carries
        # only complete records over.
        ids = CampaignStore(v1_root).ids()
        with open(v1_root / "campaigns.jsonl", "ab") as handle:
            handle.write(b'{"id":"torn-partial')
        report = migrate_store(v1_root)
        assert report.ids == ids


class TestRebuild:
    def test_rebuild_v1(self, v1_root):
        # A v1 store has no index to rebuild; it must be migrated, and
        # the refusal leaves every file as it was.
        before = snapshot_files(v1_root)
        with pytest.raises(StoreError, match=f"repro store migrate {v1_root}"):
            rebuild_store(v1_root)
        assert snapshot_files(v1_root) == before
        assert CampaignStore(v1_root).layout == LAYOUT_V1

    def test_rebuild_v2(self, v1_root):
        migrate_store(v1_root)
        ids = CampaignStore(v1_root).ids()
        (v1_root / "index.sqlite").unlink()
        result = rebuild_store(v1_root)
        assert result == {"layout": LAYOUT_V2, "records": len(ids)}
        assert CampaignStore(v1_root).ids() == ids

    def test_rebuild_v2_truncates_torn_tail(self, v1_root):
        migrate_store(v1_root)
        store = CampaignStore(v1_root)
        ids = store.ids()
        live = sorted(p.name for p in store.segments_dir.iterdir())[-1]
        with open(store.segments_dir / live, "ab") as handle:
            handle.write(b'{"id":"torn-partial')
        store.close()
        result = rebuild_store(v1_root)
        assert result["records"] == len(ids)
        assert b"torn-partial" not in (store.segments_dir / live).read_bytes()
