"""CLI tests: campaign --probe/--store, report, and store subcommands."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.forensics.store import LAYOUT_V2, CampaignStore
from repro.forensics.synth import synthesize_corpus

from tests.forensics.v1store import snapshot_files, write_v1_store


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """Two small probed campaigns stored via the CLI."""
    store = tmp_path_factory.mktemp("store")
    base = [
        "campaign", "--input", "input2", "--frames", "8", "-n", "10",
        "--workers", "1", "--probe", "--store", str(store),
    ]
    assert main([*base, "--seed", "3", "--label", "first"]) == 0
    assert main([*base, "--seed", "9", "--label", "second"]) == 0
    return store


def _stored_ids(store, capsys) -> list[str]:
    assert main(["report", "list", str(store)]) == 0
    return [line.split()[0] for line in capsys.readouterr().out.splitlines()]


class TestCampaignForensicsFlags:
    def test_probe_and_store_announced(self, stored, capsys, tmp_path):
        code = main(
            [
                "campaign", "--input", "input2", "--frames", "8", "-n", "6",
                "--workers", "1", "--seed", "5", "--probe", "--store", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "divergence:" in out
        assert "stored campaign" in out

    def test_v1_store_refused_before_running(self, v1_store_root, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("campaign work started for a read-only store")

        for name in ("cached_input", "golden_run", "run_campaign"):
            monkeypatch.setattr(f"repro.cli.{name}", must_not_run)
        before = snapshot_files(v1_store_root)
        code = main(
            [
                "campaign", "--input", "input2", "--frames", "8", "-n", "6",
                "--workers", "1", "--seed", "5", "--store", str(v1_store_root),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert f"repro store migrate {v1_store_root}" in captured.err
        assert "stored campaign" not in captured.out
        assert snapshot_files(v1_store_root) == before


class TestReportCommand:
    def test_list_shows_both_campaigns(self, stored, capsys):
        ids = _stored_ids(stored, capsys)
        assert len(ids) == 2
        assert len(set(ids)) == 2

    def test_show_writes_deterministic_report(self, stored, capsys, tmp_path):
        cid = _stored_ids(stored, capsys)[0]
        first = tmp_path / "a.md"
        second = tmp_path / "b.md"
        assert main(["report", "show", str(stored), cid, "--format", "markdown",
                     "--out", str(first)]) == 0
        assert main(["report", "show", str(stored), cid, "--format", "markdown",
                     "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert "## Outcome rates" in first.read_text()

    def test_show_html(self, stored, capsys, tmp_path):
        cid = _stored_ids(stored, capsys)[0]
        out = tmp_path / "report.html"
        assert main(["report", "show", str(stored), cid, "--format", "html",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("<!DOCTYPE html>")

    def test_self_diff_quiet_exit_zero(self, stored, capsys):
        cid = _stored_ids(stored, capsys)[0]
        assert main(["report", "diff", str(stored), cid, cid]) == 0
        assert "no statistically significant shifts" in capsys.readouterr().out

    def test_diff_two_seeds_runs(self, stored, capsys):
        ids = _stored_ids(stored, capsys)
        # Two tiny same-config campaigns: the gate may or may not flag,
        # but the command must render and exit 0 or 4, nothing else.
        code = main(["report", "diff", str(stored), ids[0], ids[1]])
        assert code in (0, 4)
        assert "Rate shifts" in capsys.readouterr().out

    def test_list_shows_sampling_mode_column(self, stored, capsys):
        assert main(["report", "list", str(stored)]) == 0
        for line in capsys.readouterr().out.splitlines():
            assert " uniform " in f" {line} "

    def test_query_groups_outcomes(self, stored, capsys):
        assert main(["report", "query", str(stored)]) == 0
        out = capsys.readouterr().out
        assert "Grouped counts" in out
        assert "matching injections" in out

    def test_query_where_and_group_by(self, stored, capsys, tmp_path):
        out_path = tmp_path / "query.md"
        assert main(
            [
                "report", "query", str(stored),
                "--where", "outcome=sdc", "--where", "outcome=crash",
                "--group-by", "register_class,outcome",
                "--format", "markdown", "--out", str(out_path),
            ]
        ) == 0
        text = out_path.read_text()
        assert "register_class" in text
        assert "outcome in (sdc, crash)" in text

    def test_query_bad_field_is_usage_error(self, stored, capsys):
        assert main(["report", "query", str(stored), "--group-by", "nope"]) == 2
        assert "unknown query field" in capsys.readouterr().err


@pytest.fixture
def v1_store_root(tmp_path):
    root = tmp_path / "v1store"
    write_v1_store(root, synthesize_corpus(3, seed=400, n_injections=20))
    return root


class TestStoreCommand:
    def test_migrate_reports_and_converts(self, v1_store_root, capsys):
        assert main(["store", "migrate", str(v1_store_root)]) == 0
        out = capsys.readouterr().out
        assert "migrated 3 record(s)" in out
        assert "ids unchanged" in out
        assert CampaignStore(v1_store_root).layout == LAYOUT_V2

    def test_migrate_twice_is_usage_error(self, v1_store_root, capsys):
        assert main(["store", "migrate", str(v1_store_root)]) == 0
        capsys.readouterr()
        assert main(["store", "migrate", str(v1_store_root)]) == 2
        assert "already" in capsys.readouterr().err

    def test_rebuild_both_layouts(self, v1_store_root, capsys):
        # v1 has no index to rebuild: usage error naming the migration,
        # files untouched; once migrated, rebuild re-derives the SQLite.
        before = snapshot_files(v1_store_root)
        assert main(["store", "rebuild", str(v1_store_root)]) == 2
        captured = capsys.readouterr()
        assert f"repro store migrate {v1_store_root}" in captured.err
        assert captured.out == ""
        assert snapshot_files(v1_store_root) == before
        assert main(["store", "migrate", str(v1_store_root)]) == 0
        capsys.readouterr()
        assert main(["store", "rebuild", str(v1_store_root)]) == 0
        out = capsys.readouterr().out
        assert "rebuilt the v2 side index" in out
        assert "3 record(s)" in out

    def test_report_commands_work_after_migrate(self, v1_store_root, capsys):
        assert main(["report", "list", str(v1_store_root)]) == 0
        before = capsys.readouterr().out
        assert main(["store", "migrate", str(v1_store_root)]) == 0
        capsys.readouterr()
        assert main(["report", "list", str(v1_store_root)]) == 0
        assert capsys.readouterr().out == before
        assert main(["report", "query", str(v1_store_root),
                     "--where", "outcome=sdc", "--group-by", "stage"]) == 0
        assert "Grouped counts" in capsys.readouterr().out
