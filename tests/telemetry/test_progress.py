"""Heartbeat: rate-limited progress lines with rate, ETA and cache stats."""

from __future__ import annotations

import io

from repro.observe.events import CampaignEvent
from repro.telemetry.progress import Heartbeat, _format_eta


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _heartbeat(total: int, interval_s: float = 2.0):
    clock = FakeClock()
    stream = io.StringIO()
    beat = Heartbeat(interval_s=interval_s, stream=stream, clock=clock)
    beat(CampaignEvent(0, 0.0, "campaign_start", {"kind": "gpr", "total": total}))
    return beat, clock, stream


class TestRateLimiting:
    def test_at_most_one_line_per_interval(self):
        beat, clock, stream = _heartbeat(total=100)
        clock.advance(0.1)
        beat.update(1)  # first due immediately
        for done in range(2, 50):
            clock.advance(0.01)
            beat.update(done)  # all inside the 2 s window: suppressed
        assert beat.lines_emitted == 1
        clock.advance(2.0)
        beat.update(50)
        assert beat.lines_emitted == 2
        assert len(stream.getvalue().splitlines()) == 2

    def test_final_update_always_prints(self):
        beat, clock, stream = _heartbeat(total=10)
        clock.advance(0.1)
        beat.update(3)
        clock.advance(0.01)
        beat.update(10)  # final: prints despite the interval
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert "10/10" in lines[-1]
        assert "ETA 0s" in lines[-1]


class TestLineFormat:
    def test_line_shows_rate_and_eta(self):
        beat, clock, stream = _heartbeat(total=40)
        clock.advance(2.0)
        beat.update(10)  # 5 inj/s, 30 left -> ETA 6 s
        line = stream.getvalue().strip()
        assert line.startswith("[campaign gpr] 10/40 injections")
        assert "5.0 inj/s" in line
        assert "ETA 6s" in line

    def test_cache_suffix_reports_golden_hits(self):
        from repro.summarize.golden import clear_golden_cache, golden_cache_stats

        clear_golden_cache()
        stats = golden_cache_stats()
        stats.computes = 1
        stats.hits = 7
        try:
            beat, clock, stream = _heartbeat(total=10)
            clock.advance(1.0)
            beat.update(5)
            assert "golden-cache 7/8 hits" in stream.getvalue()
        finally:
            clear_golden_cache()

    def test_no_cache_suffix_without_lookups(self):
        from repro.summarize.golden import clear_golden_cache

        clear_golden_cache()
        beat, clock, stream = _heartbeat(total=10)
        clock.advance(1.0)
        beat.update(5)
        assert "golden-cache" not in stream.getvalue()


class TestEtaFormatting:
    def test_eta_units(self):
        assert _format_eta(42.4) == "42s"
        assert _format_eta(90) == "1.5m"
        assert _format_eta(2.5 * 3600) == "2.5h"


class TestIntervalResolution:
    def test_explicit_value_wins(self, monkeypatch):
        from repro.telemetry.progress import (
            HEARTBEAT_INTERVAL_ENV,
            resolve_heartbeat_interval,
        )

        monkeypatch.setenv(HEARTBEAT_INTERVAL_ENV, "9.0")
        assert resolve_heartbeat_interval(0.5) == 0.5

    def test_env_var_beats_default(self, monkeypatch):
        from repro.telemetry.progress import (
            DEFAULT_HEARTBEAT_INTERVAL,
            HEARTBEAT_INTERVAL_ENV,
            resolve_heartbeat_interval,
        )

        monkeypatch.delenv(HEARTBEAT_INTERVAL_ENV, raising=False)
        assert resolve_heartbeat_interval() == DEFAULT_HEARTBEAT_INTERVAL
        monkeypatch.setenv(HEARTBEAT_INTERVAL_ENV, "0.25")
        assert resolve_heartbeat_interval() == 0.25
        monkeypatch.setenv(HEARTBEAT_INTERVAL_ENV, "")
        assert resolve_heartbeat_interval() == DEFAULT_HEARTBEAT_INTERVAL

    def test_bad_env_value_names_its_source(self, monkeypatch):
        import pytest

        from repro.telemetry.progress import (
            HEARTBEAT_INTERVAL_ENV,
            resolve_heartbeat_interval,
        )

        monkeypatch.setenv(HEARTBEAT_INTERVAL_ENV, "soon")
        with pytest.raises(ValueError, match=HEARTBEAT_INTERVAL_ENV):
            resolve_heartbeat_interval()

    def test_bad_flag_value_names_the_flag(self):
        import pytest

        from repro.telemetry.progress import resolve_heartbeat_interval

        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="heartbeat interval"):
                resolve_heartbeat_interval(bad)

    def test_constructor_validates_interval(self):
        import pytest

        with pytest.raises(ValueError, match="heartbeat interval"):
            Heartbeat(interval_s=0.0)


class TestQuietMode:
    """The heartbeat reads campaign events and publishes none of its own."""

    def _run(self, quiet: bool):
        from repro.observe import events

        clock = FakeClock()
        stream = io.StringIO()
        beat = Heartbeat(interval_s=2.0, stream=stream, clock=clock, quiet=quiet)
        bus = events.EventBus()
        seen = []
        bus.subscribe(beat)
        bus.subscribe(seen.append)
        bus.publish("campaign_start", {"mode": "uniform", "kind": "gpr", "total": 10})
        clock.advance(1.0)
        bus.publish("chunk_done", {"done": 5})
        bus.publish("note", {"note": "boundary fan-out on (2 groups)"})
        bus.publish("chunk_done", {"done": 10})
        return beat, stream, bus, seen

    def test_quiet_suppresses_lines_but_events_still_flow(self):
        beat, stream, bus, seen = self._run(quiet=True)
        assert stream.getvalue() == ""
        assert beat.lines_emitted == 0
        assert [event.kind for event in seen] == [
            "campaign_start", "chunk_done", "note", "chunk_done"
        ]
        assert bus.events_emitted == 4

    def test_loud_heartbeat_prints_from_events_and_publishes_none(self):
        beat, stream, bus, seen = self._run(quiet=False)
        lines = stream.getvalue().splitlines()
        assert lines == [
            "[campaign gpr] 5/10 injections | 5.0 inj/s | ETA 1s",
            "[campaign gpr] boundary fan-out on (2 groups)",
            "[campaign gpr] 10/10 injections | 10.0 inj/s | ETA 0s"
            " | boundary fan-out on (2 groups)",
        ]
        assert bus.events_emitted == 4

    def test_failures_print_as_notes(self):
        from repro.observe import events

        stream = io.StringIO()
        beat = Heartbeat(stream=stream, clock=FakeClock())
        bus = events.EventBus()
        bus.subscribe(beat)
        bus.publish("journal_resume", {"replayed": 3, "units": 6})
        bus.publish("retry", {"attempt": 1, "cause": "worker process died"})
        bus.publish("degrade", {"to_workers": 1, "serial_fallback": True})
        assert stream.getvalue().splitlines() == [
            "[campaign] journal resume: replayed=3 units=6",
            "[campaign] retry: attempt=1 cause=worker process died",
            "[campaign] degrade: to_workers=1 serial_fallback=True",
        ]


class TestCampaignHeartbeat:
    """The heartbeat a traced campaign subscribes, end to end."""

    def test_quiet_traced_campaign_prints_nothing_but_status_counts_retries(
        self, fresh_tracer, tmp_path, capsys
    ):
        from repro.faultinject.campaign import CampaignConfig, run_campaign
        from repro.faultinject.registers import RegKind
        from repro.observe.session import observe_campaign
        from repro.observe.status import read_status
        from tests.faultinject.test_parallel import ToyWorkloadSpec, toy_workload
        from tests.faultinject.test_resilience import FAST_RETRY, KillOnceSpec

        _, golden, cycles = ToyWorkloadSpec().build()
        status = tmp_path / "status.json"
        with observe_campaign(status):
            run_campaign(
                toy_workload,
                golden,
                cycles,
                CampaignConfig(
                    n_injections=30,
                    kind=RegKind.GPR,
                    seed=5,
                    workers=3,
                    retry=FAST_RETRY,
                    quiet=True,
                ),
                spec=KillOnceSpec(str(tmp_path / "killed-once")),
            )
        assert "[campaign" not in capsys.readouterr().err
        retries = read_status(status)["counters"]["retries"]
        assert retries >= 1
        assert fresh_tracer.registry.counter("campaign.retries") == retries

    def test_stratified_heartbeat_is_rate_limited(self, fresh_tracer, capsys):
        from repro.faultinject.campaign import CampaignConfig, run_campaign
        from repro.faultinject.registers import RegKind
        from repro.observe import events
        from tests.faultinject.test_parallel import ToyWorkloadSpec, toy_workload

        _, golden, cycles = ToyWorkloadSpec().build()
        bus = events.install()
        progress = []
        bus.subscribe(
            lambda event: progress.append(event)
            if event.kind in ("chunk_done", "round_done")
            else None
        )
        try:
            campaign = run_campaign(
                toy_workload,
                golden,
                cycles,
                CampaignConfig(
                    n_injections=1,
                    kind=RegKind.GPR,
                    seed=9,
                    workers=1,
                    sampling="stratified",
                    ci_width=0.1,
                    round_size=4,
                    strata=(2, 2, 2),
                    max_injections=96,
                    heartbeat_interval=3600.0,
                ),
            )
        finally:
            events.uninstall()
        lines = [
            line
            for line in capsys.readouterr().err.splitlines()
            if " injections | " in line
        ]
        # The total is unknown up front: one line when progress starts,
        # one when the campaign finishes, none per round or chunk.
        assert campaign.sampling.rounds > 2
        assert len(progress) > 2 * campaign.sampling.rounds
        assert len(lines) == 2
        assert lines[0].startswith("[campaign gpr (stratified)] ")
        assert lines[-1].startswith(
            f"[campaign gpr (stratified)] {campaign.counts.total} injections | "
        )
