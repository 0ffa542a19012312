"""Tests for the adaptive stratified campaign planner and estimators.

Three invariants anchor this file:

* the Horvitz-Thompson reweighted estimator is *unbiased* (checked by
  seeded Monte-Carlo replication against an analytic error bound) and
  reduces exactly to the plain pooled rate under equal weights and
  equal per-cell draws;
* uniform mode draws plans **byte-identically** to the pre-stratified
  releases — the reference draw is inlined here, not imported, so a
  refactor of ``draw_plans`` cannot silently move the pin;
* a stratified campaign is deterministic, resumable bit-identically
  after an interrupt, and statistically consistent with a uniform
  campaign on the same workload (the ``repro report diff`` z-gate).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultinject.campaign import CampaignConfig, draw_plans, run_campaign
from repro.faultinject.injector import InjectionPlan
from repro.faultinject.journal import (
    ABORT_AFTER_ENV,
    CampaignInterrupted,
    JournalError,
    config_fingerprint,
)
from repro.faultinject.outcomes import Outcome, OutcomeCounts
from repro.faultinject.registers import NUM_REGISTERS, REGISTER_BITS, RegKind
from repro.faultinject.sampling import (
    Stratification,
    boundary_cycle_edges,
    cell_max_ci_width,
    draw_cell_plans,
    reweighted_rates,
    reweighted_variance,
    uniform_cycle_edges,
)
from repro.observe import events as observe_events
from tests.faultinject.test_parallel import ToyWorkloadSpec, toy_workload


def _counts(masked=0, sdc=0, crash_segv=0, crash_abort=0, hang=0) -> OutcomeCounts:
    return OutcomeCounts(
        masked=masked,
        sdc=sdc,
        crash_segv=crash_segv,
        crash_abort=crash_abort,
        hang=hang,
    )


@st.composite
def outcome_partitions(draw, total: int):
    """Split ``total`` runs over the four primary outcome classes."""
    masked = draw(st.integers(0, total))
    sdc = draw(st.integers(0, total - masked))
    crash = draw(st.integers(0, total - masked - sdc))
    hang = total - masked - sdc - crash
    return _counts(masked=masked, sdc=sdc, crash_segv=crash, hang=hang)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


class TestReweightedRates:
    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_equal_weights_equal_draws_reduce_to_pooled_rate(self, data):
        """With uniform strata the HT estimate IS the plain rate."""
        n_cells = data.draw(st.integers(1, 6))
        per_cell = data.draw(st.integers(1, 40))
        counts = [data.draw(outcome_partitions(per_cell)) for _ in range(n_cells)]
        weights = [1.0 / n_cells] * n_cells

        pooled = _counts()
        for c in counts:
            pooled.masked += c.masked
            pooled.sdc += c.sdc
            pooled.crash_segv += c.crash_segv
            pooled.crash_abort += c.crash_abort
            pooled.hang += c.hang

        reweighted = reweighted_rates(weights, counts)
        for outcome in Outcome:
            assert reweighted[outcome.value] == pytest.approx(
                pooled.rate(outcome), abs=1e-12
            )

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_ht_estimator_is_unbiased(self, data):
        """Mean HT estimate over replications matches the true mixture rate.

        The world is synthetic: known cell weights and true per-cell SDC
        probabilities.  Every cell is sampled, so the estimator is
        exactly unbiased and the replication mean must land within a
        5-sigma analytic bound of ``sum_c W_c p_c``.
        """
        n_cells = data.draw(st.integers(2, 5))
        raw_weights = [
            data.draw(st.floats(0.05, 1.0, allow_nan=False)) for _ in range(n_cells)
        ]
        total = sum(raw_weights)
        weights = [w / total for w in raw_weights]
        probs = [
            data.draw(st.floats(0.0, 1.0, allow_nan=False)) for _ in range(n_cells)
        ]
        draws = [data.draw(st.integers(30, 80)) for _ in range(n_cells)]
        seed = data.draw(st.integers(0, 2**31 - 1))

        truth = sum(w * p for w, p in zip(weights, probs))
        # Variance of one HT estimate (all cells sampled, weights sum
        # to 1): sum_c W_c^2 p_c (1 - p_c) / n_c.
        single_var = sum(
            w**2 * p * (1.0 - p) / n for w, p, n in zip(weights, probs, draws)
        )
        replications = 400
        rng = np.random.default_rng(seed)
        estimates = []
        for _ in range(replications):
            counts = []
            for n, p in zip(draws, probs):
                # SDC successes are binomial; masked fills the rest so
                # each cell totals exactly its n draws.
                sdc = int(rng.binomial(n, p))
                counts.append(_counts(sdc=sdc, masked=n - sdc))
            estimates.append(reweighted_rates(weights, counts)["sdc"])
        mean = sum(estimates) / replications
        bound = 5.0 * math.sqrt(single_var / replications) + 1e-9
        assert abs(mean - truth) <= bound

    def test_zero_draw_cells_excluded_and_renormalized(self):
        weights = [0.25, 0.75]
        counts = [_counts(masked=3, sdc=1), _counts()]
        rates = reweighted_rates(weights, counts)
        # Only the sampled cell carries information: its own rates.
        assert rates["mask"] == pytest.approx(0.75)
        assert rates["sdc"] == pytest.approx(0.25)

    def test_no_sampled_cells_gives_zero_rates(self):
        rates = reweighted_rates([0.5, 0.5], [_counts(), _counts()])
        assert rates == {outcome.value: 0.0 for outcome in Outcome}

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError, match="weights"):
            reweighted_rates([0.5], [_counts(), _counts()])

    def test_variance_matches_hand_computation(self):
        weights = [0.5, 0.5]
        counts = [_counts(masked=5, sdc=5), _counts(masked=10)]
        variance = reweighted_variance(weights, counts)
        # Cell 1: p=0.5, n=10 -> 0.25 * 0.5*0.5/10; cell 2: p=0 -> 0.
        assert variance["sdc"] == pytest.approx(0.25 * 0.025)
        assert variance["mask"] == pytest.approx(0.25 * 0.025)

    def test_cell_max_ci_width_shrinks_with_draws(self):
        assert cell_max_ci_width(_counts()) == 1.0
        widths = [
            cell_max_ci_width(_counts(masked=n // 2, sdc=n - n // 2))
            for n in (4, 16, 64, 256)
        ]
        assert widths == sorted(widths, reverse=True)
        assert widths[-1] < 0.25


# ---------------------------------------------------------------------------
# Stratification geometry
# ---------------------------------------------------------------------------


class TestStratification:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_cells_partition_the_plan_space(self, data):
        """Every plan lands in exactly the cell whose ranges contain it."""
        register_classes = data.draw(st.sampled_from([1, 2, 4, 8, 16, 32]))
        bit_octets = data.draw(st.sampled_from([1, 2, 4, 8, 16]))
        total_cycles = data.draw(st.integers(10, 100_000))
        n_cycle = data.draw(st.integers(1, 6))
        strat = Stratification.build(
            RegKind.GPR,
            total_cycles,
            cycle_edges=uniform_cycle_edges(total_cycles, n_cycle),
            register_classes=register_classes,
            bit_octets=bit_octets,
        )
        assert sum(cell.weight for cell in strat.cells) == pytest.approx(1.0)

        plan = InjectionPlan(
            target_cycle=data.draw(st.integers(0, total_cycles - 1)),
            kind=RegKind.GPR,
            register=data.draw(st.integers(0, NUM_REGISTERS - 1)),
            bit=data.draw(st.integers(0, REGISTER_BITS - 1)),
        )
        cell = strat.cells[strat.cell_index_for(plan)]
        assert cell.registers[0] <= plan.register < cell.registers[1]
        assert cell.bits[0] <= plan.bit < cell.bits[1]
        assert cell.cycles[0] <= plan.target_cycle < cell.cycles[1]

    def test_cell_draws_land_in_their_own_cell(self):
        strat = Stratification.build(
            RegKind.GPR, 5000, register_classes=4, bit_octets=4
        )
        for cell in strat.cells:
            for plan in draw_cell_plans(cell, RegKind.GPR, 16, seed=3, round_index=2):
                assert strat.cell_index_for(plan) == cell.index

    def test_cell_draws_are_deterministic_per_round_and_cell(self):
        strat = Stratification.build(RegKind.GPR, 5000)
        cell = strat.cells[5]
        first = draw_cell_plans(cell, RegKind.GPR, 8, seed=7, round_index=1)
        again = draw_cell_plans(cell, RegKind.GPR, 8, seed=7, round_index=1)
        other_round = draw_cell_plans(cell, RegKind.GPR, 8, seed=7, round_index=2)
        assert first == again
        assert first != other_round

    def test_build_rejects_bad_grids(self):
        with pytest.raises(ValueError, match="register_classes"):
            Stratification.build(RegKind.GPR, 1000, register_classes=5)
        with pytest.raises(ValueError, match="bit_octets"):
            Stratification.build(RegKind.GPR, 1000, bit_octets=7)
        with pytest.raises(ValueError, match="total_cycles"):
            Stratification.build(RegKind.GPR, 0)
        with pytest.raises(ValueError, match="cycle_edges"):
            Stratification.build(RegKind.GPR, 1000, cycle_edges=[0, 500, 400, 1000])
        with pytest.raises(ValueError, match="cycle_edges"):
            Stratification.build(RegKind.GPR, 1000, cycle_edges=[100, 1000])

    def test_boundary_edges_cap_and_cover(self):
        edges = boundary_cycle_edges(range(100, 10_000, 100), 10_000, max_strata=4)
        assert edges[0] == 0 and edges[-1] == 10_000
        assert len(edges) - 1 <= 4
        assert edges == sorted(edges)

    def test_uniform_edges_degenerate_totals(self):
        assert uniform_cycle_edges(3, 8) == [0, 1, 2, 3]
        assert uniform_cycle_edges(1, 4) == [0, 1]
        with pytest.raises(ValueError):
            uniform_cycle_edges(0, 4)


# ---------------------------------------------------------------------------
# Uniform mode: the byte-identity pin
# ---------------------------------------------------------------------------


class TestUniformPin:
    @pytest.mark.parametrize("seed", [0, 1, 9, 123])
    @pytest.mark.parametrize("n", [1, 12, 60])
    def test_uniform_plans_byte_identical_to_reference(self, seed, n):
        """The exact pre-stratification draw, inlined as the reference.

        ``draw_plans`` must keep producing this sequence forever:
        one ``default_rng(seed)`` stream, per plan drawing cycle then
        register then bit with ``rng.integers``.
        """
        golden_cycles = 48_000
        rng = np.random.default_rng(seed)
        reference = [
            InjectionPlan(
                target_cycle=int(rng.integers(0, golden_cycles)),
                kind=RegKind.GPR,
                register=int(rng.integers(0, NUM_REGISTERS)),
                bit=int(rng.integers(0, REGISTER_BITS)),
            )
            for _ in range(n)
        ]
        config = CampaignConfig(n_injections=n, kind=RegKind.GPR, seed=seed)
        assert draw_plans(config, golden_cycles) == reference

    def test_stratified_knobs_do_not_perturb_uniform_mode(self):
        """Uniform plans and fingerprints ignore the stratified knobs."""
        golden_cycles = 48_000
        base = CampaignConfig(n_injections=20, kind=RegKind.GPR, seed=4)
        tweaked = CampaignConfig(
            n_injections=20,
            kind=RegKind.GPR,
            seed=4,
            ci_width=0.5,
            round_size=3,
            max_injections=7,
            strata=(2, 2, 2),
        )
        assert draw_plans(base, golden_cycles) == draw_plans(tweaked, golden_cycles)
        assert config_fingerprint(base) == config_fingerprint(tweaked)
        assert "stratified" not in config_fingerprint(base)


# ---------------------------------------------------------------------------
# The stratified campaign on the toy workload
# ---------------------------------------------------------------------------


def _toy():
    from repro.runtime.context import ExecutionContext

    ctx = ExecutionContext()
    golden = toy_workload(ctx)
    return golden, ctx.cycles


@dataclass(frozen=True)
class _TapedToySpec(ToyWorkloadSpec):
    """The toy spec with a stand-in tape: only its frame boundaries exist."""

    def build_fast_forward(self):
        return SimpleNamespace(tape=SimpleNamespace(boundary_cycles=(1000, 3000)))


def _stratified_config(**overrides) -> CampaignConfig:
    base = dict(
        n_injections=1,
        kind=RegKind.GPR,
        seed=9,
        workers=1,
        sampling="stratified",
        ci_width=0.3,
        round_size=8,
        strata=(2, 2, 2),
    )
    base.update(overrides)
    return CampaignConfig(**base)


def _observed(config: CampaignConfig, **kwargs):
    """Run a toy campaign on a fresh event bus; returns it and its events."""
    golden, cycles = _toy()
    bus = observe_events.install()
    seen = []
    bus.subscribe(seen.append)
    try:
        return run_campaign(toy_workload, golden, cycles, config, **kwargs), seen
    finally:
        observe_events.uninstall()


def _only(events, kind: str) -> dict:
    (payload,) = [event.payload for event in events if event.kind == kind]
    return payload


def _outcome_sequence(campaign) -> list[tuple]:
    return [
        (
            result.plan.target_cycle,
            result.plan.register,
            result.plan.bit,
            result.outcome.value,
            result.cycles,
        )
        for result in campaign.results
    ]


class TestStratifiedCampaign:
    def test_converges_and_reports(self):
        golden, cycles = _toy()
        campaign = run_campaign(toy_workload, golden, cycles, _stratified_config())
        summary = campaign.sampling
        assert summary is not None
        assert summary.cells_converged == len(summary.cells)
        assert not summary.budget_exhausted
        assert summary.total_draws == len(campaign.results) == campaign.counts.total
        assert summary.total_draws == sum(stats.draws for stats in summary.cells)
        for stats in summary.cells:
            assert cell_max_ci_width(stats.counts) <= summary.ci_width
        payload = summary.to_dict()
        assert payload["mode"] == "stratified"
        assert payload["draws"] == summary.total_draws
        assert payload["uniform_equivalent_draws"] >= summary.total_draws - payload[
            "draws_saved"
        ]
        assert set(payload["ht_rates"]) == {o.value for o in Outcome}

    def test_is_deterministic(self):
        golden, cycles = _toy()
        first = run_campaign(toy_workload, golden, cycles, _stratified_config())
        second = run_campaign(toy_workload, golden, cycles, _stratified_config())
        assert _outcome_sequence(first) == _outcome_sequence(second)
        assert first.sampling.to_dict() == second.sampling.to_dict()

    def test_budget_cap_marks_exhausted(self):
        golden, cycles = _toy()
        config = _stratified_config(ci_width=0.02, max_injections=40)
        campaign = run_campaign(toy_workload, golden, cycles, config)
        summary = campaign.sampling
        assert summary.budget_exhausted
        assert summary.total_draws <= 40
        assert summary.cells_converged < len(summary.cells)

    def test_interrupt_then_resume_is_bit_identical(self, tmp_path, monkeypatch):
        golden, cycles = _toy()
        config = _stratified_config()
        journal = tmp_path / "strat.jsonl"

        monkeypatch.setenv(ABORT_AFTER_ENV, "2")
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                toy_workload, golden, cycles, config, journal_path=journal
            )
        monkeypatch.delenv(ABORT_AFTER_ENV)

        resumed = run_campaign(
            toy_workload, golden, cycles, config, journal_path=journal, resume=True
        )
        reference = run_campaign(toy_workload, golden, cycles, config)
        assert _outcome_sequence(resumed) == _outcome_sequence(reference)
        assert resumed.sampling.to_dict() == reference.sampling.to_dict()

    def _interrupted(self, tmp_path, monkeypatch, rounds: int):
        golden, cycles = _toy()
        journal = tmp_path / "strat.jsonl"
        monkeypatch.setenv(ABORT_AFTER_ENV, str(rounds))
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                toy_workload, golden, cycles, _stratified_config(), journal_path=journal
            )
        monkeypatch.delenv(ABORT_AFTER_ENV)
        return journal

    def _resume(self, journal, spec=None):
        """Resume ``journal``; returns the campaign and its journal_resume payload."""
        campaign, seen = _observed(
            _stratified_config(), spec=spec, journal_path=journal, resume=True
        )
        return campaign, _only(seen, "journal_resume")

    def _assert_matches_clean_run(self, campaign):
        golden, cycles = _toy()
        reference = run_campaign(toy_workload, golden, cycles, _stratified_config())
        assert _outcome_sequence(campaign) == _outcome_sequence(reference)
        assert campaign.sampling.to_dict() == reference.sampling.to_dict()

    def test_torn_final_round_is_discarded_and_reruns(self, tmp_path, monkeypatch):
        journal = self._interrupted(tmp_path, monkeypatch, rounds=2)
        journal.write_bytes(journal.read_bytes()[:-30])

        campaign, resumed = self._resume(journal)
        assert resumed["replayed"] == 1
        assert resumed["discarded_partial"] is True
        self._assert_matches_clean_run(campaign)
        for line in journal.read_text().splitlines():
            json.loads(line)

    def test_corrupt_mid_file_round_replays_only_the_prefix(self, tmp_path, monkeypatch):
        journal = self._interrupted(tmp_path, monkeypatch, rounds=3)
        lines = journal.read_text().splitlines()
        assert [json.loads(line)["type"] for line in lines] == ["header"] + ["round"] * 3
        record = json.loads(lines[2])  # round 1
        record["crc32"] = (record["crc32"] + 1) & 0xFFFFFFFF
        lines[2] = json.dumps(record, separators=(",", ":"))
        journal.write_text("\n".join(lines) + "\n")

        campaign, resumed = self._resume(journal)
        assert resumed["replayed"] == 1
        assert resumed["discarded_partial"] is True
        self._assert_matches_clean_run(campaign)

    def test_changed_stratification_refused(self, tmp_path, monkeypatch):
        journal = self._interrupted(tmp_path, monkeypatch, rounds=1)
        before = journal.read_bytes()
        # Same fingerprint, but a tape now snaps the cycle strata to its
        # frame boundaries instead of equal-width buckets.
        with pytest.raises(JournalError, match="different stratification"):
            self._resume(journal, spec=_TapedToySpec())
        assert journal.read_bytes() == before

    def test_start_event_reports_resolved_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        _, seen = _observed(_stratified_config(workers=None))
        start = _only(seen, "campaign_start")
        assert start["mode"] == "stratified"
        assert start["workers"] == 1

    def test_mixed_mode_resume_rejected_both_ways(self, tmp_path):
        golden, cycles = _toy()
        uniform_journal = tmp_path / "uniform.jsonl"
        uniform_config = CampaignConfig(
            n_injections=8, kind=RegKind.GPR, seed=9, workers=1
        )
        run_campaign(
            toy_workload, golden, cycles, uniform_config, journal_path=uniform_journal
        )
        with pytest.raises(JournalError, match="sampling='uniform'"):
            run_campaign(
                toy_workload,
                golden,
                cycles,
                _stratified_config(),
                journal_path=uniform_journal,
                resume=True,
            )

        strat_journal = tmp_path / "strat.jsonl"
        run_campaign(
            toy_workload,
            golden,
            cycles,
            _stratified_config(),
            journal_path=strat_journal,
        )
        with pytest.raises(JournalError, match="sampling='stratified'"):
            run_campaign(
                toy_workload,
                golden,
                cycles,
                uniform_config,
                journal_path=strat_journal,
                resume=True,
            )

    def test_telemetry_counters_surface(self, fresh_tracer):
        golden, cycles = _toy()
        campaign = run_campaign(toy_workload, golden, cycles, _stratified_config())
        counters = dict(fresh_tracer.registry.snapshot()["counters"])
        summary = campaign.sampling
        assert counters["campaign.sampling.rounds"] == summary.rounds
        assert counters["campaign.sampling.cells_converged"] == summary.cells_converged
        assert counters.get("campaign.sampling.draws_saved", 0) == summary.draws_saved()

    def test_invalid_configs_raise(self):
        golden, cycles = _toy()
        for bad in (
            dict(sampling="bogus"),
            dict(ci_width=0.0),
            dict(ci_width=1.5),
            dict(round_size=0),
            dict(max_injections=0),
        ):
            config = _stratified_config(**bad)
            with pytest.raises(ValueError):
                run_campaign(toy_workload, golden, cycles, config)

    def test_stratified_rates_pass_uniform_diff_gate(self):
        """A stratified campaign diffs cleanly against a uniform one.

        This is the library half of the ``repro report diff`` exit-0
        acceptance gate: reweighted stratified rates on the toy workload
        stay within the two-proportion z-test of a 400-injection uniform
        reference.  Both campaigns are seed-pinned, so this is a
        deterministic check, not a flaky statistical one.
        """
        from repro.forensics.report import diff_records
        from repro.forensics.store import build_record

        golden, cycles = _toy()
        uniform = run_campaign(
            toy_workload,
            golden,
            cycles,
            CampaignConfig(
                n_injections=400,
                kind=RegKind.GPR,
                seed=11,
                workers=1,
                keep_sdc_outputs=False,
            ),
        )
        stratified = run_campaign(
            toy_workload,
            golden,
            cycles,
            _stratified_config(seed=12, ci_width=0.2, keep_sdc_outputs=False),
        )
        diff = diff_records(build_record(uniform), build_record(stratified))
        outcome_rows = [r for r in diff["rows"] if r["metric"].startswith("outcome:")]
        assert outcome_rows, "diff must always compare outcome rates"
        flagged = [r["metric"] for r in outcome_rows if r["flagged"]]
        assert not flagged, f"stratified rates diverged from uniform: {flagged}"

    def test_store_round_trips_sampling_block(self, tmp_path):
        from repro.forensics.store import CampaignStore, build_record

        golden, cycles = _toy()
        campaign = run_campaign(
            toy_workload, golden, cycles, _stratified_config(keep_sdc_outputs=False)
        )
        store = CampaignStore(tmp_path / "store")
        cid = store.put(build_record(campaign))
        record = store.get(cid)
        assert record["sampling"]["mode"] == "stratified"
        assert record["sampling"]["draws"] == campaign.sampling.total_draws
