"""Boundary fan-out suite: grouped dispatch, shared restores, golden tails.

The contract under test (see ``src/repro/faultinject/fastforward.py``
and ISSUE 6): a boundary-batched campaign — plans grouped by the frame
boundary they resume from, one materialized restore per group per
worker, per-run state cloned copy-on-write, golden tails synthesized
for re-converged runs — is **bit-identical** to the full-execution
oracle (the same campaign with ``spec=None``) at any worker count, with
probes on, and across a journal interrupt/resume.  Plus the scheduler pieces: group partitioning edge
cases, chunk-bound edge cases, worker clamping to the group count, and
the per-boundary amortization section of ``repro trace summarize``.
"""

from __future__ import annotations

import os
from unittest import mock

import numpy as np
import pytest

from repro.analysis.experiments import TINY, input_stream, vs_workload
from repro.faultinject.campaign import CampaignConfig, run_campaign
from repro.faultinject.injector import InjectionPlan
from repro.faultinject.journal import (
    ABORT_AFTER_ENV,
    CampaignInterrupted,
    load_journal,
    serialize_result,
)
from repro.faultinject.monitor import FaultMonitor
from repro.faultinject.parallel import (
    VSWorkloadSpec,
    compute_chunk_bounds,
    fast_forward_for,
    group_plan_indices,
    resolve_workers,
)
from repro.faultinject.registers import RegKind
from repro.summarize.approximations import config_for
from repro.summarize.golden import clear_golden_cache, golden_fast_forward, golden_run
from repro.telemetry.export import render_summary, summarize_trace, write_trace
from tests.faultinject.test_parallel import _campaigns_equal


@pytest.fixture(scope="module")
def vs():
    """Shared tiny VS workload: (stream, config, golden, workload, spec)."""
    stream = input_stream("input1", TINY)
    config = config_for("VS")
    golden = golden_run(stream, config)
    spec = VSWorkloadSpec.for_stream(stream, config)
    assert spec is not None
    return stream, config, golden, vs_workload(stream, config), spec


def _config(**overrides) -> CampaignConfig:
    defaults = dict(n_injections=16, kind=RegKind.GPR, seed=8)
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def _assert_identical(first, second) -> None:
    """Bit-exact equality, down to serialized records (incl. divergence)."""
    _campaigns_equal(first, second)
    for a, b in zip(first.results, second.results):
        assert serialize_result(a) == serialize_result(b)


def _plan(cycle: int) -> InjectionPlan:
    return InjectionPlan(target_cycle=cycle, kind=RegKind.GPR, register=0, bit=0)


class TestGroupPartition:
    """group_plan_indices edge cases against a stub boundary lookup."""

    @staticmethod
    def _lookup(cycle: int) -> int | None:
        # Boundaries at cycles 100/200/300 (indices 1/2/3); targets at
        # or below 100 have no eligible boundary.
        if cycle <= 100:
            return None
        return min(cycle // 100, 3)

    def test_zero_plans(self):
        assert group_plan_indices(self._lookup, []) == []

    def test_all_plans_share_one_boundary(self):
        plans = [_plan(150), _plan(199), _plan(101)]
        assert group_plan_indices(self._lookup, plans) == [[0, 1, 2]]

    def test_no_eligible_boundary_shares_fallback_group(self):
        plans = [_plan(5), _plan(100), _plan(1)]
        assert group_plan_indices(self._lookup, plans) == [[0, 1, 2]]

    def test_groups_ordered_by_first_member_and_cover_all_plans(self):
        plans = [_plan(250), _plan(50), _plan(110), _plan(299), _plan(320)]
        groups = group_plan_indices(self._lookup, plans)
        assert groups == [[0, 3], [1], [2], [4]]
        covered = sorted(index for group in groups for index in group)
        assert covered == list(range(len(plans)))

    def test_real_tape_lookup_honours_strictly_before(self, vs):
        stream, config, golden, workload, spec = vs
        fast_forward = golden_fast_forward(stream, config)
        assert fast_forward is not None
        cycles = fast_forward.tape.boundary_cycles
        # At or before the first skippable boundary: no eligible group.
        plans = [_plan(1), _plan(cycles[1]), _plan(cycles[1] + 1)]
        groups = group_plan_indices(fast_forward.boundary_index_for, plans)
        assert groups == [[0, 1], [2]]
        assert fast_forward.boundary_index_for(plans[2].target_cycle) == 1


class TestChunkBoundEdges:
    def test_zero_plans_is_empty(self):
        assert compute_chunk_bounds(0, 4) == []

    def test_negative_plans_is_empty(self):
        assert compute_chunk_bounds(-3, 4) == []

    def test_fewer_plans_than_workers_yields_nonempty_chunks(self):
        bounds = compute_chunk_bounds(3, 8)
        assert bounds[0][0] == 0 and bounds[-1][1] == 3
        assert all(stop > start for start, stop in bounds)
        assert len(bounds) == 3

    def test_single_plan_single_chunk(self):
        assert compute_chunk_bounds(1, 8) == [(0, 1)]


class TestWorkerClamp:
    def test_workers_clamped_to_group_count(self):
        # The boundary-batched scheduler clamps max_useful to
        # min(n_plans, n_groups): more workers than groups only buys
        # idle pool startup.
        assert resolve_workers(8, max_useful=min(12, 3)) == 3

    def test_explicit_request_still_validated_before_clamp(self):
        with pytest.raises(ValueError):
            resolve_workers(0, max_useful=3)

    def test_campaign_clamps_pool_to_groups(self, vs):
        stream, config, golden, workload, spec = vs
        fast_forward = golden_fast_forward(stream, config)
        from repro.faultinject.campaign import draw_plans

        plans = draw_plans(_config(n_injections=12, seed=10), golden.total_cycles)
        groups = group_plan_indices(fast_forward.boundary_index_for, plans)
        clamped = resolve_workers(64, max_useful=min(len(plans), max(1, len(groups))))
        assert clamped == len(groups) <= len(plans)


class TestBatchedEquivalence:
    def test_serial_batched_matches_unbatched(self, vs):
        stream, config, golden, workload, spec = vs
        full = run_campaign(workload, golden.output, golden.total_cycles, _config())
        batched = run_campaign(
            workload, golden.output, golden.total_cycles, _config(), spec=spec
        )
        _assert_identical(full, batched)

    def test_parallel_batched_matches_unbatched_serial(self, vs):
        stream, config, golden, workload, spec = vs
        full = run_campaign(
            workload,
            golden.output,
            golden.total_cycles,
            _config(n_injections=12, seed=10),
        )
        batched = run_campaign(
            workload,
            golden.output,
            golden.total_cycles,
            _config(n_injections=12, seed=10, workers=3),
            spec=spec,
        )
        _assert_identical(full, batched)

    def test_probed_divergence_records_identical(self, vs):
        stream, config, golden, workload, spec = vs
        full = run_campaign(
            workload,
            golden.output,
            golden.total_cycles,
            _config(n_injections=10, probe=True),
        )
        batched = run_campaign(
            workload,
            golden.output,
            golden.total_cycles,
            _config(n_injections=10, probe=True),
            spec=spec,
        )
        _assert_identical(full, batched)

    def test_pre_first_boundary_plan_runs_full_and_matches(self, vs):
        """A target before the first skippable boundary cannot resume —
        the batched monitor must fall back to a full run and still be
        bit-identical to a monitor with no tape."""
        stream, config, golden, workload, spec = vs
        fast_forward = golden_fast_forward(stream, config)
        plan = _plan(1)
        assert fast_forward.boundary_index_for(plan.target_cycle) is None
        batched = FaultMonitor(
            workload, golden.output, golden.total_cycles, fast_forward=fast_forward
        )
        plain = FaultMonitor(workload, golden.output, golden.total_cycles)
        a = batched.run_injected(plan, np.random.default_rng(7))
        b = plain.run_injected(plan, np.random.default_rng(7))
        assert serialize_result(a) == serialize_result(b)


class TestJournalInterplay:
    def test_interrupt_then_resume_under_batching(self, vs, tmp_path):
        stream, config, golden, workload, spec = vs
        reference = run_campaign(workload, golden.output, golden.total_cycles, _config())
        journal = tmp_path / "fanout.jsonl"
        with mock.patch.dict(os.environ, {ABORT_AFTER_ENV: "1"}):
            with pytest.raises(CampaignInterrupted):
                run_campaign(
                    workload,
                    golden.output,
                    golden.total_cycles,
                    _config(workers=3),
                    spec=spec,
                    journal_path=journal,
                )
        resumed = run_campaign(
            workload,
            golden.output,
            golden.total_cycles,
            _config(workers=3),
            spec=spec,
            journal_path=journal,
            resume=True,
        )
        _assert_identical(reference, resumed)

    def test_journal_checkpoints_at_group_granularity(self, vs, tmp_path):
        stream, config, golden, workload, spec = vs
        fast_forward = golden_fast_forward(stream, config)
        from repro.faultinject.campaign import draw_plans

        campaign_config = _config(n_injections=12, seed=10, workers=3)
        plans = draw_plans(campaign_config, golden.total_cycles)
        groups = group_plan_indices(fast_forward.boundary_index_for, plans)

        journal = tmp_path / "groups.jsonl"
        run_campaign(
            workload,
            golden.output,
            golden.total_cycles,
            campaign_config,
            spec=spec,
            journal_path=journal,
        )
        state = load_journal(journal)
        assert state.groups == groups
        assert state.stratification is None
        assert sorted(state.chunks) == list(range(len(groups)))
        for index, group in enumerate(groups):
            assert len(state.chunks[index]) == len(group)


class TestTelemetry:
    def test_one_handle_cache_captures_once(self, vs, fresh_tracer):
        spec = vs[-1]
        clear_golden_cache()
        handle = fast_forward_for(spec)
        assert handle is not None
        assert fast_forward_for(spec) is handle
        assert fresh_tracer.registry.counter("golden.tape_capture") == 1

    def test_fanout_counters_surface(self, vs, fresh_tracer):
        stream, config, golden, workload, spec = vs
        # Fresh handles: fan-out state hangs off the process-cached
        # FastForward handle, and creation-time counters only fire for
        # fan-outs materialized while tracing is on.
        clear_golden_cache()
        run_campaign(
            workload,
            golden.output,
            golden.total_cycles,
            _config(),
            spec=spec,
        )
        registry = fresh_tracer.registry
        groups = registry.counter("campaign.fanout.groups")
        assert groups >= 1
        assert registry.counter("campaign.fanout.shared_restores") == groups
        assert registry.counter("campaign.fanout.cow_clones") > 0
        # The bench seed produces masked runs, and masked fan-out
        # members re-converge to the tape — at least one golden tail
        # must have been synthesized (this is where the speedup lives).
        assert registry.counter("campaign.fanout.golden_tail") >= 1
        hits = registry.counter("campaign.fastforward.hits")
        full_runs = registry.counter("campaign.fastforward.full_runs")
        assert hits + full_runs == 16

    def test_trace_summarize_renders_amortization(self, vs, tmp_path, fresh_tracer):
        stream, config, golden, workload, spec = vs
        clear_golden_cache()
        run_campaign(
            workload,
            golden.output,
            golden.total_cycles,
            _config(),
            spec=spec,
        )
        trace_path = write_trace(tmp_path / "trace.jsonl", fresh_tracer)
        summary = summarize_trace(trace_path)
        assert any(name.startswith("fanout.suffix.b") for name in summary.stages)
        rendered = render_summary(summary)
        assert "boundary fan-out (restore amortization per group):" in rendered
        assert "restore(s) saved" in rendered
        # Per-boundary counters feed the table, not the counter dump.
        assert "campaign.fanout.b" not in rendered.split("counters:")[-1]
