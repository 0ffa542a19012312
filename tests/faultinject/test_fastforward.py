"""Golden-prefix fast-forward equivalence suite.

The contract under test (see ``src/repro/faultinject/fastforward.py``):
a fast-forwarded campaign is **bit-identical** to the full-execution
oracle (the same campaign with ``spec=None``, which has no snapshot
tape) — same outcome sequence, crash/hang kinds, cycle counts, SDC
payloads and divergence records — at any worker count, with probes on,
and across a journal interrupt/resume.  Plus the snapshot-restore property: restoring
any frame boundary under a never-firing injector reproduces the golden
run exactly.
"""

from __future__ import annotations

import os
from unittest import mock

import numpy as np
import pytest

from repro.analysis.experiments import TINY, input_stream, vs_workload
from repro.faultinject.campaign import CampaignConfig, run_campaign
from repro.faultinject.injector import FaultInjector, InjectionPlan
from repro.faultinject.journal import (
    ABORT_AFTER_ENV,
    CampaignInterrupted,
    serialize_result,
)
from repro.faultinject.monitor import FaultMonitor
from repro.faultinject.outcomes import HangKind, Outcome
from repro.faultinject.parallel import VSWorkloadSpec
from repro.faultinject.registers import RegKind
from repro.runtime.context import ExecutionContext
from repro.summarize.approximations import config_for
from repro.summarize.golden import golden_fast_forward, golden_run
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


class TestCampaignEquivalence:
    def test_serial_all_outcome_classes(self, vs):
        stream, config, golden, workload, spec = vs
        full = run_campaign(workload, golden.output, golden.total_cycles, _config())
        fast = run_campaign(
            workload, golden.output, golden.total_cycles, _config(), spec=spec
        )
        outcomes = {r.outcome for r in full.results}
        assert {Outcome.MASKED, Outcome.SDC, Outcome.CRASH} <= outcomes
        _assert_identical(full, fast)

    def test_parallel_matches_full_serial(self, vs):
        stream, config, golden, workload, spec = vs
        full_serial = run_campaign(
            workload,
            golden.output,
            golden.total_cycles,
            _config(n_injections=12, seed=10),
        )
        fast_parallel = run_campaign(
            workload,
            golden.output,
            golden.total_cycles,
            _config(n_injections=12, seed=10, workers=3),
            spec=spec,
        )
        _assert_identical(full_serial, fast_parallel)

    def test_probed_divergence_records_identical(self, vs):
        stream, config, golden, workload, spec = vs
        full = run_campaign(
            workload,
            golden.output,
            golden.total_cycles,
            _config(n_injections=10, probe=True),
        )
        fast = run_campaign(
            workload,
            golden.output,
            golden.total_cycles,
            _config(n_injections=10, probe=True),
            spec=spec,
        )
        assert any(
            r.divergence is not None and r.divergence.first_divergence
            for r in full.results
        )
        _assert_identical(full, fast)


class TestHangEquivalence:
    """A directed control-register flip that produces a genuine HANG.

    Natural uniform draws on the tiny workload never hang (RANSAC
    converges before its budget), so the plan is aimed at a live
    ``vision.ransac.hypotheses`` checkpoint: flipping bit 63 of
    ``ransac_iter`` drives the iteration counter hugely negative and the
    hypothesis loop burns simulated cycles until the watchdog trips.
    """

    class _CheckpointLog:
        observing = True

        def __init__(self) -> None:
            self.events: list[tuple[str, int]] = []

        def visit(self, ctx, window) -> None:
            self.events.append((window.site, ctx.cycles))

    def _hang_plan(self, workload, fast_forward) -> InjectionPlan:
        log = self._CheckpointLog()
        workload(ExecutionContext(injector=log))
        hypothesis_cycles = [
            cycle for site, cycle in log.events if site == "vision.ransac.hypotheses"
        ]
        assert hypothesis_cycles, "tiny workload must reach RANSAC"
        target = hypothesis_cycles[len(hypothesis_cycles) // 2]
        # The slot ransac_iter occupies is decided by the register file's
        # first-bind round-robin; read it off the captured tape rather
        # than hard-coding an allocation-order-dependent number.
        assigned = fast_forward.tape.boundaries[-1].regfile[0]
        register = assigned[(RegKind.GPR, "vision.ransac.hypotheses", "ransac_iter")]
        return InjectionPlan(
            target_cycle=target, kind=RegKind.GPR, register=register, bit=63
        )

    def test_hang_outcome_identical(self, vs):
        stream, config, golden, workload, spec = vs
        fast_forward = golden_fast_forward(stream, config)
        assert fast_forward is not None
        plan = self._hang_plan(workload, fast_forward)
        assert fast_forward.boundary_for(plan.target_cycle) is not None

        full = FaultMonitor(workload, golden.output, golden.total_cycles)
        fast = FaultMonitor(
            workload, golden.output, golden.total_cycles, fast_forward=fast_forward
        )
        full_result = full.run_injected(plan, np.random.default_rng(123))
        fast_result = fast.run_injected(plan, np.random.default_rng(123))
        assert full_result.outcome is Outcome.HANG
        assert full_result.hang_kind is HangKind.SIMULATED
        assert serialize_result(full_result) == serialize_result(fast_result)


class TestJournalInterplay:
    def test_interrupt_then_resume_matches_full(self, vs, tmp_path):
        stream, config, golden, workload, spec = vs
        reference = run_campaign(workload, golden.output, golden.total_cycles, _config())
        journal = tmp_path / "ff.jsonl"
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


class TestSnapshotRestore:
    def test_every_boundary_reproduces_golden_run(self, vs):
        """Restoring any boundary under a never-firing injector must
        complete the run with the golden output and the golden cycle
        count — the snapshot captured the frame-boundary state exactly.
        """
        stream, config, golden, workload, spec = vs
        fast_forward = golden_fast_forward(stream, config)
        assert fast_forward is not None
        tape = fast_forward.tape
        assert len(tape.boundaries) >= 2

        never = tape.golden_cycles * 10
        for snapshot in tape.boundaries[1:]:
            plan = InjectionPlan(
                target_cycle=never, kind=RegKind.GPR, register=0, bit=0
            )
            injector = FaultInjector(plan, rng=np.random.default_rng(0))
            ctx = ExecutionContext(
                injector=injector, watchdog_cycles=tape.golden_cycles * 6
            )
            output = fast_forward.resume(ctx, snapshot)
            assert not injector.record.fired
            assert ctx.cycles == tape.golden_cycles
            assert np.array_equal(output, golden.output)

    def test_boundary_lookup_is_strictly_before(self, vs):
        stream, config, golden, workload, spec = vs
        fast_forward = golden_fast_forward(stream, config)
        cycles = fast_forward.tape.boundary_cycles
        assert fast_forward.boundary_for(0) is None
        assert fast_forward.boundary_for(cycles[1]) is None
        assert fast_forward.boundary_for(cycles[1] + 1).cycles == cycles[1]
        # A target exactly on a boundary resolves to the previous one.
        last = fast_forward.boundary_for(cycles[-1])
        assert last is not None and last.cycles == cycles[-2]


class TestTelemetryCounters:
    def test_fastforward_counters_surface(self, vs, fresh_tracer):
        stream, config, golden, workload, spec = vs
        run_campaign(
            workload,
            golden.output,
            golden.total_cycles,
            _config(n_injections=8),
            spec=spec,
        )
        registry = fresh_tracer.registry
        hits = registry.counter("campaign.fastforward.hits")
        full_runs = registry.counter("campaign.fastforward.full_runs")
        assert hits + full_runs == 8
        assert hits >= 1
        assert registry.counter("campaign.fastforward.skipped_cycles") > 0
