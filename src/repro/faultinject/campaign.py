"""Statistical error-injection campaigns (paper Section V-A).

A campaign runs ``n`` single-bit injections at uniformly random error
sites (cycle, register, bit) of one register kind, collecting:

* outcome counts and rates (Fig. 10 / Fig. 11),
* running rates after every injection — the convergence trend whose
  knee tells how many injections suffice (Fig. 9a),
* the per-register and per-bit injection histograms that demonstrate
  error-site coverage (Fig. 9b),
* the corrupted outputs of SDC runs, for quality analysis (Fig. 12).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro import telemetry
from repro.faultinject.injector import InjectionPlan, random_plan
from repro.faultinject.journal import open_journal
from repro.faultinject.monitor import InjectionResult, Workload
from repro.faultinject.outcomes import OutcomeCounts, RunningRates
from repro.faultinject.parallel import (
    RetryPolicy,
    WorkloadSpec,
    execute_plans_parallel,
    fast_forward_for,
    group_plan_indices,
    index_groups,
    resolve_workers,
)
from repro.faultinject.registers import NUM_REGISTERS, REGISTER_BITS, LivenessModel, RegKind
from repro.faultinject.watchdog import WatchdogPolicy
from repro.observe import events as observe_events

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.faultinject.sampling import StratifiedSummary


@dataclass
class CampaignConfig:
    """Parameters of one injection campaign."""

    n_injections: int
    kind: RegKind
    seed: int = 0
    hang_factor: float = 6.0
    site_filter: str | None = None
    keep_sdc_outputs: bool = True
    liveness: LivenessModel = field(default_factory=LivenessModel)
    #: Worker processes to shard the campaign across.  ``None`` defers
    #: to the ``REPRO_WORKERS`` environment variable (default 1 = in
    #: process).  Values above 1 take effect only when the caller
    #: supplies a picklable workload spec (see ``run_campaign``).
    workers: int | None = None
    #: Wall-clock watchdog deadlines (see
    #: :mod:`repro.faultinject.watchdog`).  ``None`` disables both the
    #: per-injection soft deadline and the per-chunk hard deadline;
    #: the simulated cycle-budget watchdog (``hang_factor``) is always
    #: active either way.
    watchdog: WatchdogPolicy | None = None
    #: Chunk retry/backoff/degradation behaviour for worker failures
    #: (see :class:`repro.faultinject.parallel.RetryPolicy`).  Never
    #: affects results, only whether and how a campaign survives them.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Enable stage-boundary divergence probes (see
    #: :mod:`repro.forensics`): every injection additionally records the
    #: first pipeline stage whose output diverged from the golden run,
    #: the last stage reached, and a per-stage diverged bitmap.  Probes
    #: only observe — outcomes, counts, histograms and SDC payloads are
    #: bit-identical to an unprobed campaign at any worker count.
    probe: bool = False
    #: Sampling strategy (see :mod:`repro.faultinject.sampling`).
    #: ``"uniform"`` (the default) draws ``n_injections`` plans exactly
    #: as every previous release did — byte-identical for the same seed,
    #: an invariant pinned by tests.  ``"stratified"`` ignores
    #: ``n_injections`` and instead samples (register-class x bit-octet
    #: x resume-boundary) cells in rounds, stopping each cell once its
    #: widest Wilson CI drops below ``ci_width``; results carry both raw
    #: and Horvitz-Thompson reweighted rates.  Part of the journal
    #: config fingerprint, so mixed-mode resume is rejected.
    sampling: str = "uniform"
    #: Stratified mode: per-cell convergence target — a cell stops once
    #: the widest Wilson 95% CI over its outcome rates is at most this.
    ci_width: float = 0.02
    #: Stratified mode: injections drawn per still-unresolved cell per
    #: round (the journal checkpoints once per round).
    round_size: int = 8
    #: Stratified mode: hard campaign-wide draw budget; ``None`` keeps
    #: sampling until every cell converges.  A cell that cannot reach
    #: ``ci_width`` within the budget is reported unconverged.
    max_injections: int | None = None
    #: Stratified mode: the cell grid as (register classes, bit octets,
    #: max cycle strata).  Register classes and bit octets must divide
    #: 32 and 64; cycle strata snap to the golden run's frame boundaries
    #: when a snapshot tape exists.
    strata: tuple[int, int, int] = (4, 8, 8)
    #: Heartbeat cadence in seconds; ``None`` defers to the
    #: ``REPRO_HEARTBEAT_INTERVAL`` environment variable (default 2.0).
    #: Pure presentation — never part of the journal fingerprint.
    heartbeat_interval: float | None = None
    #: Suppress heartbeat lines on stderr.  The heartbeat is only a
    #: subscriber, so a quiet campaign's events still reach ``--status``
    #: and the telemetry counters unchanged.
    quiet: bool = False


@dataclass
class CampaignResult:
    """Everything a campaign produced."""

    config: CampaignConfig
    counts: OutcomeCounts
    running: RunningRates
    results: list[InjectionResult]
    register_histogram: np.ndarray  # (NUM_REGISTERS,) injections per register
    bit_histogram: np.ndarray  # (REGISTER_BITS,) injections per bit
    #: Fired-and-in-study counts, tallied incrementally during the run
    #: so the full ``results`` list never has to be re-walked (and could
    #: in principle be dropped for huge campaigns).
    fired: OutcomeCounts | None = None
    #: Stratified-sampling summary (per-cell statistics, raw vs
    #: Horvitz-Thompson reweighted rates, draws saved) when the campaign
    #: ran with ``sampling="stratified"``; None for uniform campaigns.
    sampling: "StratifiedSummary | None" = None

    @property
    def sdc_results(self) -> list[InjectionResult]:
        """The SDC runs (with corrupted outputs when kept)."""
        return [r for r in self.results if r.is_sdc]

    def rates(self) -> dict[str, float]:
        """Outcome rates keyed by name."""
        return self.counts.rates()

    def fired_counts(self) -> OutcomeCounts:
        """Outcome counts restricted to runs whose flip actually fired.

        Site-filtered campaigns (the hot-function study) only count the
        experiments that injected into the functions of interest, as the
        paper's AFI configuration does (Section V-C).
        """
        if self.fired is not None:
            return self.fired
        counts = OutcomeCounts()
        for result in self.results:
            if result.record.fired and result.record.in_study:
                counts.add(result.outcome, result.crash_kind)
        return counts


def draw_plans(config: CampaignConfig, golden_cycles: int) -> list[InjectionPlan]:
    """Draw the campaign's full plan sequence from its seed.

    Serial and parallel execution share this single, ordered draw, which
    is what makes their results bit-identical.
    """
    plan_rng = np.random.default_rng(config.seed)
    return [
        random_plan(plan_rng, golden_cycles, config.kind)
        for _ in range(config.n_injections)
    ]


def assemble_campaign(
    config: CampaignConfig, results: list[InjectionResult]
) -> CampaignResult:
    """Fold ordered per-run results into campaign statistics."""
    counts = OutcomeCounts()
    fired = OutcomeCounts()
    running = RunningRates()
    register_histogram = np.zeros(NUM_REGISTERS, dtype=np.int64)
    bit_histogram = np.zeros(REGISTER_BITS, dtype=np.int64)
    for result in results:
        counts.add(result.outcome, result.crash_kind)
        running.record(counts)
        if result.record.fired and result.record.in_study:
            fired.add(result.outcome, result.crash_kind)
        register_histogram[result.plan.register] += 1
        bit_histogram[result.plan.bit] += 1
        if not config.keep_sdc_outputs:
            # Drop any corrupted-output payload eagerly; nothing
            # downstream may rely on it when retention is off.
            result.output = None
    return CampaignResult(
        config=config,
        counts=counts,
        running=running,
        results=results,
        register_histogram=register_histogram,
        bit_histogram=bit_histogram,
        fired=fired,
    )


@contextlib.contextmanager
def campaign_subscribers(config: CampaignConfig) -> Iterator[None]:
    """Subscribe the heartbeat and the counter table while tracing is on.

    Every campaign runs inside this.  A bus is installed only if
    none is, and the previous one is restored on exit; an observed
    campaign's status writer and flight recorder thus share one bus,
    and one stream of events, with the telemetry counters and stderr.
    """
    tracer = telemetry.get_tracer()
    if tracer is None:
        yield
        return
    previous = observe_events.current()
    bus = previous if previous is not None else observe_events.install()
    subscribers = (
        telemetry.Heartbeat(
            interval_s=telemetry.resolve_heartbeat_interval(config.heartbeat_interval),
            quiet=config.quiet,
        ),
        tracer.registry.count_event,
    )
    for subscriber in subscribers:
        bus.subscribe(subscriber)
    try:
        yield
    finally:
        for subscriber in subscribers:
            bus.unsubscribe(subscriber)
        observe_events.restore(previous)


def _dispatch(
    plans: list[InjectionPlan], fast_forward, requested_workers: int | None
) -> tuple[list[list[int]], int]:
    """Group one round's plans for dispatch and clamp the pool to the groups.

    With a tape, plans are grouped by resume boundary so each group lands
    whole on one worker; without one, into contiguous index chunks.  More
    workers than groups only buys idle startup cost.
    """
    if fast_forward is None:
        workers = resolve_workers(requested_workers, max_useful=len(plans))
        return index_groups(len(plans), workers), workers
    with telemetry.span("campaign.group_plans"):
        groups = group_plan_indices(fast_forward.boundary_index_for, plans)
    workers = resolve_workers(
        requested_workers, max_useful=min(len(plans), max(1, len(groups)))
    )
    return groups, workers


def run_campaign(
    workload: Workload,
    golden_output: np.ndarray,
    golden_cycles: int,
    config: CampaignConfig,
    spec: WorkloadSpec | None = None,
    journal_path: Path | None = None,
    resume: bool = False,
) -> CampaignResult:
    """Run a full statistical injection campaign.

    Fully deterministic given ``config.seed``: plans are drawn from a
    seeded generator and each run's injector RNG is derived from it.

    A campaign is a loop of rounds, and each round is one
    :func:`execute_plans_parallel` call.  A uniform campaign is a single
    round of :func:`draw_plans`.  ``config.sampling="stratified"`` draws
    its rounds from the adaptive planner (see
    :mod:`repro.faultinject.sampling`): draws are stratified over
    (register-class x bit-octet x resume-boundary) cells, and rounds go on
    until every cell's Wilson-CI width converges or the draw budget is
    spent.  The default uniform mode draws plans byte-identically to
    previous releases.

    With a snapshot tape (``spec`` is a picklable recipe offering one,
    see :mod:`repro.faultinject.parallel`) a round's plans are grouped by
    resume boundary; without one, into contiguous index chunks.  When the
    resolved worker count exceeds 1 the groups are sharded across a
    process pool and reassembled in order — the result is bit-identical
    at any worker count.  Worker deaths and stalled chunks retry under
    ``config.retry`` and degrade toward in-process execution rather
    than aborting (see ``docs/resilience.md``).  ``spec=None`` runs
    every injection in full: the test oracle.

    ``journal_path`` makes the campaign **crash-safe**: a uniform
    campaign durably appends (fsync's) every completed chunk to a JSONL
    checkpoint journal, a stratified one every completed round, since
    round ``k+1``'s draws depend on round ``k``.  ``resume=True`` replays
    the journal — after :func:`~repro.faultinject.journal.open_journal`
    has checked that it was written by this campaign on this workload —
    and executes only the remainder, producing a result bit-identical to
    an uninterrupted run.  A torn trailing record from a mid-write crash
    is detected and discarded; that chunk or round simply re-runs.

    Campaign facts go out as events on the observe bus.  With telemetry
    enabled (see :mod:`repro.telemetry`) the campaign additionally
    records phase spans, counters kept from those events and a
    progress heartbeat on stderr — none of which feed back into the
    campaign, so traced and untraced runs produce identical results.
    """
    # Lazy import: sampling imports repro.analysis, whose experiments
    # import this module.
    from repro.faultinject.sampling import (
        SAMPLING_MODES,
        _StratifiedState,
        build_stratification,
    )

    if config.sampling not in SAMPLING_MODES:
        raise ValueError(f"sampling must be one of {SAMPLING_MODES}, got {config.sampling!r}")
    with campaign_subscribers(config):
        fast_forward = fast_forward_for(spec)
        planner: _StratifiedState | None = None
        if config.sampling == "stratified":
            planner = _StratifiedState(
                build_stratification(config, golden_cycles, fast_forward), config
            )
            # Rounds clamp the pool to their own groups; the start event
            # reports the resolved request.
            workers = resolve_workers(config.workers)
            layout = {"stratification": planner.stratification.to_dict()}
            start = {"cells": len(planner.cells), "ci_width": config.ci_width}
            banner = (
                f"stratified sampling on: {len(planner.cells)} cells, "
                f"ci-width target {config.ci_width:g}"
            )
        else:
            with telemetry.span("campaign.draw_plans"):
                plans = draw_plans(config, golden_cycles)
            groups, workers = _dispatch(plans, fast_forward, config.workers)
            layout = {"groups": groups}
            start = {"groups": len(groups)}
            banner = (
                f"boundary fan-out on ({len(groups)} groups)"
                if fast_forward is not None
                else None
            )
        observe_events.emit(
            "campaign_start",
            mode=config.sampling,
            kind=config.kind.value,
            total=len(plans) if planner is None else None,
            workers=workers,
            seed=config.seed,
            journaled=journal_path is not None,
            resume=resume,
            **start,
        )
        if config.probe:
            observe_events.emit("note", note="divergence probes on")
        if banner is not None:
            observe_events.emit("note", note=banner)

        journal = None
        replay: dict[int, list[InjectionResult]] = {}
        results: list[InjectionResult] = []
        if journal_path is not None:
            journal, state = open_journal(
                journal_path, config, golden_output, golden_cycles, resume=resume, **layout
            )
            replay = state.chunks
            if planner is None:
                groups = state.groups
            else:
                for round_results in replay.values():
                    results.extend(round_results)
                    planner.absorb_round(round_results)
            if resume:
                observe_events.emit(
                    "journal_resume",
                    replayed=len(replay),
                    units=len(groups) if planner is None else None,
                    injections=sum(len(unit) for unit in replay.values()),
                    discarded_partial=state.discarded_partial,
                )

        with telemetry.span("campaign.execute"), (
            journal if journal is not None else contextlib.nullcontext()
        ):
            while True:
                if planner is not None:
                    with telemetry.span("campaign.draw_plans"):
                        plans = planner.plan_round()
                    if not plans:
                        break
                    groups, workers = _dispatch(plans, fast_forward, config.workers)
                round_results = execute_plans_parallel(
                    spec,
                    config,
                    plans,
                    workers,
                    local_state=(workload, golden_output, golden_cycles),
                    groups=groups,
                    # A uniform round resumes chunk by chunk; a stratified
                    # one checkpoints whole, once it has run.
                    completed=replay if planner is None else None,
                    journal=journal if planner is None else None,
                    index_base=len(results),
                )
                results.extend(round_results)
                if planner is None:
                    break
                if journal is not None:
                    # May raise CampaignInterrupted (the abort-after hook).
                    journal.append_round(planner.rounds_done, round_results)
                planner.absorb_round(round_results)

        with telemetry.span("campaign.assemble"):
            campaign = assemble_campaign(config, results)
        finish = {}
        if planner is not None:
            campaign.sampling = planner.summary()
            finish = {
                "rounds": campaign.sampling.rounds,
                "cells_converged": campaign.sampling.cells_converged,
                "draws_saved": campaign.sampling.draws_saved(),
            }
        observe_events.emit(
            "campaign_finish",
            total=campaign.counts.total,
            outcomes={
                "mask": campaign.counts.masked,
                "sdc": campaign.counts.sdc,
                "crash": campaign.counts.crash,
                "hang": campaign.counts.hang,
            },
            **finish,
        )
        return campaign
