"""Golden (error-free) run management.

Fault-injection campaigns need, per (algorithm, input): the golden output
image (the SDC reference), the golden cycle count (to draw uniformly
random injection cycles and to set the hang watchdog), and the execution
profile.  Golden runs are cached in-process because campaigns reuse them
across hundreds of injected runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.runtime.context import CostProfile, ExecutionContext
from repro.summarize.config import VSConfig
from repro.summarize.pipeline import VSResult, run_vs
from repro.video.frames import FrameStream


@dataclass
class GoldenRun:
    """The error-free reference execution of one (algorithm, input)."""

    config: VSConfig
    stream_name: str
    result: VSResult
    output: np.ndarray  # the golden output image
    total_cycles: int
    profile: CostProfile


@dataclass
class GoldenCacheStats:
    """Counters for golden-run cache effectiveness (tests assert on
    ``computes`` to prove figure entry points share golden runs)."""

    computes: int = 0
    hits: int = 0


_CACHE: dict[tuple, GoldenRun] = {}
_STATS = GoldenCacheStats()

#: Per-process FastForward handles, keyed like the golden runs their
#: tapes are captured against (both share a lifetime: anything that
#: invalidates the golden run invalidates every snapshot).  ``None``
#: marks a workload whose shape the recorder cannot snapshot (it
#: degrades to full executions).  Cached so the boundary fan-out state
#: hanging off a handle (shared per-boundary restores, materialized once
#: per worker) survives across campaigns in the same process.
_FF_HANDLES: dict[tuple, object] = {}


def _cache_key(stream: FrameStream, config: VSConfig) -> tuple:
    """Cache key: the full ``(input, algorithm, scale)`` identity.

    The stream's length and frame shape are part of the key because the
    same named input exists at several experiment scales — keying on the
    name alone would silently serve a golden run from the wrong scale.
    """
    shape = stream.frame_shape if len(stream) else (0, 0)
    return (stream.name, len(stream), shape, config.name, hash(config))


def golden_run(stream: FrameStream, config: VSConfig, use_cache: bool = True) -> GoldenRun:
    """Run (or fetch) the golden execution for ``(config, stream)``."""
    key = _cache_key(stream, config)
    if use_cache and key in _CACHE:
        _STATS.hits += 1
        telemetry.counter_inc("golden.cache_hit")
        return _CACHE[key]

    _STATS.computes += 1
    telemetry.counter_inc("golden.cache_compute")
    profile = CostProfile()
    ctx = ExecutionContext(profile=profile)
    with telemetry.span("summarize.golden", ctx=ctx):
        result = run_vs(stream, config, ctx)
    run = GoldenRun(
        config=config,
        stream_name=stream.name,
        result=result,
        output=result.panorama.copy(),
        total_cycles=ctx.cycles,
        profile=profile,
    )
    if use_cache:
        _CACHE[key] = run
    return run


def golden_stage_signature(stream: FrameStream, config: VSConfig) -> dict[str, tuple[int, ...]]:
    """Per-stage golden checksum sequences for ``(config, stream)``.

    Re-runs the (deterministic) golden execution once under a stage
    probe — see :mod:`repro.forensics.probes` — and returns each
    pipeline stage's checksum sequence.  This is the reference that
    per-injection divergence records are computed against; campaign
    workloads capture it through
    :meth:`repro.faultinject.monitor.FaultMonitor.golden_signature`,
    which memoizes per workload, so the probed re-run happens once per
    process, not once per injection.
    """
    from repro.forensics import probes

    probe = probes.StageProbe()
    ctx = ExecutionContext()
    with probes.capturing(probe), telemetry.span("summarize.golden_probe", ctx=ctx):
        run_vs(stream, config, ctx)
    return probe.signature()


def golden_fast_forward(stream: FrameStream, config: VSConfig):
    """The fast-forward handle for ``(config, stream)``, or ``None``.

    Captures the snapshot tape once per process per workload — one
    instrumented golden-run's worth of work — and caches the
    :class:`~repro.faultinject.fastforward.FastForward` handle over it
    next to the golden run itself.  ``None`` (also cached) when the
    workload cannot be snapshotted.
    """
    from repro.faultinject.fastforward import (
        FastForward,
        SnapshotUnsupported,
        capture_tape,
    )

    key = _cache_key(stream, config)
    if key in _FF_HANDLES:
        telemetry.counter_inc("golden.tape_hit")
        return _FF_HANDLES[key]
    telemetry.counter_inc("golden.tape_capture")
    golden = golden_run(stream, config)
    try:
        tape = capture_tape(stream, config, golden.output, golden.total_cycles)
    except SnapshotUnsupported:
        handle = None
    else:
        handle = FastForward(tape, stream, config)
    _FF_HANDLES[key] = handle
    return handle


def golden_cache_stats() -> GoldenCacheStats:
    """The process-wide cache counters (reset by ``clear_golden_cache``)."""
    return _STATS


def clear_golden_cache() -> None:
    """Drop all cached golden runs and reset the counters (test isolation).

    Also drops the cached fast-forward handles and the forensics layer's
    cached golden stage signatures (keyed by workload identity, so
    resetting golden runs invalidates the workloads they were captured
    from).
    """
    from repro.forensics import probes

    _CACHE.clear()
    _FF_HANDLES.clear()
    _STATS.computes = 0
    _STATS.hits = 0
    probes.clear_golden_signatures()
