"""Per-layer accounting for the traced run.

The benchmark times calls into each layer's public functions from its
own code: :func:`install` replaces those functions, wherever the
program holds a reference to them, with wrappers that charge the call's
*self* time (its duration minus the wrapped calls nested inside it) to
a named layer.  Nothing under ``src/`` changes.

Each wrapper charges two places:

* the :class:`LayerClock` of the process that installed it (the parent),
  which is what ``host.unattributed_s`` is computed from, because the
  parent's self times are disjoint slices of its own wall time; and
* the active ``repro.telemetry`` registry, as a ``perfbench.<layer>``
  timer.  Campaign pool workers are forked with the wrappers in place
  and meter every chunk into a fresh registry that the program already
  merges back into the parent, so registry totals cover every process.

Counts the program already keeps (fast-forward hits, golden tails,
skipped cycles) are read from the same registry.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

#: Layer name -> the callables charged to it, as ``(module, attribute
#: path)``.  Self time of a wrapper excludes the wrapped calls under it,
#: so e.g. ``summarize.suffix`` is the injected suffix minus its
#: vision and imaging stages.
TARGETS = {
    "video.synth": [("repro.video.synthetic", "make_input")],
    "summarize.golden": [("repro.summarize.golden", "golden_run")],
    "faultinject.tape_capture": [("repro.faultinject.fastforward", "capture_tape")],
    "faultinject.restore": [
        ("repro.faultinject.fastforward", "FastForward.resume"),
        ("repro.faultinject.fastforward", "BoundaryFanOut.resume_member"),
    ],
    "summarize.suffix": [("repro.summarize.pipeline", "run_vs_resumed")],
    "vision.fast": [("repro.vision.fast", "detect_fast_arrays")],
    "vision.orb": [("repro.vision.orb", "orb_features")],
    "vision.match": [
        ("repro.vision.matching", "match_ratio"),
        ("repro.vision.matching", "match_simple"),
    ],
    "vision.ransac": [
        ("repro.vision.ransac", "ransac_homography"),
        ("repro.vision.ransac", "ransac_affine"),
    ],
    "imaging.warp": [("repro.imaging.warp", "warp_into")],
    "faultinject.plan": [
        ("repro.faultinject.campaign", "draw_plans"),
        ("repro.faultinject.parallel", "group_plan_indices"),
        ("repro.faultinject.sampling", "build_stratification"),
        ("repro.faultinject.sampling", "_StratifiedState.plan_round"),
    ],
    "faultinject.execute": [("repro.faultinject.parallel", "execute_plans_parallel")],
    "faultinject.parallel.chunk": [("repro.faultinject.parallel", "run_injection_chunk")],
    "faultinject.journal.append": [
        ("repro.faultinject.journal", "CampaignJournal.append_chunk"),
        ("repro.faultinject.journal", "CampaignJournal.append_round"),
    ],
    "observe.status": [("repro.observe.status", "StatusWriter.write")],
    "quality.score": [("repro.quality", "compare_outputs")],
    "forensics.store.build": [("repro.forensics.store", "build_record")],
    "forensics.store.put": [("repro.forensics.store", "CampaignStore.put")],
    "forensics.store.open": [("repro.forensics.store", "CampaignStore._db")],
    "forensics.store.read": [
        ("repro.forensics.store", "CampaignStore.get"),
        ("repro.forensics.store", "CampaignStore.summaries"),
    ],
    "forensics.query": [("repro.forensics.query", "run_query")],
}

#: Layers whose inclusive time is also kept (worker busy time).
INCLUSIVE = {"faultinject.parallel.chunk"}

POOL_LAYER = "faultinject.parallel.bringup"

#: Modules imported before patching, so every ``from x import f`` alias
#: that already exists is found and replaced.
PRELOAD = (
    "repro.cli",
    "repro.faultinject.campaign",
    "repro.faultinject.parallel",
    "repro.faultinject.sampling",
    "repro.faultinject.fastforward",
    "repro.faultinject.journal",
    "repro.faultinject.monitor",
    "repro.observe.status",
    "repro.observe.session",
    "repro.forensics.store",
    "repro.forensics.query",
    "repro.quality",
    "repro.summarize.golden",
    "repro.summarize.pipeline",
    "repro.summarize.stitcher",
    "repro.video.synthetic",
)


class LayerClock:
    """Self time and call counts per layer, for one process."""

    def __init__(self) -> None:
        from repro import telemetry

        self._telemetry = telemetry
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.pools = 0
        self.pool_capacity_s = 0.0
        self.pid = os.getpid()
        self._stack: list[float] = []

    def charge(self, layer: str, own_s: float, total_s: float) -> None:
        if os.getpid() == self.pid:
            self.self_s[layer] = self.self_s.get(layer, 0.0) + own_s
            self.calls[layer] = self.calls.get(layer, 0) + 1
        tracer = self._telemetry.get_tracer()
        if tracer is not None:
            tracer.registry.observe(f"perfbench.{layer}", own_s)
            if layer in INCLUSIVE:
                tracer.registry.observe(f"perfbench.incl.{layer}", total_s)

    def wrap(self, layer: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                total = time.perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += total
                self.charge(layer, total - nested, total)

        return timed


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def _counting_pool(clock: LayerClock, base):
    """A ``ProcessPoolExecutor`` that charges its bring-up to a layer.

    Bring-up is construction plus every ``submit``; with the ``fork``
    start method the workers are launched by the first submit.  The
    pool's capacity (workers x lifetime, construction to shutdown) is
    the denominator of ``faultinject.parallel.busy_frac``.
    """

    class CountingPool(base):
        def __init__(self, *args, **kwargs):
            clock.pools += 1
            self._perfbench_born = time.perf_counter()
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                return super().shutdown(*args, **kwargs)
            finally:
                if os.getpid() == clock.pid:
                    lifetime = time.perf_counter() - self._perfbench_born
                    clock.pool_capacity_s += lifetime * self._max_workers

    CountingPool.__init__ = clock.wrap(POOL_LAYER, CountingPool.__init__)
    CountingPool.submit = clock.wrap(POOL_LAYER, base.submit)
    return CountingPool


def install(clock: LayerClock) -> None:
    """Wrap every target callable, in place, for this process."""
    for name in PRELOAD:
        importlib.import_module(name)
    replacements: dict[int, tuple] = {}
    for layer, targets in TARGETS.items():
        for module_name, path in targets:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
            wrapped = clock.wrap(layer, original)
            setattr(owner, attr, wrapped)
            if not isinstance(owner, type):
                replacements[id(original)] = (original, wrapped)
    # Module-level functions are also held under their own names by the
    # modules that imported them (``from x import f``); swap those too.
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if not name.startswith("repro"):
            continue
        namespace = module.__dict__
        for key, value in list(namespace.items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[key] = hit[1]
    parallel = importlib.import_module("repro.faultinject.parallel")
    parallel.ProcessPoolExecutor = _counting_pool(clock, parallel.ProcessPoolExecutor)


# ---------------------------------------------------------------------------
# Metric assembly
# ---------------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def snapshot(clock: LayerClock, registry, import_s: float) -> dict:
    """What a traced process reports back: layer totals and counters.

    With a telemetry ``registry`` the totals are its ``perfbench.*``
    timers (every process); without one, the clock's own (one process).
    """
    if registry is not None:
        snap = registry.snapshot()
        prefix = "perfbench."
        totals = {
            name[len(prefix):]: [stat["count"], stat["total_s"]]
            for name, stat in snap["timers"].items()
            if name.startswith(prefix)
        }
        counters = snap["counters"]
    else:
        totals = {layer: [clock.calls[layer], clock.self_s[layer]] for layer in clock.self_s}
        counters = {}
    return {
        "totals": totals,
        "counters": counters,
        "parent_self_s": dict(clock.self_s),
        "pools": clock.pools,
        "pool_capacity_s": clock.pool_capacity_s,
        "import_s": import_s,
    }


def layer_metrics(
    trace: dict,
    golden_cycles: int,
    traced_wall_s: float,
    untraced_wall_s: float,
    query_ms: list[float] = (),
) -> dict[str, tuple[float | None, str]]:
    """The traced run's per-layer metrics from one :func:`snapshot`.

    ``*_s`` metrics are self seconds summed over every process;
    ``host.unattributed_s`` is the traced wall minus the parent's own
    self times and its import time, which are disjoint parts of it.
    ``query_ms`` are untraced query latencies (``store-mixed`` only);
    without them the latency percentiles read 0.
    """
    import common

    totals = trace["totals"]
    counters = trace["counters"]

    def seconds(layer: str) -> float:
        return float(totals.get(layer, (0, 0.0))[1])

    def calls(layer: str) -> float:
        return float(totals.get(layer, (0, 0.0))[0])

    runs = counters.get("campaign.runs", 0)
    busy_s = seconds("incl.faultinject.parallel.chunk")
    attributed = trace["import_s"] + sum(trace["parent_self_s"].values())
    metrics = {
        "video.render_calls": (calls("video.synth"), "count"),
        "video.synth_s": (seconds("video.synth"), "s"),
        "summarize.golden_s": (seconds("summarize.golden"), "s"),
        "summarize.golden_calls": (calls("summarize.golden"), "count"),
        "faultinject.tape_capture_s": (seconds("faultinject.tape_capture"), "s"),
        "faultinject.restore_s": (seconds("faultinject.restore"), "s"),
        "summarize.suffix_s": (seconds("summarize.suffix"), "s"),
        "summarize.suffix_calls": (calls("summarize.suffix"), "count"),
    }
    for stage in ("fast", "orb", "match", "ransac"):
        metrics[f"vision.{stage}_s"] = (seconds(f"vision.{stage}"), "s")
        metrics[f"vision.{stage}_calls"] = (calls(f"vision.{stage}"), "count")
    metrics.update(
        {
            "imaging.warp_s": (seconds("imaging.warp"), "s"),
            "imaging.warp_calls": (calls("imaging.warp"), "count"),
            "faultinject.runs": (float(runs), "count"),
            "faultinject.ff_hits": (float(counters.get("campaign.fastforward.hits", 0)), "count"),
            "faultinject.full_runs": (
                float(counters.get("campaign.fastforward.full_runs", 0)),
                "count",
            ),
            "faultinject.golden_tail_frac": (
                _ratio(counters.get("campaign.fanout.golden_tail", 0), runs),
                "fraction",
            ),
            "faultinject.skipped_cycle_frac": (
                _ratio(
                    counters.get("campaign.fastforward.skipped_cycles", 0),
                    runs * golden_cycles,
                ),
                "fraction",
            ),
            "faultinject.plan_s": (seconds("faultinject.plan"), "s"),
            "faultinject.execute_s": (seconds("faultinject.execute"), "s"),
            "faultinject.parallel.pools": (float(trace["pools"]), "count"),
            "faultinject.parallel.bringup_s": (seconds(POOL_LAYER), "s"),
            "faultinject.parallel.busy_s": (busy_s, "s"),
            "faultinject.parallel.busy_frac": (
                _ratio(busy_s, trace["pool_capacity_s"]),
                "fraction",
            ),
            "faultinject.journal.appends": (calls("faultinject.journal.append"), "count"),
            "faultinject.journal.append_s": (seconds("faultinject.journal.append"), "s"),
            "observe.status_writes": (calls("observe.status"), "count"),
            "observe.status_s": (seconds("observe.status"), "s"),
            "quality.sdc_scored": (calls("quality.score"), "count"),
            "quality.score_s": (seconds("quality.score"), "s"),
            "forensics.store.build_s": (seconds("forensics.store.build"), "s"),
            "forensics.store.put_s": (seconds("forensics.store.put"), "s"),
            "forensics.store.puts": (calls("forensics.store.put"), "count"),
            "forensics.store.open_s": (seconds("forensics.store.open"), "s"),
            "forensics.store.read_s": (seconds("forensics.store.read"), "s"),
            "forensics.query_s": (seconds("forensics.query"), "s"),
            "forensics.query_calls": (calls("forensics.query"), "count"),
            "forensics.query_ms.p50": (
                common.percentile(query_ms, 50) if query_ms else 0.0,
                "ms",
            ),
            "forensics.query_ms.p99": (
                common.percentile(query_ms, 99) if query_ms else 0.0,
                "ms",
            ),
            "host.import_s": (float(trace["import_s"]), "s"),
            "host.traced_wall_s": (traced_wall_s, "s"),
            "host.unattributed_s": (traced_wall_s - attributed, "s"),
            "host.trace_overhead_frac": (
                _ratio(traced_wall_s, untraced_wall_s) - 1.0,
                "fraction",
            ),
        }
    )
    return metrics
