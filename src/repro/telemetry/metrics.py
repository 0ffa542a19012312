"""Process-local metrics: counters, gauges and monotonic timers.

The registry is the aggregation half of the telemetry layer: spans fold
their wall-clock into timers, kernels and caches bump counters, and the
campaign engine merges per-worker snapshots back into the parent in
injection-chunk order, so the merged registry is deterministic for a
fixed chunking (see :mod:`repro.faultinject.parallel`).

Everything here is plain Python over ``dict`` — no locks (CPython dict
operations are atomic enough for the single-threaded simulator) and no
third-party dependencies, so an enabled registry costs one dict update
per observation and a disabled one costs nothing at all (callers guard
on :func:`repro.telemetry.enabled`).
"""

from __future__ import annotations

#: Campaign event kind -> ``(counter, payload field holding the
#: increment)``; ``None`` counts the event once.  See ``count_event``.
EVENT_COUNTERS: dict[str, tuple[str, str | None]] = {
    "retry": ("campaign.retries", None),
    "degrade": ("campaign.degraded", None),
    "watchdog_hang": ("campaign.watchdog_hangs", "count"),
    "golden_tail": ("campaign.fanout.golden_tail", None),
    "round_done": ("campaign.sampling.rounds", None),
    "stratum_converged": ("campaign.sampling.cells_converged", None),
    "campaign_finish": ("campaign.sampling.draws_saved", "draws_saved"),
}


class MetricsRegistry:
    """Named counters (ints), gauges (floats) and timers (wall seconds).

    Timers accumulate ``[count, total_seconds, max_seconds]`` per name.
    Snapshots are plain JSON-serializable dicts with sorted keys, and
    :meth:`merge_snapshot` folds one snapshot into this registry —
    counters and timer totals add, gauges take the snapshot's value
    (last-write-wins, which is deterministic because the campaign engine
    merges worker snapshots in chunk order).
    """

    __slots__ = ("_counters", "_gauges", "_timers")

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._timers: dict[str, list[float]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, by: int = 1) -> None:
        """Add ``by`` to counter ``name`` (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + by

    def count_event(self, event) -> None:
        """Event-bus subscriber: bump the counter ``EVENT_COUNTERS`` names."""
        entry = EVENT_COUNTERS.get(event.kind)
        if entry is None:
            return
        name, field = entry
        by = 1 if field is None else int(event.payload.get(field, 0))
        if by:
            self.inc(name, by)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value``."""
        self._gauges[name] = float(value)

    def observe(self, name: str, seconds: float) -> None:
        """Fold one duration observation into timer ``name``."""
        stat = self._timers.get(name)
        if stat is None:
            self._timers[name] = [1, seconds, seconds]
        else:
            stat[0] += 1
            stat[1] += seconds
            if seconds > stat[2]:
                stat[2] = seconds

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never bumped)."""
        return self._counters.get(name, 0)

    def gauge(self, name: str) -> float | None:
        """Current value of gauge ``name`` (None when never set)."""
        return self._gauges.get(name)

    def timer(self, name: str) -> tuple[int, float, float] | None:
        """``(count, total_s, max_s)`` for timer ``name``, or None."""
        stat = self._timers.get(name)
        return None if stat is None else (int(stat[0]), stat[1], stat[2])

    def snapshot(self) -> dict:
        """A JSON-serializable copy of the whole registry."""
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "timers": {
                k: {
                    "count": int(self._timers[k][0]),
                    "total_s": self._timers[k][1],
                    "max_s": self._timers[k][2],
                }
                for k in sorted(self._timers)
            },
        }

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def merge_snapshot(self, snap: dict) -> None:
        """Fold one :meth:`snapshot` payload into this registry.

        Counters and timer counts/totals add; timer maxima take the
        maximum; gauges take the snapshot's value.  Callers that need a
        deterministic result must merge snapshots in a fixed order (the
        campaign engine merges in chunk order).
        """
        for name, value in snap.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snap.get("gauges", {}).items():
            self.set_gauge(name, value)
        for name, stat in snap.get("timers", {}).items():
            mine = self._timers.get(name)
            if mine is None:
                self._timers[name] = [stat["count"], stat["total_s"], stat["max_s"]]
            else:
                mine[0] += stat["count"]
                mine[1] += stat["total_s"]
                if stat["max_s"] > mine[2]:
                    mine[2] = stat["max_s"]

    def clear(self) -> None:
        """Drop every metric (test isolation)."""
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()
