"""Campaign progress heartbeats: injections/sec, ETA, cache hit rate.

A :class:`Heartbeat` is an event-bus subscriber (see
:mod:`repro.observe.events`).  It prints at most one progress line per
``interval_s`` to ``stream`` (stderr by default, so machine-readable
stdout output stays clean), plus a final line when the campaign
completes::

    [campaign gpr] 120/400 injections | 5.3 inj/s | ETA 53s | golden-cache 7/8 hits

Notes, resumes, retries and degradation print at once on their own
line.  A stratified campaign's total is unknown up front, so its lines
carry no ETA and stay rate-limited until the campaign finishes.

The cadence is configurable: ``--heartbeat-interval`` on the CLI or the
``REPRO_HEARTBEAT_INTERVAL`` environment variable (validated the same
way as ``REPRO_WORKERS`` — a bad value raises a ValueError naming its
source).  ``quiet=True`` suppresses the lines; the heartbeat never
publishes anything, so ``--status`` and ``/metrics`` see the same
events either way.

The campaign drivers subscribe a heartbeat only while telemetry is on,
and it only observes — it never touches campaign state.
"""

from __future__ import annotations

import math
import os
import sys
import time
from typing import Callable, TextIO

#: Environment override for the heartbeat cadence (seconds).
HEARTBEAT_INTERVAL_ENV = "REPRO_HEARTBEAT_INTERVAL"

#: Cadence used when neither the CLI flag nor the env var is set.
DEFAULT_HEARTBEAT_INTERVAL = 2.0


def _parse_interval(raw: object, source: str) -> float:
    """Validate one cadence value, naming ``source`` in errors."""
    try:
        value = float(raw)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be a number of seconds, got {raw!r}"
        ) from None
    if not math.isfinite(value) or value <= 0:
        raise ValueError(
            f"{source} must be a positive finite number of seconds, got {raw!r}"
        )
    return value


def resolve_heartbeat_interval(requested: float | None = None) -> float:
    """The heartbeat cadence: explicit value, else env var, else 2.0 s."""
    if requested is not None:
        return _parse_interval(requested, "heartbeat interval")
    raw = os.environ.get(HEARTBEAT_INTERVAL_ENV)
    if raw is None or raw == "":
        return DEFAULT_HEARTBEAT_INTERVAL
    return _parse_interval(raw, HEARTBEAT_INTERVAL_ENV)


def _format_eta(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


#: Event kinds whose ``done`` field is the campaign's cumulative count.
_PROGRESS_KINDS = ("chunk_done", "group_done", "round_done")

#: Rare events printed at once, as ``<kind>: key=value ...``.
_NOTED_KINDS = ("journal_resume", "retry", "degrade")


class Heartbeat:
    """Rate-limited progress lines from one campaign's events."""

    def __init__(
        self,
        interval_s: float = DEFAULT_HEARTBEAT_INTERVAL,
        stream: TextIO | None = None,
        clock: Callable[[], float] = time.perf_counter,
        quiet: bool = False,
    ) -> None:
        self.total: int | None = None
        self.label = "campaign"
        self.interval_s = _parse_interval(interval_s, "heartbeat interval")
        self.stream = stream if stream is not None else sys.stderr
        self.clock = clock
        self.quiet = quiet
        self.start = clock()
        self._last_emit = float("-inf")
        self.lines_emitted = 0
        self.note = ""

    def __call__(self, event) -> None:
        payload = event.payload
        kind = event.kind
        if kind == "campaign_start":
            self.total = payload.get("total")
            stratified = " (stratified)" if payload.get("mode") == "stratified" else ""
            self.label = f"campaign {payload.get('kind', '')}{stratified}".rstrip()
            self.start = self.clock()
        elif kind in _PROGRESS_KINDS:
            self.update(int(payload["done"]))
        elif kind == "campaign_finish":
            if self.total is None:
                self.update(int(payload["total"]), final=True)
        elif kind == "note":
            self.annotate(str(payload["note"]))
        elif kind in _NOTED_KINDS:
            fields = " ".join(f"{key}={value}" for key, value in payload.items())
            self.annotate(f"{kind.replace('_', ' ')}: {fields}")

    def annotate(self, note: str) -> None:
        """Print a status note on its own line now.

        The note is also appended to later progress lines until
        replaced.
        """
        self.note = note
        if not self.quiet:
            print(f"[{self.label}] {note}", file=self.stream)
            self.lines_emitted += 1

    def _cache_suffix(self) -> str:
        from repro.summarize.golden import golden_cache_stats

        stats = golden_cache_stats()
        lookups = stats.hits + stats.computes
        if lookups == 0:
            return ""
        return f" | golden-cache {stats.hits}/{lookups} hits"

    def update(self, done: int, final: bool = False) -> None:
        """Report ``done`` completed units; prints when due.

        The last unit of a known total always prints; so does ``final``.
        """
        now = self.clock()
        final = final or (self.total is not None and done >= self.total)
        if not final and now - self._last_emit < self.interval_s:
            return
        self._last_emit = now
        if self.quiet:
            return
        elapsed = max(now - self.start, 1e-9)
        rate = done / elapsed
        if self.total is None:
            progress = f"{done} injections | {rate:.1f} inj/s"
        else:
            eta = "0s" if final or rate <= 0 else _format_eta((self.total - done) / rate)
            progress = f"{done}/{self.total} injections | {rate:.1f} inj/s | ETA {eta}"
        note_suffix = f" | {self.note}" if self.note else ""
        print(
            f"[{self.label}] {progress}{self._cache_suffix()}{note_suffix}",
            file=self.stream,
        )
        self.lines_emitted += 1

