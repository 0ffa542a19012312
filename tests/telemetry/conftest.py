"""Telemetry test isolation: tracing must never leak across tests."""

from __future__ import annotations

import pytest

from repro import telemetry


@pytest.fixture(autouse=True)
def _tracing_off_during_test():
    """Run each test untraced, then restore the tracer that was active.

    ``REPRO_TRACE=1`` enables a process tracer for the whole suite; a
    bare ``disable()`` afterwards would switch it off for every later
    test.
    """
    previous = telemetry.disable()
    yield
    telemetry.restore_tracer(previous)
