"""Shared fixtures: tiny synthetic inputs, contexts and RNGs.

Expensive artifacts (streams, feature sets, golden runs) are
session-scoped; tests must treat them as read-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.runtime.context import CostProfile, ExecutionContext
from repro.summarize.config import VSConfig
from repro.summarize.golden import clear_golden_cache
from repro.video.synthetic import make_input1, make_input2


@pytest.fixture()
def ctx() -> ExecutionContext:
    """A fresh plain execution context."""
    return ExecutionContext()


@pytest.fixture()
def profiled_ctx() -> ExecutionContext:
    """A context with an attached cost profile."""
    return ExecutionContext(profile=CostProfile())


@pytest.fixture()
def rng() -> np.random.Generator:
    """A deterministic RNG."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def textured_image() -> np.ndarray:
    """A feature-rich grayscale test image (session-scoped, read-only)."""
    gen = np.random.default_rng(7)
    image = (40 + 170 * gen.random((120, 160))).astype(np.uint8)
    # Stamp some strong corners.
    for _ in range(60):
        x = int(gen.integers(5, 150))
        y = int(gen.integers(5, 110))
        image[y : y + 6, x : x + 6] = int(gen.integers(0, 256))
    image.setflags(write=False)
    return image


@pytest.fixture(scope="session")
def tiny_stream1():
    """A small Input-1-like stream (session-scoped, frames read-only)."""
    return make_input1(n_frames=16)


@pytest.fixture(scope="session")
def tiny_stream2():
    """A small Input-2-like stream (session-scoped, frames read-only)."""
    return make_input2(n_frames=16)


@pytest.fixture(scope="session")
def tiny_config() -> VSConfig:
    """The baseline config used by the tiny integration tests."""
    return VSConfig()


@pytest.fixture()
def fresh_tracer():
    """A fresh tracer for one test; the previously active tracer is restored.

    ``telemetry.enable()`` would hand back an already-active tracer (one
    ``REPRO_TRACE=1`` turned on, say) with other tests' counters in it.
    """
    tracer, previous = telemetry.swap_in_fresh_tracer()
    yield tracer
    telemetry.restore_tracer(previous)


@pytest.fixture(autouse=True)
def _tracer_unchanged():
    """A test must leave the active tracer as it found it.

    Under ``REPRO_TRACE=1`` a test that ends with ``telemetry.disable()``
    would run every later test untraced.  The tracer is restored before
    the failure is reported, so one leak does not cascade.
    """
    before = telemetry.get_tracer()
    yield
    after = telemetry.get_tracer()
    telemetry.restore_tracer(before)
    assert after is before, "test changed the active telemetry tracer"


@pytest.fixture(autouse=True)
def _fresh_golden_cache():
    """Isolate golden-run caching between tests."""
    yield
    clear_golden_cache()
