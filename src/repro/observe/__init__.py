"""Live campaign observatory: event bus, status snapshots, flight recorder.

Only the stdlib-only event API is re-exported here, so the campaign
engine can emit events without importing the heavier layers, which
are explicit submodules:

* :mod:`repro.observe.status` — crash-safe JSON status snapshots
* :mod:`repro.observe.server` — zero-dependency ``/status`` + ``/metrics``
* :mod:`repro.observe.recorder` — bounded flight-recorder ring
* :mod:`repro.observe.session` — the ``observe_campaign`` wiring
* :mod:`repro.observe.trend` — cross-campaign trend dashboard
"""

from repro.observe.events import (
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    CampaignEvent,
    EventBus,
    current,
    emit,
    enabled,
    install,
    restore,
    uninstall,
)

__all__ = [
    "EVENT_KINDS",
    "EVENT_SCHEMA_VERSION",
    "CampaignEvent",
    "EventBus",
    "current",
    "emit",
    "enabled",
    "install",
    "restore",
    "uninstall",
]
