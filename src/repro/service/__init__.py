"""Online admission-control runtime around the E-TSN CNC.

The paper names *online scheduling* as the key step toward deployable
E-TSN (Sec. VII-C); this package is that step as a subsystem: a
versioned :class:`ScheduleStore` for non-blocking readers, an
:class:`AdmissionService` that batches admit/remove requests and climbs
a solver fallback ladder, structured :class:`Decision` verdicts, and an
embedded :class:`MetricsRegistry` exportable as JSON.
"""

from repro.service.admission import (
    RUNG_FASTPATH,
    RUNG_FULL,
    RUNG_HEURISTIC,
    RUNG_INCREMENTAL,
    AdmissionService,
    RungConfig,
    ServiceConfig,
    empty_schedule,
)
from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.requests import (
    AdmissionRequest,
    AdmitEct,
    AdmitTct,
    Decision,
    Remove,
    request_from_dict,
    request_to_dict,
)
from repro.service.shape import canonical_shape, shape_digest
from repro.service.store import ScheduleStore, StaleVersionError, StoreSnapshot

__all__ = [
    "AdmissionRequest",
    "AdmissionService",
    "AdmitEct",
    "AdmitTct",
    "Counter",
    "Decision",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RUNG_FASTPATH",
    "RUNG_FULL",
    "RUNG_HEURISTIC",
    "RUNG_INCREMENTAL",
    "Remove",
    "RungConfig",
    "ScheduleStore",
    "ServiceConfig",
    "StaleVersionError",
    "StoreSnapshot",
    "canonical_shape",
    "empty_schedule",
    "request_from_dict",
    "request_to_dict",
    "shape_digest",
]
