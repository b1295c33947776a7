"""repro.frontend: the async network face of the admission runtime.

An asyncio JSONL socket server (:class:`Frontend`) in front of an
:class:`~repro.service.admission.AdmissionService` or a
:class:`~repro.cluster.coordinator.ClusterCoordinator`, with bounded
intake and explicit ``server_busy`` backpressure, batch coalescing, an
epoch-pinned decision cache and trace propagation.
"""

from repro.frontend.cache import DecisionCache, cacheable
from repro.frontend.protocol import (
    ERROR_BAD_REQUEST,
    ERROR_SERVER_BUSY,
    ERROR_SHUTTING_DOWN,
    decode_request,
    decode_response,
    encode_decision,
    encode_error,
    encode_request,
)
from repro.frontend.server import (
    ClusterBackend,
    Frontend,
    FrontendConfig,
    FrontendThread,
    ServiceBackend,
    serve_until_stopped,
)

__all__ = [
    "ClusterBackend",
    "DecisionCache",
    "ERROR_BAD_REQUEST",
    "ERROR_SERVER_BUSY",
    "ERROR_SHUTTING_DOWN",
    "Frontend",
    "FrontendConfig",
    "FrontendThread",
    "ServiceBackend",
    "cacheable",
    "decode_request",
    "decode_response",
    "encode_decision",
    "encode_error",
    "encode_request",
    "serve_until_stopped",
]
