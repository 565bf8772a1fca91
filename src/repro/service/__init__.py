"""In-process solver serving layer.

- :class:`SolverService` (:mod:`repro.service.core`) — session-cached,
  micro-batching request front end over :class:`repro.solver.PDSLin`;
- :mod:`repro.service.cache` — the byte-accounted LRU of set-up
  sessions;
- :mod:`repro.service.errors` — structured :class:`ServiceError`
  rejections;
- ``python -m repro.smoke service`` — mixed-traffic replay smoke.
"""

from repro.service.cache import Session, SessionCache, session_key
from repro.service.core import SolverService, serve
from repro.service.errors import (
    ServiceClosedError,
    ServiceDeadlineError,
    ServiceError,
    ServiceOverloadedError,
    UnknownSessionError,
)

__all__ = [
    "SolverService", "serve",
    "Session", "SessionCache", "session_key",
    "ServiceError", "ServiceClosedError", "ServiceDeadlineError",
    "ServiceOverloadedError", "UnknownSessionError",
]
