"""Byte-accounted LRU cache of fully-set-up solver sessions.

A *session* is a :class:`repro.solver.PDSLin` that has completed
``setup()`` — partition, subdomain LU factors (with live SuperLU
handles), approximate Schur complement and its factorization — keyed by
the same identity fingerprint the checkpoint layer uses:
``matrix_fingerprint(A)`` (pattern + values) crossed with
``config_fingerprint(config)`` (every numeric knob, minus the
solve-phase-only fields). Two requests with byte-identical matrices and
configs therefore share one session; any change to either gets its own.

Memory is accounted in bytes (a recursive sweep over the solver's numpy
and scipy.sparse payloads) against a budget; inserting past the budget
evicts least-recently-used sessions. Eviction releases the SuperLU
handles (C-heap allocations invisible to Python's GC accounting) before
dropping the solver — and never touches execution backends, whose
worker pools are owned by the service, not the session.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np
import scipy.sparse as sp

from repro.lu.cache import pattern_fingerprint
from repro.resilience.checkpoint import config_fingerprint, matrix_fingerprint
from repro.solver import PDSLin

__all__ = ["Session", "SessionCache", "session_key", "session_nbytes"]


def session_key(A: sp.spmatrix, config) -> str:
    """The cache identity of (matrix, config): the checkpoint
    fingerprints joined — byte-identical inputs map to the same
    session, anything else to a different one."""
    return f"{matrix_fingerprint(A)}:{config_fingerprint(config)}"


def _payload_nbytes(obj, seen: set, depth: int) -> int:
    """Recursive byte count of the numpy/scipy payloads hanging off
    ``obj`` — arrays, sparse matrices, and the containers/dataclasses
    holding them. Bounded depth and an id-set keep the sweep linear and
    cycle-safe; scalars, strings and foreign objects (SuperLU handles
    live on the C heap) count as zero."""
    if obj is None or depth < 0 or id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if sp.issparse(obj):
        total = 0
        for name in ("data", "indices", "indptr", "row", "col"):
            arr = getattr(obj, name, None)
            if isinstance(arr, np.ndarray):
                total += arr.nbytes
        return total
    if isinstance(obj, (list, tuple, set)):
        return sum(_payload_nbytes(v, seen, depth - 1) for v in obj)
    if isinstance(obj, dict):
        return sum(_payload_nbytes(v, seen, depth - 1)
                   for v in obj.values())
    inner = getattr(obj, "__dict__", None)
    if inner is not None and type(obj).__module__.startswith("repro"):
        return sum(_payload_nbytes(v, seen, depth - 1)
                   for v in inner.values())
    return 0


def session_nbytes(solver: PDSLin) -> int:
    """Resident-set estimate of one set-up session: the input matrix,
    the working system, every subdomain's factors and interface blocks,
    the assembled/factored Schur complement, and the solve plan's
    permuted copies of the interface and separator blocks."""
    seen: set = set()
    total = 0
    for obj in (solver.A_input, solver.A, solver.S_tilde,
                solver._schur_factors, solver.subdomains,
                solver.partition, solver.solve_plan):
        total += _payload_nbytes(obj, seen, depth=4)
    return total


def _release_handles(solver: PDSLin) -> None:
    """Drop the SuperLU handles of a session being evicted. The
    factors' numpy arrays stay valid (the solver could be re-attached),
    but the C-side objects are freed now rather than whenever the GC
    gets around to the solver graph."""
    for s in solver.subdomains:
        if s.factors is not None:
            s.factors.handle = None
    if solver._schur_factors is not None:
        solver._schur_factors.handle = None


@dataclass
class Session:
    """One cached, fully-set-up solver plus its accounting."""

    key: str
    solver: PDSLin
    nbytes: int
    #: pattern-only fingerprint — the identity ``update_matrix``
    #: revalidation matches on (same structure, new values)
    pattern_fp: str
    config_fp: str
    #: problem size — lets the service validate fingerprint-addressed
    #: right-hand sides at submit time without touching the solver
    n: int = 0
    hits: int = 0
    solves: int = 0
    rhs_served: int = 0
    extra: dict = field(default_factory=dict)


class SessionCache:
    """LRU over :class:`Session`, bounded by total payload bytes.

    Not thread-safe by itself — the service serializes access on its
    dispatcher. ``budget_bytes=0`` means "no caching": every put
    evicts immediately (useful to force the cold path in tests).
    """

    def __init__(self, budget_bytes: int):
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0")
        self.budget_bytes = int(budget_bytes)
        self._entries: "OrderedDict[str, Session]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.evicted_bytes = 0

    # -- core ops ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[Session]:
        return iter(self._entries.values())

    @property
    def used_bytes(self) -> int:
        return sum(s.nbytes for s in self._entries.values())

    def peek(self, key: str) -> Optional[Session]:
        """The session for ``key`` without touching recency or hit
        counts — for admission checks that must not perturb LRU
        order."""
        return self._entries.get(key)

    def get(self, key: str) -> Optional[Session]:
        """The session for ``key`` (refreshing its recency), or None —
        the miss is *not* counted here, only when the caller actually
        builds the session (lookups by fingerprint probe first)."""
        session = self._entries.get(key)
        if session is None:
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        session.hits += 1
        return session

    def put(self, session: Session) -> list[Session]:
        """Insert (counting one miss) and evict LRU sessions until the
        budget holds again; the inserted session itself is never
        evicted on its own insert, however large. Returns the evicted
        sessions (handles already released)."""
        self.misses += 1
        self._entries[session.key] = session
        self._entries.move_to_end(session.key)
        evicted = []
        while self.used_bytes > self.budget_bytes and len(self._entries) > 1:
            old_key, old = next(iter(self._entries.items()))
            if old_key == session.key:
                break
            evicted.append(self.pop(old_key))
        return evicted

    def pop(self, key: str) -> Session:
        """Remove ``key``, releasing its SuperLU handles."""
        session = self._entries.pop(key)
        _release_handles(session.solver)
        self.evictions += 1
        self.evicted_bytes += session.nbytes
        return session

    def rekey(self, old_key: str, new_key: str) -> Session:
        """Rebind a session after in-place revalidation
        (``update_matrix``): same solver object, new matrix
        fingerprint. Recency and hit counts carry over."""
        session = self._entries.pop(old_key)
        session.key = new_key
        self._entries[new_key] = session
        self._entries.move_to_end(new_key)
        return session

    def find_pattern(self, pattern_fp: str,
                     config_fp: str) -> Optional[Session]:
        """The most recently used session matching (pattern, config) —
        the candidate for ``update_matrix`` revalidation."""
        for session in reversed(self._entries.values()):
            if session.pattern_fp == pattern_fp \
                    and session.config_fp == config_fp:
                return session
        return None

    def clear(self) -> int:
        """Evict everything (handles released); returns bytes freed."""
        freed = 0
        for key in list(self._entries):
            freed += self.pop(key).nbytes
        return freed

    # -- accounting -------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "sessions": len(self._entries),
            "used_bytes": self.used_bytes,
            "budget_bytes": self.budget_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
        }


def make_session(key: str, solver: PDSLin, A: sp.spmatrix,
                 config) -> Session:
    """Wrap a set-up solver as a cache entry (byte accounting done
    here, after setup, so the factors are included)."""
    return Session(key=key, solver=solver, nbytes=session_nbytes(solver),
                   pattern_fp=pattern_fingerprint(A),
                   config_fp=config_fingerprint(config),
                   n=int(A.shape[0]))
