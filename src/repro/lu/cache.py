"""Symbolic-analysis cache keyed by sparsity pattern.

The expensive combinatorial pre-work of the numeric phases — the
per-subdomain fill-reducing ordering (minimum degree + e-tree
postorder) and the minimum-degree permutation of the approximate Schur
complement — depends only on the *pattern* of the matrix, never its
values. Time-stepping and Newton loops call
:meth:`repro.solver.PDSLin.update_matrix` with fresh values on a fixed
pattern, so these analyses are pure re-computation; the
:class:`SymbolicCache` memoizes them under a pattern fingerprint.

The cached functions are deterministic functions of the pattern (plus
the hashed configuration tags), so cache hits cannot change results —
serial and parallel backends share one parent-side cache and stay
bit-identical.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Callable

import numpy as np
import scipy.sparse as sp

__all__ = ["pattern_fingerprint", "SymbolicCache"]


def pattern_fingerprint(A: sp.spmatrix, *tags: Any) -> str:
    """Digest of the sparsity structure of ``A`` plus ``tags``.

    Hashes shape + CSR ``indptr``/``indices`` (values excluded on
    purpose); extra ``tags`` distinguish analyses that share a pattern
    but differ in what is computed from it (``"order"``, ``"schur-md"``).
    """
    A = A.tocsr()
    h = hashlib.blake2b(digest_size=16)
    h.update(np.asarray(A.shape, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(A.indptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(A.indices, dtype=np.int64).tobytes())
    for tag in tags:
        h.update(repr(tag).encode())
        h.update(b"\x00")
    return h.hexdigest()


class SymbolicCache:
    """A small LRU of symbolic-analysis results.

    ``get_or_compute`` is the main entry point; ``hits``/``misses``
    feed the ``symbolic_cache_hit``/``symbolic_cache_miss`` tracer
    counters of the solver.
    """

    def __init__(self, maxsize: int = 64):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self._data: OrderedDict[str, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: str) -> Any:
        if key not in self._data:
            return None
        self._data.move_to_end(key)
        return self._data[key]

    def put(self, key: str, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def get_or_compute(self, key: str, compute: Callable[[], Any]) -> Any:
        value = self.get(key)
        if value is not None:
            self.hits += 1
            return value
        self.misses += 1
        value = compute()
        self.put(key, value)
        return value

    def clear(self) -> None:
        self._data.clear()
