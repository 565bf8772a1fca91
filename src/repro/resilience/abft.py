"""Algorithm-based fault tolerance: checksums and bit-flip injection.

Silent data corruption (SDC) — a bit flipping in memory or in transit
without any crash — is invisible to the crash/straggler machinery of
this package. Each stage of the PDSLin pipeline, however, carries a
cheap algebraic invariant (Huang-Abraham style checksums), and this
module implements them:

- **Factor checksums** (:class:`FactorChecksums`): column-sum vectors of
  ``L``/``U`` recorded right after factorization, plus the identity
  ``(1^T L) U = 1^T A`` in factored coordinates. :func:`verify_factors`
  recomputes and compares — a flipped bit anywhere in the factor data
  (or in the stored checksum itself) trips it. The same record powers a
  passive per-solve audit: ``1^T A x = 1^T b`` costs two O(n) dot
  products per triangular solve (see ``LUFactors.solve``).
- **Matrix checksums** (:func:`checksum_matrix` /
  :func:`verify_matrix_checksum`): column sums of a sparse matrix,
  used on each subdomain's local Schur update T̃ before assembly and on
  the assembled S̃ before LU(S) / after checkpoint resume.
- **A seeded bit-flip injector** (:func:`maybe_bitflip`,
  ``REPRO_CHAOS_BITFLIP_*`` seams) that corrupts a chosen pipeline
  stage deterministically, so the detectors can be drilled end to end
  on every backend (``python -m repro.smoke bitflip``).

Checksum comparisons that recompute the *same* floating-point sum over
the same data are bit-deterministic, so their tolerances are tiny; the
algebraic identities are normwise-calibrated at attach time so that
ill-conditioned or statically-perturbed factorizations do not false
positive (the ``ROBUST_SUITE`` matrices are part of the test gate).
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro import envcfg
from repro.envcfg import BITFLIP_TARGETS

__all__ = [
    "ABFT_MODES", "check_abft_mode", "abft_detect", "abft_recover",
    "FactorChecksums", "attach_factor_checksums", "verify_factors",
    "AuditResult", "checksum_matrix", "verify_matrix_checksum",
    "BitflipSeam", "bitflip_seam", "validate_bitflip_env",
    "bitflip_armed", "maybe_bitflip", "corrupt_shipped_value",
    "maybe_corrupt_transport", "reset_bitflip_state", "BITFLIP_TARGETS",
    "ENV_BITFLIP_TARGET", "ENV_BITFLIP_COUNT", "ENV_BITFLIP_SEED",
    "ENV_BITFLIP_SUBDOMAIN",
]

#: The ``abft=`` knob on PDSLinConfig: ``off`` disables everything,
#: ``detect`` checks and reports but keeps going, ``detect+recover``
#: additionally climbs the recovery ladder.
ABFT_MODES = ("off", "detect", "detect+recover")


def check_abft_mode(mode: str) -> str:
    if mode not in ABFT_MODES:
        raise ValueError(f"abft must be one of {ABFT_MODES}, got {mode!r}")
    return mode


def abft_detect(mode: str) -> bool:
    """True when checksum verification is on (detect or detect+recover)."""
    return mode in ("detect", "detect+recover")


def abft_recover(mode: str) -> bool:
    """True when detections should trigger the recovery ladder."""
    return mode == "detect+recover"


# -- audit results ----------------------------------------------------------

@dataclass
class AuditResult:
    """Outcome of one integrity check: ``rel`` is the worst relative
    discrepancy normalized so that ``ok`` means ``rel <= 1``."""

    ok: bool
    rel: float
    detail: str

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


# -- factor checksums -------------------------------------------------------

#: Recompute-vs-stored comparisons re-add the same floats in the same
#: order; anything beyond round-off noise is corruption.
MEMORY_TOL = 1e-12
#: Algebraic identity (1^T L) U = 1^T A, normwise relative to
#: |1^T| |L| |U| + |1^T A| — safe for ill-conditioned systems.
IDENTITY_TOL = 1e-8
#: Per-solve audit 1^T A x = 1^T b, normwise; loose enough for
#: statically-perturbed pivots, tight enough for high-bit flips.
SOLVE_TOL = 1e-5


def _canonical(M: sp.spmatrix) -> sp.spmatrix:
    """Return ``M`` with sorted indices, WITHOUT mutating it: checksums
    must be computed in a canonical summation order (several scipy ops
    sort lazily in place as a side effect, which would make a later
    recompute disagree with the stored sums in the last bits) — but
    sorting the caller's matrix in place would perturb the bit-level
    behaviour of downstream sparse kernels, breaking the contract that
    ABFT observes the pipeline without changing it."""
    if hasattr(M, "has_sorted_indices") and not M.has_sorted_indices:
        M = M.copy()
        M.sort_indices()
    return M


def _colsum(M: sp.spmatrix) -> np.ndarray:
    return np.asarray(_canonical(M).sum(axis=0), dtype=np.float64).ravel()


def _abs_colsum(M: sp.spmatrix) -> np.ndarray:
    return np.asarray(abs(_canonical(M)).sum(axis=0),
                      dtype=np.float64).ravel()


def _max_abs(a: np.ndarray) -> float:
    """``max|a|``, 0 for an empty array: a subdomain the partitioner
    left empty has 0x0 factors and nothing to be corrupted."""
    return float(np.max(np.abs(a), initial=0.0))


@dataclass
class FactorChecksums:
    """Checksum record attached to :class:`repro.lu.LUFactors`.

    ``colsum_A``/``abs_colsum_A`` are column sums of the pre-permuted
    input gathered into factored column positions (row permutations do
    not change column sums). ``base_identity_rel`` calibrates the
    ``(1^T L) U = 1^T A`` identity at attach time so statically
    perturbed or ill-conditioned factorizations verify cleanly.
    Pickles with the factors and survives the handle-stripping
    ``__getstate__``.
    """

    colsum_L: np.ndarray
    colsum_U: np.ndarray
    colsum_A: np.ndarray
    abs_colsum_A: np.ndarray
    identity_den: float
    base_identity_rel: float
    armed: bool = True
    checks: int = 0
    violations: int = 0
    worst_rel: float = 0.0
    last_detail: str = ""

    def reset_counters(self) -> None:
        self.checks = 0
        self.violations = 0
        self.worst_rel = 0.0
        self.last_detail = ""

    def audit_solve(self, factors, b: np.ndarray, x: np.ndarray) -> None:
        """Passive end-to-end check ``1^T A x = 1^T b`` after one
        triangular-solve pair. Works identically for the SuperLU-handle
        and explicit-factor paths; violations are counted here and
        swept by the solver after the stage completes.

        A 2-D ``x`` (one column per right-hand side) is audited as one
        vectorized check ``1^T A X = 1^T B`` — a single ``checks``
        increment per block, with the worst column's discrepancy
        recorded."""
        if not self.armed or x.ndim > 2:
            return
        xp = x[factors.perm_c]
        if x.ndim == 2:
            lhs = self.colsum_A @ xp
            rhs = b.sum(axis=0)
            den = self.abs_colsum_A @ np.abs(xp) + np.abs(b).sum(
                axis=0) + 1e-300
            rel = float(np.max(np.abs(lhs - rhs) / den)) / SOLVE_TOL \
                if x.shape[1] else 0.0
        else:
            lhs = float(self.colsum_A @ xp)
            rhs = float(b.sum())
            den = float(self.abs_colsum_A @ np.abs(xp)) + float(
                np.abs(b).sum()) + 1e-300
            rel = abs(lhs - rhs) / den / SOLVE_TOL
        self.checks += 1
        if rel > 1.0:
            self.violations += 1
            if rel > self.worst_rel:
                self.worst_rel = rel
                self.last_detail = (
                    f"solve checksum off by {rel:.2e}x tolerance")


def attach_factor_checksums(factors, A_pre: sp.spmatrix) -> FactorChecksums:
    """Compute and attach a :class:`FactorChecksums` for factors of the
    pre-permuted matrix ``A_pre`` (the exact matrix handed to
    ``factorize``; ``L U = A_pre[perm_r][:, perm_c]``)."""
    colsum_L = _colsum(factors.L)
    colsum_U = _colsum(factors.U)
    colsum_A = _colsum(A_pre)[factors.perm_c]
    abs_colsum_A = _abs_colsum(A_pre)[factors.perm_c]
    lhs = colsum_L @ factors.U
    den = _max_abs(_abs_colsum(factors.L) @ abs(factors.U)
                   + abs_colsum_A) + 1e-300
    base_rel = _max_abs(lhs - colsum_A) / den
    cs = FactorChecksums(
        colsum_L=colsum_L, colsum_U=colsum_U, colsum_A=colsum_A,
        abs_colsum_A=abs_colsum_A, identity_den=den,
        base_identity_rel=base_rel)
    factors.checksums = cs
    return cs


def verify_factors(factors) -> AuditResult:
    """Audit the factor data against the attached checksums.

    Three checks, worst one wins: recomputed column sums of ``L`` and
    ``U`` against the stored vectors (bit-deterministic — catches any
    flip in the factor data *or* in the stored checksums), and the
    algebraic identity ``(1^T L) U = 1^T A`` (catches correlated
    corruption), calibrated against the attach-time discrepancy.
    Usable serially and worker-side before results ship.
    """
    cs = getattr(factors, "checksums", None)
    if cs is None:
        return AuditResult(ok=True, rel=0.0, detail="no checksums attached")
    scale = _max_abs(cs.colsum_U) + _max_abs(cs.colsum_L) + 1e-300
    rel_L = _max_abs(_colsum(factors.L) - cs.colsum_L) / scale / MEMORY_TOL
    rel_U = _max_abs(_colsum(factors.U) - cs.colsum_U) / scale / MEMORY_TOL
    ident = _colsum(factors.L) @ factors.U - cs.colsum_A
    tol_ident = max(IDENTITY_TOL, 4.0 * cs.base_identity_rel)
    rel_I = _max_abs(ident) / cs.identity_den / tol_ident
    rel = max(rel_L, rel_U, rel_I)
    which = {rel_L: "L column sums", rel_U: "U column sums",
             rel_I: "LU identity"}[rel]
    return AuditResult(ok=rel <= 1.0, rel=rel,
                       detail=f"{which} off by {rel:.2e}x tolerance"
                       if rel > 1.0 else f"clean (worst {which})")


# -- matrix checksums (Comp(S) contributions, assembled Schur) --------------

def checksum_matrix(M: sp.spmatrix) -> np.ndarray:
    """Column-sum checksum vector of a sparse matrix."""
    return _colsum(M)


def verify_matrix_checksum(M: sp.spmatrix, stored: np.ndarray) -> AuditResult:
    """Recompute ``M``'s column sums and compare to the stored vector.

    Recompute-vs-stored over identical data is bit-deterministic up to
    sparse canonicalization round-off, so the tolerance is
    :data:`MEMORY_TOL` relative to the absolute column sums."""
    fresh = _colsum(M)
    den = _max_abs(_abs_colsum(M)) + _max_abs(stored) + 1e-300
    rel = _max_abs(fresh - stored) / den / MEMORY_TOL
    return AuditResult(ok=rel <= 1.0, rel=rel,
                       detail=f"column sums off by {rel:.2e}x tolerance"
                       if rel > 1.0 else "clean")


# -- seeded bit-flip injection ---------------------------------------------

#: Chaos seam: which pipeline stage the injector corrupts.
ENV_BITFLIP_TARGET = "REPRO_CHAOS_BITFLIP_TARGET"
#: Number of bits to flip (default 1).
ENV_BITFLIP_COUNT = "REPRO_CHAOS_BITFLIP_COUNT"
#: RNG seed for the flip positions (default 0). Also part of the
#: one-shot key, so distinct seeds re-arm pooled workers.
ENV_BITFLIP_SEED = "REPRO_CHAOS_BITFLIP_SEED"
#: Victim subdomain for subdomain-scoped targets (lu, transport);
#: default 0.
ENV_BITFLIP_SUBDOMAIN = "REPRO_CHAOS_BITFLIP_SUBDOMAIN"

# one-shot registry: (target, subdomain, seed, count) that already fired
# in this process. Workers in a shared pool keep their copy — chaos
# drills vary the seed per leg to re-arm them.
_FIRED: set = set()


def reset_bitflip_state() -> None:
    """Forget which seams fired (test/drill isolation, this process)."""
    _FIRED.clear()


@dataclass
class BitflipSeam:
    """Parsed ``REPRO_CHAOS_BITFLIP_*`` environment."""

    target: str
    count: int = 1
    seed: int = 0
    subdomain: int = 0

    def key(self, subdomain) -> tuple:
        return (self.target, subdomain, self.seed, self.count)


def bitflip_seam() -> BitflipSeam | None:
    """Parse the bit-flip seam from the environment (None when unset).
    Malformed values raise a ``ValueError`` naming the variable
    (parsed through the :mod:`repro.envcfg` registry)."""
    target = envcfg.get(ENV_BITFLIP_TARGET)
    if target is None:
        return None
    return BitflipSeam(
        target=target,
        count=envcfg.get(ENV_BITFLIP_COUNT),
        seed=envcfg.get(ENV_BITFLIP_SEED),
        subdomain=envcfg.get(ENV_BITFLIP_SUBDOMAIN))


def validate_bitflip_env() -> None:
    """Fail fast on malformed ``REPRO_CHAOS_BITFLIP_*`` values (part of
    the parent-side chaos env validation)."""
    bitflip_seam()


def bitflip_armed(target: str, subdomain: int | None = None) -> bool:
    """True when the seam targets this call site and has not fired yet
    in this process."""
    seam = bitflip_seam()
    if seam is None or seam.target != target:
        return False
    if subdomain is not None and seam.subdomain != subdomain:
        return False
    return seam.key(subdomain) not in _FIRED


# exponent bits tried for each flip, highest impact first; bit 62 is
# skipped because it can take a normal value straight to Inf/NaN (a
# *loud* corruption — we are drilling the silent kind).
_FLIP_BITS = (57, 58, 56, 55, 54, 53)


def _flip_element(arr: np.ndarray, idx: int) -> tuple[int, float, float]:
    """Flip one exponent bit of ``arr[idx]`` in place, choosing the
    first candidate bit that yields a finite, representable value.
    Returns (bit, old, new)."""
    bits = arr[idx:idx + 1].view(np.uint64)
    old = float(arr[idx])
    for bit in _FLIP_BITS:
        flipped = bits[0] ^ np.uint64(1 << bit)
        cand = np.array([flipped], dtype=np.uint64).view(np.float64)[0]
        if np.isfinite(cand) and abs(cand) < 1e300:
            bits[0] = flipped
            return bit, old, float(arr[idx])
    return -1, old, old


def flip_bits(arrays, *, rng: np.random.Generator,
              count: int = 1) -> list[tuple[int, int, int, float, float]]:
    """Flip ``count`` exponent bits across the given float64 arrays,
    in place. Victim elements are the largest-magnitude entries (so a
    single flip is always a normwise-visible corruption — the drills
    must be deterministic, not lucky). A C-ordered block (the iterate
    of a block Krylov run) is flipped through its flat view. Returns
    ``(array_index, flat_element_index, bit, old, new)`` records."""
    pool = [(i, a.reshape(-1)) for i, a in enumerate(arrays)
            if a is not None and a.size > 0 and a.dtype == np.float64]
    records = []
    if not pool:
        return records
    for flip in range(count):
        ai, arr = pool[int(rng.integers(0, len(pool)))]
        order = np.argsort(-np.abs(arr), kind="stable")
        idx = int(order[flip % arr.size])
        bit, old, new = _flip_element(arr, idx)
        if bit >= 0:
            records.append((ai, idx, bit, old, new))
    return records


def maybe_bitflip(target: str, arrays, *,
                  subdomain: int | None = None) -> int:
    """Fire the bit-flip seam if it is armed for this site: corrupt the
    given arrays in place (one-shot per process per seam key). Returns
    the number of flips applied. Injection is independent of the
    ``abft`` mode — corruption does not care whether defenses are on."""
    seam = bitflip_seam()
    if seam is None or seam.target != target:
        return 0
    if subdomain is not None and seam.subdomain != subdomain:
        return 0
    key = seam.key(subdomain)
    if key in _FIRED:
        return 0
    _FIRED.add(key)
    rng = np.random.default_rng(seam.seed)
    return len(flip_bits(arrays, rng=rng, count=seam.count))


# -- transport corruption (process-backend payloads) ------------------------

def _collect_float_arrays(obj, out: list, seen: set) -> None:
    oid = id(obj)
    if oid in seen:
        return
    seen.add(oid)
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.size > 0:
            out.append(obj)
        return
    if sp.issparse(obj):
        _collect_float_arrays(obj.data, out, seen)
        return
    if isinstance(obj, dict):
        for v in obj.values():
            _collect_float_arrays(v, out, seen)
        return
    if isinstance(obj, (list, tuple)):
        for v in obj:
            _collect_float_arrays(v, out, seen)
        return
    d = getattr(obj, "__dict__", None)
    if d is not None:
        for v in d.values():
            _collect_float_arrays(v, out, seen)


def maybe_corrupt_transport(value, *, subdomain: int | None = None):
    """Fire the transport bit-flip seam if armed for this payload:
    return a corrupted deep copy of ``value`` to put on the wire (the
    caller ships it under the digest of the *original*), or None when
    the seam is idle. One-shot per process per seam key."""
    seam = bitflip_seam()
    if seam is None or seam.target != "transport":
        return None
    if subdomain is not None and seam.subdomain != subdomain:
        return None
    key = seam.key(subdomain)
    if key in _FIRED:
        return None
    corrupted = corrupt_shipped_value(value, seam)
    if corrupted is not None:
        _FIRED.add(key)
    return corrupted


def corrupt_shipped_value(value, seam: BitflipSeam):
    """Return a deep copy of a task result with one payload bit flipped
    — the transport-corruption model: the bytes on the wire differ from
    the bytes the worker hashed. Returns None when the value carries no
    float64 payload to corrupt."""
    clone = pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    arrays: list = []
    _collect_float_arrays(clone, arrays, set())
    if not arrays:
        return None
    rng = np.random.default_rng(seam.seed)
    flipped = flip_bits(arrays, rng=rng, count=seam.count)
    return clone if flipped else None
