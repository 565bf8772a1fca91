"""Integrity-checked checkpoint/restart for the PDSLin pipeline.

Long domain-decomposition factorizations lose everything on an
interrupt; this module snapshots solver state at stage boundaries so a
killed solve resumes where it stopped — and, because every restored
artifact round-trips bit-exactly, produces a **byte-identical** result
to an uninterrupted run (proven by the ``resume-parity`` and
``restart`` scenarios of ``python -m repro.smoke``).

On-disk format (one directory per checkpoint):

- ``manifest.json`` — version, the checkpoint *identity* (blake2b
  fingerprints of the input matrix and the solver config, plus ``k``
  and the seed), the list of completed subdomains, and one entry per
  shard: file name, byte length and blake2b digest of the file bytes.
- ``*.npz`` shards — ``partition.npz`` (the DBBD part vector),
  ``sub_NNNN.npz`` per completed subdomain (ordering permutation, LU
  factors with the SuperLU handle stripped — the PR-5 pickling
  machinery — interface solutions G~/W~ᵀ, the local Schur update T~,
  padding stats), and ``schur.npz`` (assembled S~ + the effective drop
  tolerances and preconditioner mode).

Writes are atomic (temp file + ``os.replace``, manifest written last),
so a kill mid-snapshot leaves the previous consistent state. Loads
verify every shard digest against the manifest before unpacking;
corruption or truncation raises :class:`CheckpointError` instead of
resuming from poisoned state.

Cadence: :class:`CheckpointManager` flushes after every completed
subdomain and at the Schur boundary, and its armed SIGTERM handler
flushes whatever is still pending, restores the previous handler and
re-raises the signal so the process still dies with the honest exit
status. The ``REPRO_CHECKPOINT_KILL_AFTER_SUBDOMAIN`` chaos seam
SIGTERMs the process right after a chosen subdomain registers,
exercising the signal-snapshot path end to end (used by the
``restart`` drill).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np
import scipy.sparse as sp

from repro import envcfg
from repro.obs.tracer import NULL_TRACER
from repro.resilience.errors import CheckpointError

__all__ = [
    "CheckpointManager", "CheckpointState",
    "load_checkpoint", "truncate_checkpoint", "matrix_fingerprint",
    "config_fingerprint", "pack_sparse", "unpack_sparse",
    "MANIFEST_NAME", "CHECKPOINT_VERSION", "ENV_KILL_AFTER",
]

CHECKPOINT_VERSION = 1
MANIFEST_NAME = "manifest.json"
#: Chaos seam: when set to an integer ℓ, the process SIGTERMs itself
#: right after subdomain ℓ registers with the checkpoint manager —
#: the armed signal handler snapshots, then the process dies.
ENV_KILL_AFTER = "REPRO_CHECKPOINT_KILL_AFTER_SUBDOMAIN"

_DIGEST_SIZE = 16


def _env_kill_after() -> Optional[int]:
    return envcfg.get(ENV_KILL_AFTER)


# -- fingerprints ----------------------------------------------------------

def matrix_fingerprint(A: sp.spmatrix) -> str:
    """blake2b over the CSR structure+values of ``A`` — the identity a
    checkpoint is bound to. Two matrices with the same pattern and
    values (same dtype) fingerprint identically."""
    A = A.tocsr()
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    h.update(np.asarray(A.shape, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(A.indptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(A.indices, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(A.data, dtype=np.float64).tobytes())
    return h.hexdigest()


#: Config fields that only steer the *solve* phase of an already-set-up
#: solver (multi-RHS Krylov seeding / block-GMRES mode). Checkpoints
#: capture setup state only, so these are excluded from the identity:
#: a checkpoint written under one solve mode resumes bit-exactly under
#: any other, and configs predating the fields keep their fingerprints.
SOLVE_PHASE_FIELDS = frozenset({"krylov_seed", "block_gmres"})


def config_fingerprint(cfg) -> str:
    """blake2b over the sorted field/value repr of a config dataclass.
    Any knob change (drop tolerances, ordering, k, seed, ...) changes
    the fingerprint and invalidates old checkpoints — except the
    solve-phase-only fields of :data:`SOLVE_PHASE_FIELDS`, which do not
    touch checkpointed state."""
    import dataclasses
    items = sorted((k, v) for k, v in dataclasses.asdict(cfg).items()
                   if k not in SOLVE_PHASE_FIELDS)
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    h.update(repr(items).encode())
    return h.hexdigest()


# -- sparse (de)serialization ----------------------------------------------

def pack_sparse(out: Dict[str, np.ndarray], name: str,
                M: sp.spmatrix) -> None:
    """Flatten one CSR/CSC matrix into ``out`` under ``name:*`` keys.
    The native format is kept so the round trip is exact and cheap."""
    if sp.isspmatrix_csc(M):
        fmt = "csc"
    else:
        M = M.tocsr()
        fmt = "csr"
    out[f"{name}:fmt"] = np.array(fmt)
    out[f"{name}:shape"] = np.asarray(M.shape, dtype=np.int64)
    out[f"{name}:data"] = M.data
    out[f"{name}:indices"] = M.indices
    out[f"{name}:indptr"] = M.indptr


def unpack_sparse(z, name: str) -> sp.spmatrix:
    """Rebuild a matrix packed by :func:`pack_sparse` from npz ``z``."""
    fmt = str(z[f"{name}:fmt"])
    cls = sp.csc_matrix if fmt == "csc" else sp.csr_matrix
    return cls((z[f"{name}:data"], z[f"{name}:indices"],
                z[f"{name}:indptr"]),
               shape=tuple(int(d) for d in z[f"{name}:shape"]))


# -- shard I/O -------------------------------------------------------------

def _shard_bytes(arrays: Dict[str, np.ndarray]) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _atomic_write(path: Path, payload: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def _write_shard(directory: Path, fname: str,
                 arrays: Dict[str, np.ndarray]) -> dict:
    payload = _shard_bytes(arrays)
    digest = hashlib.blake2b(payload,
                             digest_size=_DIGEST_SIZE).hexdigest()
    _atomic_write(directory / fname, payload)
    return {"file": fname, "blake2b": digest, "bytes": len(payload)}


def subdomain_shard_name(ell: int) -> str:
    return f"sub_{ell:04d}"


# -- manager ---------------------------------------------------------------

class CheckpointManager:
    """Owns one checkpoint directory: registration, flushing, signals.

    Shards register as *pending* (``register_partition`` /
    ``register_subdomain`` / ``register_schur``) and hit disk on
    ``snapshot()`` — after each subdomain and at the Schur boundary,
    from the armed signal handler, or explicitly. A shard already on
    disk (same name, e.g. when resuming into the directory the
    checkpoint came from) is never rewritten; registration is
    idempotent, so the writer path needs no deduplication logic.
    """

    def __init__(self, directory, *, tracer=NULL_TRACER):
        self.directory = Path(directory)
        self.tracer = tracer
        self._identity: dict | None = None
        self._pending: Dict[str, Dict[str, np.ndarray]] = {}
        self._written: Dict[str, dict] = {}
        self._done_subdomains: list[int] = []
        self._partition_done = False
        self._schur_done = False
        self._state: dict = {}
        self._prev_handlers: dict = {}
        self._kill_after = _env_kill_after()

    # -- identity ----------------------------------------------------------

    def bind(self, *, matrix_fp: str, config_fp: str, k: int,
             seed) -> None:
        """Bind the manager to one (matrix, config) identity.

        When the directory already holds a valid checkpoint with the
        same identity, its shards are adopted (resume-and-continue
        writes only the new ones); anything else starts fresh.
        """
        identity = {"matrix_blake2b": matrix_fp,
                    "config_blake2b": config_fp,
                    "k": int(k), "seed": repr(seed)}
        self._identity = identity
        self._pending.clear()
        self._written.clear()
        self._done_subdomains = []
        self._partition_done = False
        self._schur_done = False
        self._state = {}
        try:
            existing = load_checkpoint(self.directory)
        except CheckpointError:
            return
        if existing.manifest.get("identity") != identity:
            return
        self._written = dict(existing.manifest["shards"])
        self._done_subdomains = [int(e) for e in
                                 existing.manifest["subdomains_done"]]
        self._partition_done = bool(
            existing.manifest.get("partition_done"))
        self._schur_done = bool(existing.manifest.get("schur_done"))
        self._state = dict(existing.manifest.get("state", {}))

    def _require_bound(self) -> dict:
        if self._identity is None:
            raise CheckpointError("CheckpointManager.bind() must run "
                                  "before registering or snapshotting")
        return self._identity

    # -- registration ------------------------------------------------------

    def _register(self, name: str,
                  arrays: "Dict[str, np.ndarray] | Callable[[], dict]",
                  ) -> bool:
        """Queue one shard unless it is already pending or on disk.
        ``arrays`` may be a thunk, evaluated only when actually needed
        (restored subdomains re-register for free)."""
        self._require_bound()
        if name in self._written or name in self._pending:
            return False
        self._pending[name] = arrays() if callable(arrays) else arrays
        return True

    def register_partition(self, part: np.ndarray) -> None:
        """The DBBD part vector — everything else derives from it."""
        if self._register("partition",
                          {"part": np.asarray(part, dtype=np.int64)}):
            self._partition_done = True

    def register_subdomain(self, ell: int,
                           arrays: "Dict[str, np.ndarray] | Callable[[], dict]",
                           ) -> None:
        """One completed subdomain (LU + Comp accepted by the parent).
        Flushes it, then applies the chaos kill seam."""
        if self._register(subdomain_shard_name(ell), arrays):
            self._done_subdomains.append(int(ell))
            self.snapshot()
        if self._kill_after is not None and int(ell) == self._kill_after:
            # chaos seam: die by SIGTERM so the armed handler (or the
            # default: plain death, losing pending work) runs for real
            os.kill(os.getpid(), signal.SIGTERM)

    def register_schur(self, arrays, *, state: dict | None = None) -> None:
        """The assembled Schur complement — the setup-complete boundary."""
        if state:
            self._state.update(state)
        if self._register("schur", arrays):
            self._schur_done = True
            self.snapshot()

    # -- snapshotting ------------------------------------------------------

    def snapshot(self) -> Path:
        """Flush pending shards + the manifest (atomically, manifest
        last). Returns the manifest path."""
        identity = self._require_bound()
        with self.tracer.span("checkpoint_write",
                              shards=len(self._pending)):
            self.directory.mkdir(parents=True, exist_ok=True)
            for name in sorted(self._pending):
                entry = _write_shard(self.directory, name + ".npz",
                                     self._pending[name])
                self._written[name] = entry
                self.tracer.count("checkpoint_shards_written")
                self.tracer.count("noise:checkpoint_bytes",
                                  entry["bytes"])
            self._pending.clear()
            manifest = {
                "version": CHECKPOINT_VERSION,
                "kind": "pdslin-checkpoint",
                "identity": identity,
                "shards": self._written,
                "subdomains_done": sorted(self._done_subdomains),
                "partition_done": self._partition_done,
                "schur_done": self._schur_done,
                "state": self._state,
                "written_at": time.time(),
            }
            _atomic_write(self.directory / MANIFEST_NAME,
                          json.dumps(manifest, indent=1).encode())
        self.tracer.count("checkpoint_snapshots")
        return self.directory / MANIFEST_NAME

    # -- signal arming -----------------------------------------------------

    def arm(self) -> None:
        """Install the snapshot-on-SIGTERM handler (main thread only;
        a no-op elsewhere)."""
        if self._prev_handlers:
            return
        if threading.current_thread() is not threading.main_thread():
            return
        try:
            self._prev_handlers[signal.SIGTERM] = signal.signal(
                signal.SIGTERM, self._on_signal)
        except (ValueError, OSError):  # pragma: no cover - exotic hosts
            self._prev_handlers.clear()

    def disarm(self) -> None:
        """Restore the previous SIGTERM handler."""
        for sig, prev in self._prev_handlers.items():
            try:
                signal.signal(sig, prev)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._prev_handlers.clear()

    def _on_signal(self, signum, frame) -> None:
        self.snapshot()
        # re-delivering with the default handler kills the process
        # without running atexit hooks, which would orphan any pool
        # workers (fork workers inherit the parent's pipes and never
        # see EOF) — reap the shared backends first
        try:
            from repro.parallel.exec import _close_shared
            _close_shared()
        except Exception:  # pragma: no cover - never block the exit
            pass
        # restore whatever was there before and re-deliver: the process
        # still dies, with the honest signal exit status
        prev = self._prev_handlers.pop(signum, signal.SIG_DFL)
        try:
            signal.signal(signum, prev)
        except (ValueError, TypeError):  # pragma: no cover
            signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)


# -- loading ---------------------------------------------------------------

@dataclass
class CheckpointState:
    """A validated on-disk checkpoint, ready to restore from."""

    directory: Path
    manifest: dict
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def subdomains_done(self) -> list[int]:
        return [int(e) for e in self.manifest["subdomains_done"]]

    @property
    def schur_done(self) -> bool:
        return bool(self.manifest.get("schur_done"))

    @property
    def partition_done(self) -> bool:
        return bool(self.manifest.get("partition_done"))

    @property
    def state(self) -> dict:
        return dict(self.manifest.get("state", {}))

    def has_shard(self, name: str) -> bool:
        return name in self.manifest["shards"]

    def load_shard(self, name: str):
        """Read + integrity-check one shard; returns the opened npz."""
        if name in self._cache:
            return self._cache[name]
        entry = self.manifest["shards"].get(name)
        if entry is None:
            raise CheckpointError(f"checkpoint has no shard {name!r}",
                                  path=str(self.directory))
        path = self.directory / entry["file"]
        try:
            payload = path.read_bytes()
        except OSError as exc:
            raise CheckpointError(
                f"checkpoint shard {name!r} unreadable: {exc}",
                path=str(path)) from None
        digest = hashlib.blake2b(payload,
                                 digest_size=_DIGEST_SIZE).hexdigest()
        if digest != entry["blake2b"] or len(payload) != entry["bytes"]:
            raise CheckpointError(
                f"checkpoint shard {name!r} failed its blake2b "
                f"integrity check (corrupt or torn write)",
                path=str(path))
        try:
            z = np.load(io.BytesIO(payload), allow_pickle=False)
        except Exception as exc:
            raise CheckpointError(
                f"checkpoint shard {name!r} is not a readable npz: "
                f"{exc}", path=str(path)) from None
        self._cache[name] = z
        return z


def load_checkpoint(directory, *, matrix_fp: str | None = None,
                    config_fp: str | None = None,
                    k: int | None = None) -> CheckpointState:
    """Open + validate a checkpoint directory.

    Raises :class:`CheckpointError` on a missing/truncated/corrupt
    manifest, an unknown version, or — when fingerprints are given —
    an identity mismatch.
    """
    directory = Path(directory)
    mpath = directory / MANIFEST_NAME
    try:
        raw = mpath.read_text()
    except OSError as exc:
        raise CheckpointError(f"no readable checkpoint manifest: {exc}",
                              path=str(mpath)) from None
    try:
        manifest = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint manifest is truncated or corrupt: {exc}",
            path=str(mpath)) from None
    for key in ("version", "identity", "shards", "subdomains_done"):
        if key not in manifest:
            raise CheckpointError(
                f"checkpoint manifest is missing {key!r} (truncated?)",
                path=str(mpath))
    if manifest["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {manifest['version']!r} is not "
            f"supported (expected {CHECKPOINT_VERSION})", path=str(mpath))
    ident = manifest["identity"]
    if matrix_fp is not None and ident.get("matrix_blake2b") != matrix_fp:
        raise CheckpointError(
            "checkpoint belongs to a different matrix (fingerprint "
            "mismatch); refusing to resume", path=str(mpath))
    if config_fp is not None and ident.get("config_blake2b") != config_fp:
        raise CheckpointError(
            "checkpoint was written under a different solver config "
            "(fingerprint mismatch); refusing to resume", path=str(mpath))
    if k is not None and ident.get("k") != int(k):
        raise CheckpointError(
            f"checkpoint has k={ident.get('k')} but the solver wants "
            f"k={k}; refusing to resume", path=str(mpath))
    return CheckpointState(directory=directory, manifest=manifest)


def truncate_checkpoint(directory, keep_subdomains: int) -> None:
    """Rewrite the manifest as if the run had died after
    ``keep_subdomains`` completed subdomains: later subdomain shards
    and the Schur shard are dropped from the manifest (files are left
    behind — unreferenced shards are ignored by loads). Used by the
    resume-parity check and the tests to fabricate interrupted runs
    without actually killing anything."""
    state = load_checkpoint(directory)
    manifest = state.manifest
    done = sorted(int(e) for e in manifest["subdomains_done"])
    keep = set(done[:max(0, int(keep_subdomains))])
    shards = {}
    for name, entry in manifest["shards"].items():
        if name == "schur":
            continue
        if name.startswith("sub_") and int(name[4:]) not in keep:
            continue
        shards[name] = entry
    manifest["shards"] = shards
    manifest["subdomains_done"] = sorted(keep)
    manifest["schur_done"] = False
    _atomic_write(Path(directory) / MANIFEST_NAME,
                  json.dumps(manifest, indent=1).encode())
