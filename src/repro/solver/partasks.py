"""Per-subdomain setup tasks, shared by every execution backend.

The numeric bodies of the LU(D) and Comp(S) stages live here as
module-level functions so that the serial path and the process
backend of :mod:`repro.parallel.exec` execute *the same code*:
:class:`repro.solver.PDSLin` calls :func:`run_subdomain_lu` /
:func:`run_subdomain_comp` inline on the serial backend, and ships a
:class:`SubdomainTask` to :func:`run_subdomain_setup` (the picklable
worker entry point) on the process backend. Same code + fixed-order
reduction in the parent = bit-identical results on every backend.

What crosses the process boundary:

- inbound: the compressed interfaces (CSR blocks), the solver config,
  the symbolic ordering (resolved parent-side so the shared
  :class:`repro.lu.SymbolicCache` keeps working), and the drop
  tolerance to use;
- outbound: the factors (SuperLU handle stripped — the parent
  re-attaches one via :func:`repro.lu.attach_handle` using the recorded
  ``handle_thresh`` recipe), the interface solutions and local Schur
  update, the condition estimate, per-stage wall seconds, and the
  worker-local :class:`Tracer` spans/counters plus
  :class:`RecoveryReport` events for the parent to merge.

``REPRO_CHAOS_CRASH_SUBDOMAIN`` is a chaos hook: a worker asked to set
up that subdomain hard-exits, exercising the crash-failover path end to
end (used by the resilience tests and available for chaos drills).
``REPRO_CHAOS_STRAGGLE_SUBDOMAIN`` is its slow sibling: setup of that
subdomain sleeps ``REPRO_CHAOS_STRAGGLE_S`` seconds (default 0.25)
before running, exercising the deadline mitigation of
:mod:`repro.parallel.exec` on any backend. The
``REPRO_CHAOS_BITFLIP_*`` seam (:mod:`repro.resilience.abft`) with
``target=lu`` corrupts the factor data of its victim subdomain right
after factorization — silently, so only the ABFT checksum audit
(when ``cfg.abft`` enables it) can catch it before results ship. All
seams are validated up front: a malformed value raises a
``ValueError`` naming the variable.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from repro import envcfg
from repro.core.rhs_reorder import (
    hypergraph_column_order,
    natural_column_order,
    postorder_column_order,
)
from repro.lu import (
    LUFactors,
    PaddingStats,
    SupernodalLower,
    attach_handle,
    blocked_triangular_solve,
    lu_flop_count,
    partition_columns,
    solution_pattern,
)
from repro.numerics.condest import condest_from_factors
from repro.obs.tracer import NULL_TRACER, SpanRecord, Tracer
from repro.ordering import elimination_tree, minimum_degree, postorder
from repro.parallel.exec import in_worker, transport_checksum_enabled
from repro.resilience import RecoveryReport, factorize_resilient, sdc_ladder
from repro.resilience import abft
from repro.resilience.errors import SdcDetectedError
from repro.solver.interfaces import SubdomainInterfaces
from repro.sparse import symmetrized
from repro.verify.invariants import NULL_VERIFIER

__all__ = [
    "SubdomainLU", "SubdomainComp", "SubdomainTask", "SubdomainSetupResult",
    "BlockSolveTask", "BlockSolveResult", "run_block_solve",
    "factors_token", "factorize_subdomain",
    "order_subdomain", "run_subdomain_lu", "run_subdomain_comp",
    "run_subdomain_setup", "replay_subdomain_verification",
    "pack_subdomain_state", "unpack_subdomain_state", "validate_chaos_env",
    "ENV_CRASH_SUBDOMAIN", "ENV_STRAGGLE_SUBDOMAIN", "ENV_STRAGGLE_S",
]

#: Chaos hook: when set to an integer ℓ, a worker process entering
#: setup of subdomain ℓ dies with ``os._exit`` (no cleanup, simulating
#: a segfault/OOM kill). Parent-side recovery must absorb it.
ENV_CRASH_SUBDOMAIN = "REPRO_CHAOS_CRASH_SUBDOMAIN"
#: Chaos hook: setup of subdomain ℓ sleeps before doing any work —
#: a deterministic straggler for deadline drills.
ENV_STRAGGLE_SUBDOMAIN = "REPRO_CHAOS_STRAGGLE_SUBDOMAIN"
#: Straggler sleep in seconds (default 0.25).
ENV_STRAGGLE_S = "REPRO_CHAOS_STRAGGLE_S"

#: First-rung pivot threshold of every subdomain LU: 0.0 is the paper's
#: diagonal-pivoting mode, which keeps the fill-reducing ordering.
SUBDOMAIN_PIVOT_THRESH = 0.0
#: Row density at or above which the hypergraph RHS ordering sets a row
#: of ``G~`` aside as quasi-dense (paper Section V-B(c)).
QUASI_DENSE_TAU = 0.4


def _env_subdomain(name: str) -> Optional[int]:
    """A chaos env var holding a subdomain index, validated through the
    :mod:`repro.envcfg` registry."""
    return envcfg.get(name)


def _env_straggle_s() -> float:
    return envcfg.get(ENV_STRAGGLE_S)


def _chaos_hooks(ell: int) -> None:
    """The crash / straggle seams every shipped task body honors on
    entry."""
    if _env_subdomain(ENV_CRASH_SUBDOMAIN) == ell and in_worker():
        os._exit(17)  # simulated hard crash
    if _env_subdomain(ENV_STRAGGLE_SUBDOMAIN) == ell:
        time.sleep(_env_straggle_s())  # simulated straggler


def validate_chaos_env() -> None:
    """Fail fast on malformed chaos env values — called parent-side
    before work is shipped, so a typo'd variable raises one clear
    ``ValueError`` instead of k opaque task failures."""
    _env_subdomain(ENV_CRASH_SUBDOMAIN)
    _env_subdomain(ENV_STRAGGLE_SUBDOMAIN)
    _env_straggle_s()
    abft.validate_bitflip_env()
    transport_checksum_enabled()


def order_subdomain(D: sp.csr_matrix) -> np.ndarray:
    """Minimum-degree ordering followed by e-tree postorder (the
    paper's setting, Section V-B). A pure function of the pattern,
    hence cacheable."""
    base = minimum_degree(D)
    Dm = D[base][:, base].tocsr()
    parent = elimination_tree(symmetrized(Dm))
    po = postorder(parent)
    return base[po]


@dataclass
class SubdomainLU:
    """LU(D) output for one subdomain.

    ``handle_thresh`` is the handle recipe: the ``diag_pivot_thresh``
    of the SuperLU rung that produced the factors, or ``None`` when the
    static-pivoting rung (no handle in any backend) ran.
    """

    ell: int
    perm: np.ndarray
    factors: LUFactors
    flops: int
    cond: Optional[float] = None
    handle_thresh: Optional[float] = None


@dataclass
class SubdomainComp:
    """Comp(S) output for one subdomain.

    ``t_colsum`` is the ABFT column-sum checksum of ``T_tilde``
    recorded at creation (None with ``abft=off``); the parent verifies
    it before assembling S̃, catching corruption of the local Schur
    update anywhere between the worker and assembly.
    """

    ell: int
    G_tilde: sp.csc_matrix
    WT_tilde: sp.csc_matrix
    T_tilde: sp.csr_matrix
    padding_G: PaddingStats
    padding_W: PaddingStats
    ops: int
    drop_tol: float
    t_colsum: Optional[np.ndarray] = None


@dataclass
class SubdomainTask:
    """One shipped unit of setup work (always LU-then-Comp order).

    ``lu`` carries a precomputed LU part for comp-only re-runs (the
    speculative drop-tolerance round 2); ``run_comp`` is False when the
    fault plan already failed Comp(S) over to the root.
    """

    ell: int
    interfaces: SubdomainInterfaces
    cfg: object                      # PDSLinConfig (picklable dataclass)
    separator_size: int
    drop_interface: float
    perm: Optional[np.ndarray] = None
    lu: Optional[SubdomainLU] = None
    run_comp: bool = True
    trace: bool = False


@dataclass
class SubdomainSetupResult:
    """Worker return value: results plus the artifacts to merge."""

    ell: int
    lu: Optional[SubdomainLU] = None
    comp: Optional[SubdomainComp] = None
    events: list = field(default_factory=list)     # RecoveryEvent
    perturbed_pivots: int = 0
    lu_wall_s: float = 0.0
    comp_wall_s: float = 0.0
    lu_spans: List[SpanRecord] = field(default_factory=list)
    lu_counters: dict = field(default_factory=dict)
    comp_spans: List[SpanRecord] = field(default_factory=list)
    comp_counters: dict = field(default_factory=dict)


def run_subdomain_lu(sub: SubdomainInterfaces, cfg, *, ell: int,
                     separator_size: int, perm: np.ndarray | None = None,
                     report: RecoveryReport | None = None,
                     tracer: Tracer = NULL_TRACER,
                     verifier=NULL_VERIFIER) -> SubdomainLU:
    """The LU(D) body: order, factor through the pivoting ladder,
    estimate the condition number. Identical on every backend."""
    if report is None:
        report = RecoveryReport()
    with tracer.span("factor_subdomain", l=ell):
        verifier.after_interfaces(sub, separator_size)
        if perm is None:
            perm = order_subdomain(sub.D)
        Dp = sub.permuted_D(perm)
        # the pivoting ladder: threshold -> full -> static perturbation
        # (records its own recovery events on `report`)
        factors, handle_thresh = factorize_subdomain(
            Dp, cfg, stage="LU(D)", ell=ell, report=report, tracer=tracer)
        verifier.after_subdomain_lu(ell, Dp, factors)
        # chaos seam fires regardless of the abft mode — corruption
        # does not care whether the defenses are on
        abft.maybe_bitflip("lu", (factors.L.data, factors.U.data),
                           subdomain=ell)
        if abft.abft_detect(cfg.abft):
            factors, handle_thresh = _audit_subdomain_factors(
                Dp, factors, cfg, ell=ell, handle_thresh=handle_thresh,
                report=report, tracer=tracer)
        flops = lu_flop_count(factors)
        tracer.count("subdomain_dim", int(sub.D.shape[0]))
        tracer.count("subdomain_nnz", int(sub.D.nnz))
        cond = None
        if cfg.condest:
            cond = condest_from_factors(Dp, factors)
            tracer.count("cond_est_subdomain", cond)
    return SubdomainLU(ell=ell, perm=perm, factors=factors, flops=flops,
                       cond=cond, handle_thresh=handle_thresh)


def factorize_subdomain(Dp, cfg, *, stage: str, ell: int,
                        report: RecoveryReport, tracer: Tracer):
    """A subdomain's pristine permuted block through the pivoting
    ladder, with the ABFT checksums attached when ``cfg.abft`` arms
    them: the first factorization, and the repair of both factor
    audits (LU(D) here, the solve-phase sweep in the solver). Returns
    ``(factors, handle_thresh)``."""
    factors, handle_thresh = factorize_resilient(
        Dp, diag_pivot_thresh=SUBDOMAIN_PIVOT_THRESH, stage=stage,
        subdomain=ell, report=report, tracer=tracer)
    if abft.abft_detect(cfg.abft):
        abft.attach_factor_checksums(factors, Dp)
    return factors, handle_thresh


def _audit_subdomain_factors(Dp, factors, cfg, *, ell, handle_thresh,
                             report, tracer):
    """The worker-side ABFT audit of freshly produced factors, run
    before results ship (and on the serial path, before they are
    used). Repair refactorizes *this subdomain only* from the pristine
    ``Dp`` and re-verifies; factors that fail even then raise."""
    recover = abft.abft_recover(cfg.abft)
    with tracer.span("abft_verify", stage="LU(D)", l=ell):
        tracer.count("sdc_checks")
        audit = abft.verify_factors(factors)
        if audit.ok:
            return factors, handle_thresh
        err = SdcDetectedError(
            f"subdomain LU factor checksum violated: {audit.detail}",
            site="lu", rel=audit.rel, stage="LU(D)", subdomain=ell)

        def repair():
            nonlocal factors, handle_thresh, audit
            with tracer.span("recover", stage="LU(D)",
                             action="sdc-refactorize"):
                factors, handle_thresh = factorize_subdomain(
                    Dp, cfg, stage="LU(D)", ell=ell, report=report,
                    tracer=tracer)
                tracer.count("sdc_checks")
                audit = abft.verify_factors(factors)
            return None if audit.ok else \
                "refactorized subdomain still fails verification"

        repaired = sdc_ladder(
            tracer, report, "LU(D)", [(err, audit.detail, ell)],
            recover=recover, repair=repair,
            unrepaired="abft=detect: corruption reported but not repaired; "
                       "factors may be corrupt",
            recovered="subdomain refactorized in place from its pristine "
                      "interface matrix")
        if recover and not repaired:
            raise SdcDetectedError(
                f"subdomain {ell} fails factor verification even after "
                f"refactorization: {audit.detail}",
                site="lu", rel=audit.rel, stage="LU(D)", subdomain=ell)
        return factors, handle_thresh


def _column_order(cfg, E_rows_factored: sp.csr_matrix,
                  G_pattern: sp.csr_matrix, tracer: Tracer) -> np.ndarray:
    m = E_rows_factored.shape[1]
    if cfg.rhs_ordering == "natural" or m <= cfg.block_size:
        return natural_column_order(max(m, 1))[:m]
    if cfg.rhs_ordering == "postorder":
        return postorder_column_order(E_rows_factored)
    res = hypergraph_column_order(G_pattern, cfg.block_size,
                                  tau=QUASI_DENSE_TAU, seed=cfg.seed,
                                  tracer=tracer)
    return res.order


def _solve_interface(cfg, snl: SupernodalLower, B_sparse: sp.csr_matrix,
                     L_like: sp.csc_matrix, drop_tol: float,
                     tracer: Tracer):
    """Blocked triangular solve of one interface block (already in
    factored row positions). The symbolic pattern uses the e-tree
    fill-path model (paper Section IV-A) — a safe superset of the exact
    reach, far cheaper on large interfaces."""
    Gpat = solution_pattern(L_like, B_sparse, method="etree")
    order = _column_order(cfg, B_sparse, Gpat, tracer)
    parts = partition_columns(order, cfg.block_size)
    res = blocked_triangular_solve(snl, B_sparse, Gpat, parts,
                                   drop_tol=drop_tol, tracer=tracer)
    return res.X, res.padding


def run_subdomain_comp(sub: SubdomainInterfaces, cfg, lu: SubdomainLU, *,
                       drop_tol: float, tracer: Tracer = NULL_TRACER,
                       verifier=NULL_VERIFIER) -> SubdomainComp:
    """The Comp(S) body: blocked interface solves G = L^-1 P E^ and
    W^T = U^-T (F^ P~)^T plus the local update T~ = W~^T G~."""
    factors, perm = lu.factors, lu.perm
    with tracer.span("interface_solve", l=lu.ell):
        # G = L^{-1} P E^
        Epp = factors.permute_rows(sub.E_hat[perm].tocsr())
        snl_L = SupernodalLower.from_csc(factors.L, unit_diagonal=True)
        G_tilde, pad_G = _solve_interface(cfg, snl_L, Epp, factors.L,
                                          drop_tol, tracer)
        verifier.after_interface_solve(factors.L, Epp, G_tilde, drop_tol)
        # W^T = U^{-T} (F^ P~)^T ; U^T is lower triangular, non-unit
        Fc = sub.F_hat[:, perm].tocsr()[:, factors.perm_c].tocsr()
        UT = factors.U.T.tocsc()
        snl_U = SupernodalLower.from_csc(UT, unit_diagonal=False)
        WT_tilde, pad_W = _solve_interface(cfg, snl_U, Fc.T.tocsr(), UT,
                                           drop_tol, tracer)
        verifier.after_interface_solve(UT, Fc.T.tocsr(), WT_tilde, drop_tol)
        T_tilde = (WT_tilde.T @ G_tilde).tocsr()
        ops = pad_G.total_block_entries * 2 + pad_W.total_block_entries * 2
        t_colsum = None
        if abft.abft_detect(getattr(cfg, "abft", "off")):
            # contribution checksum, verified parent-side before S̃
            # assembly (catches corruption between here and there)
            t_colsum = abft.checksum_matrix(T_tilde)
    return SubdomainComp(ell=lu.ell, G_tilde=G_tilde, WT_tilde=WT_tilde,
                         T_tilde=T_tilde, padding_G=pad_G, padding_W=pad_W,
                         ops=ops, drop_tol=drop_tol, t_colsum=t_colsum)


def run_subdomain_setup(task: SubdomainTask) -> SubdomainSetupResult:
    """Worker entry point: LU (unless precomputed) then Comp, each
    under a local tracer whose spans/counters ship back separately so
    the parent can merge exactly the parts it accepts."""
    _chaos_hooks(task.ell)
    out = SubdomainSetupResult(ell=task.ell)
    report = RecoveryReport()
    lu = task.lu
    if lu is None:
        tracer = Tracer() if task.trace else NULL_TRACER
        t0 = time.perf_counter()
        lu = run_subdomain_lu(task.interfaces, task.cfg, ell=task.ell,
                              separator_size=task.separator_size,
                              perm=task.perm, report=report, tracer=tracer)
        out.lu_wall_s = time.perf_counter() - t0
        out.lu = lu
        if task.trace:
            out.lu_spans = list(tracer.spans)
            out.lu_counters = dict(tracer.counters)
    if task.run_comp:
        tracer = Tracer() if task.trace else NULL_TRACER
        t0 = time.perf_counter()
        comp = run_subdomain_comp(task.interfaces, task.cfg, lu,
                                  drop_tol=task.drop_interface,
                                  tracer=tracer)
        out.comp_wall_s = time.perf_counter() - t0
        out.comp = comp
        if task.trace:
            out.comp_spans = list(tracer.spans)
            out.comp_counters = dict(tracer.counters)
    out.events = list(report.events)
    out.perturbed_pivots = report.perturbed_pivots
    return out


# -- batched multi-RHS solve tasks ------------------------------------------
#
# The solve phase of PDSLin.solve_block ships ONE task per subdomain
# carrying the whole (n_l, nrhs) right-hand-side block: pickling, the
# sealed-transport digest, and the worker round trip amortize over the
# block instead of being paid per column. The worker runs the exact
# solve primitive the serial path runs (LUFactors.solve on a 2-D
# block, columnwise bit-identical to per-column solves), so bit-parity
# across backends holds by the same argument as for setup tasks.

@dataclass
class BlockSolveTask:
    """One shipped unit of batched triangular-solve work.

    ``rhs`` is the (n_l, nrhs) block already in factored (permuted)
    row order. ``Dp``/``handle_thresh`` are the SuperLU handle recipe:
    factors pickle handle-less, so the worker re-attaches one via
    :func:`repro.lu.attach_handle` (bit-identical by its pivot
    cross-check contract), memoized process-wide under ``token`` so
    repeated fan-outs against the same factors skip the refactorization.
    ``handle_thresh=None`` means the static-pivot rung produced the
    factors — no handle exists on any backend and the explicit
    triangular-solve path runs everywhere.
    """

    ell: int
    rhs: np.ndarray
    factors: LUFactors
    Dp: Optional[sp.csc_matrix] = None
    handle_thresh: Optional[float] = None
    token: str = ""


@dataclass
class BlockSolveResult:
    """Worker return value: the solution block plus the worker-local
    ABFT solve-audit counters for the parent to fold into the factor
    checksums (shipped explicitly — the worker's checksum object is a
    pickled copy the parent never sees)."""

    ell: int
    X: np.ndarray
    wall_s: float = 0.0
    audit_checks: int = 0
    audit_violations: int = 0
    audit_worst_rel: float = 0.0
    audit_detail: str = ""


def factors_token(factors: LUFactors) -> str:
    """Identity of a factor pair for the worker-side handle cache:
    blake2b over the factor values and permutations. Any refactorization
    (SDC recovery, update_matrix) changes the token and misses the
    cache."""
    import hashlib
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(factors.L.data).tobytes())
    h.update(np.ascontiguousarray(factors.U.data).tobytes())
    h.update(np.ascontiguousarray(factors.perm_r).tobytes())
    h.update(np.ascontiguousarray(factors.perm_c).tobytes())
    return h.hexdigest()


#: Worker-process handle cache: token -> SuperLU handle. Bounded FIFO;
#: entries outlive one ``map`` call, so the repeated solve-phase
#: fan-outs of a block solve (forward, backward, refinement sweeps)
#: attach each subdomain's handle once per worker instead of once per
#: fan-out.
_HANDLE_CACHE: dict = {}
_HANDLE_CACHE_MAX = 64


def _cached_handle(task: BlockSolveTask):
    handle = _HANDLE_CACHE.get(task.token)
    if handle is not None:
        return handle
    if task.Dp is None:
        return None
    attach_handle(task.factors, task.Dp,
                  diag_pivot_thresh=task.handle_thresh)
    handle = task.factors.handle
    if len(_HANDLE_CACHE) >= _HANDLE_CACHE_MAX:
        _HANDLE_CACHE.pop(next(iter(_HANDLE_CACHE)))
    _HANDLE_CACHE[task.token] = handle
    return handle


def run_block_solve(task: BlockSolveTask) -> BlockSolveResult:
    """Worker entry point for one subdomain's batched triangular solve
    (both the forward ``D^{-1} f`` and backward ``D^{-1} E y`` passes
    ship through here). Honors the same chaos crash/straggle hooks as
    setup tasks."""
    _chaos_hooks(task.ell)
    factors = task.factors
    if factors.handle is None and task.handle_thresh is not None:
        factors.handle = _cached_handle(task)
    # the factors are this worker's unpickled copy, but they carry the
    # counters the parent had folded when it pickled them (the backward
    # pass ships factors the forward pass already audited): count this
    # solve's audits alone, for the parent to fold
    cs = factors.checksums
    if cs is not None:
        cs.reset_counters()
    t0 = time.perf_counter()
    X = factors.solve(task.rhs)
    wall = time.perf_counter() - t0
    out = BlockSolveResult(ell=task.ell, X=X, wall_s=wall)
    if cs is not None:
        out.audit_checks = cs.checks
        out.audit_violations = cs.violations
        out.audit_worst_rel = cs.worst_rel
        out.audit_detail = cs.last_detail
    return out


def replay_subdomain_verification(sub: SubdomainInterfaces, cfg,
                                  lu: SubdomainLU,
                                  comp: Optional[SubdomainComp], *,
                                  verifier, separator_size: int) -> None:
    """Run the ``verify=`` invariant hooks on a *reassembled* worker
    result. Workers run with a null verifier (hooks are stateful and
    root-owned); the parent replays them here over the shipped-back
    matrices so parallel runs keep exactly the serial guarantees."""
    if not verifier.enabled:
        return
    verifier.after_interfaces(sub, separator_size)
    perm, factors = lu.perm, lu.factors
    verifier.after_subdomain_lu(lu.ell, sub.permuted_D(perm), factors)
    if comp is not None:
        Epp = factors.permute_rows(sub.E_hat[perm].tocsr())
        verifier.after_interface_solve(factors.L, Epp, comp.G_tilde,
                                       comp.drop_tol)
        Fc = sub.F_hat[:, perm].tocsr()[:, factors.perm_c].tocsr()
        UT = factors.U.T.tocsc()
        verifier.after_interface_solve(UT, Fc.T.tocsr(), comp.WT_tilde,
                                       comp.drop_tol)


# -- checkpoint (de)serialization ------------------------------------------
#
# One completed subdomain -> one flat dict of numpy arrays (an npz
# shard of repro.resilience.checkpoint). Everything round-trips
# bit-exactly: the arrays are stored raw, optional scalars carry an
# explicit presence flag, and the SuperLU handle is (as across process
# boundaries) not stored — the parent re-attaches one deterministically
# via attach_handle using the recorded handle_thresh recipe.

def _pack_padding(out: dict, name: str, pad: PaddingStats) -> None:
    out[f"{name}:totals"] = np.asarray(
        [pad.total_padded, pad.total_block_entries], dtype=np.int64)
    out[f"{name}:per_part_padded"] = np.asarray(pad.per_part_padded,
                                                dtype=np.int64)
    out[f"{name}:per_part_entries"] = np.asarray(pad.per_part_entries,
                                                 dtype=np.int64)


def _unpack_padding(z, name: str) -> PaddingStats:
    totals = z[f"{name}:totals"]
    return PaddingStats(
        total_padded=int(totals[0]), total_block_entries=int(totals[1]),
        per_part_padded=tuple(int(v) for v in
                              z[f"{name}:per_part_padded"]),
        per_part_entries=tuple(int(v) for v in
                               z[f"{name}:per_part_entries"]))


def pack_subdomain_state(lu: SubdomainLU, comp: SubdomainComp) -> dict:
    """Flatten one accepted (LU, Comp) pair into npz-ready arrays."""
    from repro.resilience.checkpoint import pack_sparse
    out: dict = {
        "ell": np.int64(lu.ell),
        "perm": np.asarray(lu.perm, dtype=np.int64),
        "flops": np.int64(lu.flops),
        "has_cond": np.int64(lu.cond is not None),
        "cond": np.float64(lu.cond if lu.cond is not None else 0.0),
        "has_handle_thresh": np.int64(lu.handle_thresh is not None),
        "handle_thresh": np.float64(
            lu.handle_thresh if lu.handle_thresh is not None else 0.0),
        "perm_r": np.asarray(lu.factors.perm_r, dtype=np.int64),
        "perm_c": np.asarray(lu.factors.perm_c, dtype=np.int64),
        "ops": np.int64(comp.ops),
        "drop_tol": np.float64(comp.drop_tol),
        "t_colsum": (np.asarray(comp.t_colsum, dtype=np.float64)
                     if comp.t_colsum is not None
                     else np.empty(0, dtype=np.float64)),
    }
    pack_sparse(out, "L", lu.factors.L)
    pack_sparse(out, "U", lu.factors.U)
    pack_sparse(out, "G_tilde", comp.G_tilde)
    pack_sparse(out, "WT_tilde", comp.WT_tilde)
    pack_sparse(out, "T_tilde", comp.T_tilde)
    _pack_padding(out, "padding_G", comp.padding_G)
    _pack_padding(out, "padding_W", comp.padding_W)
    return out


def unpack_subdomain_state(z) -> tuple[SubdomainLU, SubdomainComp]:
    """Rebuild the (LU, Comp) pair from a shard written by
    :func:`pack_subdomain_state`. The factors come back without a
    SuperLU handle (``handle_thresh`` says how to re-attach one)."""
    from repro.resilience.checkpoint import unpack_sparse
    ell = int(z["ell"])
    factors = LUFactors(
        L=unpack_sparse(z, "L").tocsc(),
        U=unpack_sparse(z, "U").tocsc(),
        perm_r=np.asarray(z["perm_r"], dtype=np.int64),
        perm_c=np.asarray(z["perm_c"], dtype=np.int64),
        handle=None)
    lu = SubdomainLU(
        ell=ell, perm=np.asarray(z["perm"], dtype=np.int64),
        factors=factors, flops=int(z["flops"]),
        cond=float(z["cond"]) if int(z["has_cond"]) else None,
        handle_thresh=(float(z["handle_thresh"])
                       if int(z["has_handle_thresh"]) else None))
    comp = SubdomainComp(
        ell=ell,
        G_tilde=unpack_sparse(z, "G_tilde").tocsc(),
        WT_tilde=unpack_sparse(z, "WT_tilde").tocsc(),
        T_tilde=unpack_sparse(z, "T_tilde").tocsr(),
        padding_G=_unpack_padding(z, "padding_G"),
        padding_W=_unpack_padding(z, "padding_W"),
        ops=int(z["ops"]), drop_tol=float(z["drop_tol"]),
        t_colsum=(np.asarray(z["t_colsum"], dtype=np.float64)
                  if "t_colsum" in z and z["t_colsum"].size else None))
    return lu, comp
