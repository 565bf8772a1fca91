"""PDSLin-style hybrid linear solver (Schur complement method).

Reproduces the pipeline of Yamazaki/Li/Rouet/Uçar (Section I):

1. **Partition** ``A`` into DBBD form (RHB or the NGD baseline).
2. **LU(D)** — order each subdomain (minimum degree + e-tree
   postorder) and factor it (SuperLU bridge, diagonal-pivoting mode).
3. **Comp(S)** — blocked sparse triangular solves for
   ``G_l = L^{-1} P E^_l`` and ``W_l = F^_l P~ U^{-1}`` with one of the
   Section IV RHS orderings and threshold dropping; multiply
   ``T~_l = W~_l G~_l``; gather the approximate Schur complement
   ``S~ = drop(C - sum R_F T~ R_E^T)``.
4. **LU(S)** — factor ``S~`` (the preconditioner).
5. **Solve** — restarted GMRES on the *exact* implicit Schur operator,
   right-preconditioned with ``S~``'s factors, then back-substitute the
   interior unknowns.

All per-subdomain work runs on the :class:`SimulatedMachine`, which
yields the per-stage makespans and balance ratios the paper reports.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from repro.core import build_dbbd, rhb_partition
from repro.core.dbbd import DBBDPartition
from repro.core.weights import WeightScheme
from repro.graphs import nested_dissection_partition
from repro.hypergraph.metrics import CutMetric
from repro.lu import (
    LUFactors,
    PaddingStats,
    SymbolicCache,
    attach_handle,
    lu_flop_count,
    pattern_fingerprint,
)
from repro.numerics.condest import condest_from_factors
from repro.numerics.pipeline import (
    SystemTransform,
    prepare_system,
    retarget_system,
)
from repro.numerics.refine import CertifiedAccuracy, refine_block
from repro.obs.tracer import NULL_TRACER
from repro.ordering import minimum_degree
from repro.parallel import RECOVER_STAGE, SimulatedMachine
from repro.parallel.costmodel import record_model_skew
from repro.parallel.exec import SpeculationPolicy, resolve_backend
from repro.resilience import (
    DEGRADING_ACTIONS,
    CheckpointManager,
    InjectedFault,
    KrylovBreakdownError,
    RecoveryReport,
    RefinementStallError,
    RetryPolicy,
    SchurFactorizationError,
    SdcDetectedError,
    TransportChecksumError,
    WorkerCrashError,
    emit_recovery,
    factorize_resilient,
    load_checkpoint,
    sdc_ladder,
)
from repro.resilience import abft
from repro.resilience.checkpoint import (
    config_fingerprint,
    matrix_fingerprint,
    pack_sparse,
    subdomain_shard_name,
    unpack_sparse,
)
from repro.solver.gmres import GMRESResult, gmres, gmres_block
from repro.solver.runtime import RuntimeOptions
from repro.solver.interfaces import SubdomainInterfaces, extract_interfaces
from repro.solver.partasks import (
    BlockSolveTask,
    SubdomainComp,
    SubdomainLU,
    SubdomainSetupResult,
    SubdomainTask,
    factorize_subdomain,
    factors_token,
    order_subdomain,
    run_block_solve,
    pack_subdomain_state,
    replay_subdomain_verification,
    run_subdomain_comp,
    run_subdomain_lu,
    run_subdomain_setup,
    unpack_subdomain_state,
    validate_chaos_env,
)
from repro.solver.plan import SolvePlan
from repro.solver.schur import assemble_approximate_schur
from repro.verify.invariants import NULL_VERIFIER, Verifier
from repro.utils import (
    SeedLike,
    check_csr,
    check_finite,
    check_square,
    positive_int,
)

__all__ = ["PDSLinConfig", "RuntimeOptions", "SubdomainComputation",
           "PDSLinResult", "BlockResult", "PDSLin"]

RHS_ORDERINGS = ("natural", "postorder", "hypergraph")


@dataclass
class PDSLinConfig:
    """Knobs of the hybrid solver (defaults follow the paper's setup)."""

    k: int = 8
    partitioner: str = "rhb"            # "rhb" | "ngd"
    metric: CutMetric = "soed"
    scheme: WeightScheme = "w1"
    epsilon: float = 0.1
    drop_interface: float = 1e-8        # W~/G~ threshold (relative per column)
    drop_schur: float = 1e-10           # S~ threshold (relative, global)
    block_size: int = 60                # paper's default B
    rhs_ordering: str = "postorder"
    quasi_dense_tau: Optional[float] = 0.4
    krylov: str = "gmres"               # "gmres" | "bicgstab"
    schur_factorization: str = "lu"     # "lu" | "ilu" (spilu on S~)
    gmres_tol: float = 1e-10
    gmres_restart: int = 100
    gmres_maxiter: int = 1000
    seed: SeedLike = 0
    diag_pivot_thresh: float = 0.0
    partition_trials: int = 2
    trim_separator: bool = False        # post-hoc separator trimming pass
    subdomain_ordering: str = "md"      # "md" | "nd" | "rcm"
    supernode_relax: float = 0.0        # amalgamation threshold (0 = strict)
    # -- numerical robustness layer (repro.numerics) --
    numerics: bool = True               # master switch; False restores the
    #                                     pre-numerics pipeline exactly
    equilibrate: bool = True            # Ruiz row/col scaling before DBBD
    equilibrate_iters: int = 20
    equilibrate_tol: float = 1e-2
    static_pivot_matching: bool = True  # MC64-style max-product row matching
    matching_threshold: float = 1e-3    # engage matching only when some
    #                                     scaled |a_ii| falls below this
    condest: bool = True                # Hager-Higham cond_1 per D_l and S~
    cond_threshold: float = 1e10        # above this, drop tols auto-tighten
    refine_maxiter: int = 4             # post-solve iterative refinement
    refine_tol: float = 1e-14           # target componentwise backward error
    certify_tol: float = 1e-12          # berr needed for certified=True
    # -- silent-data-corruption defense (repro.resilience.abft) --
    abft: str = "detect"                # "off" | "detect" | "detect+recover"
    # -- multi-RHS solve phase (solve_block; excluded from the
    #    checkpoint identity — see checkpoint.SOLVE_PHASE_FIELDS) --
    krylov_seed: bool = True            # seed each Schur solve with the
    #                                     previous column's solution
    block_gmres: bool = False           # solve the Schur block with one
    #                                     block-GMRES run instead of
    #                                     per-column (seeded) GMRES

    def __post_init__(self) -> None:
        self.k = positive_int(self.k, "k")
        if self.partitioner not in ("rhb", "ngd"):
            raise ValueError(f"partitioner must be 'rhb' or 'ngd', got "
                             f"{self.partitioner!r}")
        if self.rhs_ordering not in RHS_ORDERINGS:
            raise ValueError(f"rhs_ordering must be one of {RHS_ORDERINGS}")
        if self.krylov not in ("gmres", "bicgstab"):
            raise ValueError("krylov must be 'gmres' or 'bicgstab', got "
                             f"{self.krylov!r}")
        if self.schur_factorization not in ("lu", "ilu"):
            raise ValueError("schur_factorization must be 'lu' or 'ilu', "
                             f"got {self.schur_factorization!r}")
        if self.subdomain_ordering not in ("md", "nd", "rcm"):
            raise ValueError("subdomain_ordering must be 'md', 'nd' or "
                             f"'rcm', got {self.subdomain_ordering!r}")
        if not (0.0 <= self.supernode_relax < 1.0):
            raise ValueError("supernode_relax must be in [0, 1)")
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if not self.numerics:
            # one switch turns the whole robustness layer off
            self.equilibrate = False
            self.static_pivot_matching = False
            self.condest = False
            self.refine_maxiter = 0
        self.equilibrate_iters = positive_int(self.equilibrate_iters,
                                              "equilibrate_iters")
        if self.equilibrate_tol <= 0.0:
            raise ValueError("equilibrate_tol must be positive")
        if self.matching_threshold < 0.0:
            raise ValueError("matching_threshold must be >= 0")
        if self.cond_threshold < 1.0:
            raise ValueError("cond_threshold must be >= 1")
        if self.refine_maxiter < 0:
            raise ValueError("refine_maxiter must be >= 0")
        if self.refine_tol <= 0.0 or self.certify_tol <= 0.0:
            raise ValueError("refine_tol and certify_tol must be positive")
        abft.check_abft_mode(self.abft)


@dataclass
class SubdomainComputation:
    """Everything computed for one subdomain during setup.

    ``t_colsum`` is the ABFT column-sum checksum of ``T_tilde`` recorded
    where it was computed; the root re-verifies it before assembling
    ``S~`` (None with ``abft=off``).
    """

    interfaces: SubdomainInterfaces
    perm: np.ndarray                 # MD + postorder permutation of D
    factors: LUFactors
    G_tilde: sp.csc_matrix
    WT_tilde: sp.csc_matrix
    T_tilde: sp.csr_matrix
    padding_G: PaddingStats
    padding_W: PaddingStats
    lu_flops: int
    t_colsum: Optional[np.ndarray] = None
    #: SuperLU handle recipe of ``factors`` (None = static-pivot rung,
    #: no handle anywhere) — what a solve-phase worker needs to
    #: re-attach a bit-identical handle on its side of the pickle.
    handle_thresh: Optional[float] = None

    def permuted_D(self) -> sp.csc_matrix:
        """The pristine matrix ``factors`` were computed from."""
        return self.interfaces.permuted_D(self.perm)


@dataclass
class PDSLinResult:
    """Solution plus the full accounting of the run.

    ``recovery`` carries the degraded-mode report: every retry,
    escalation and fallback the solve needed. A solve that survived
    only through degradation (perturbed pivots, a lost process, a
    rebuilt preconditioner) has ``recovery.degraded`` — and therefore
    ``result.degraded`` — set instead of silently claiming full health.

    ``accuracy`` is the :class:`repro.numerics.CertifiedAccuracy` block
    (componentwise/normwise backward error, condition estimate,
    forward-error bound, refinement steps) when the numerics layer ran;
    ``None`` with ``numerics=False``. ``x`` and ``residual_norm`` are
    always in the *original* (unscaled, unpermuted) system.
    """

    x: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float
    schur_size: int
    machine: SimulatedMachine
    gmres: GMRESResult
    recovery: RecoveryReport = field(default_factory=RecoveryReport)
    accuracy: Optional[CertifiedAccuracy] = None

    @property
    def degraded(self) -> bool:
        """True when the solve succeeded only in degraded mode."""
        return self.recovery.degraded

    @property
    def certified(self) -> bool:
        """True when refinement certified the componentwise backward
        error below ``certify_tol`` (False when numerics is off)."""
        return self.accuracy is not None and self.accuracy.certified

    def breakdown(self) -> dict[str, float]:
        return self.machine.breakdown()


class BlockResult(Sequence):
    """Result of one batched multi-RHS solve.

    Behaves exactly like the ``list[PDSLinResult]`` that
    :meth:`PDSLin.solve_block` historically returned — iteration,
    indexing, ``len()``, equality against a plain list — so existing
    callers keep working unchanged, while exposing the block-level view:

    - ``X`` — the ``(n, nrhs)`` solution block (column ``j`` equals
      ``results[j].x``);
    - ``results`` — the per-column :class:`PDSLinResult` objects;
    - ``accuracy`` — the aggregate certificate: worst-column backward
      errors and refinement depth, ``certified`` only when *every*
      column certified (``None`` when the numerics layer was off);
    - ``converged`` / ``certified`` / ``degraded`` — all-columns
      aggregates;
    - ``residual_norms`` — per-column true relative residuals.
    """

    def __init__(self, X: np.ndarray, results: list[PDSLinResult],
                 accuracy: Optional[CertifiedAccuracy] = None):
        self.X = X
        self.results = list(results)
        self.accuracy = accuracy

    # -- list compatibility ------------------------------------------------

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index):
        return self.results[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, BlockResult):
            return self.results == other.results
        if isinstance(other, list):
            return self.results == other
        return NotImplemented

    def __repr__(self) -> str:
        n, nrhs = self.X.shape
        return (f"BlockResult(nrhs={nrhs}, n={n}, "
                f"converged={self.converged}, certified={self.certified})")

    # -- block-level aggregates --------------------------------------------

    @property
    def nrhs(self) -> int:
        return len(self.results)

    @property
    def converged(self) -> bool:
        """True when every column converged."""
        return all(r.converged for r in self.results)

    @property
    def certified(self) -> bool:
        """True when every column's refinement certified its backward
        error (False when numerics is off)."""
        return bool(self.results) and all(r.certified for r in self.results)

    @property
    def degraded(self) -> bool:
        """True when the solve survived only in degraded mode."""
        return any(r.degraded for r in self.results)

    @property
    def residual_norms(self) -> list[float]:
        return [r.residual_norm for r in self.results]

    @staticmethod
    def aggregate_accuracy(
            accs: "list[CertifiedAccuracy] | None",
    ) -> Optional[CertifiedAccuracy]:
        """Fold per-column certificates into one block certificate:
        worst-column (max) backward errors and bounds, deepest
        refinement, certified only if all columns are."""
        if not accs:
            return None
        return CertifiedAccuracy(
            berr=max(a.berr for a in accs),
            nberr=max(a.nberr for a in accs),
            cond_est=max(a.cond_est for a in accs),
            ferr_bound=max(a.ferr_bound for a in accs),
            refine_steps=max(a.refine_steps for a in accs),
            certified=all(a.certified for a in accs),
            certify_tol=accs[0].certify_tol,
            stagnated=any(a.stagnated for a in accs),
            escalations=sum(a.escalations for a in accs),
            berr_history=list(max(accs, key=lambda a: a.berr).berr_history),
        )


@dataclass
class _BlockSolve:
    """Working-system result of one batched hybrid pass: the solution
    block plus the per-column Krylov results (synthesized trivial ones
    on the no-separator direct path)."""

    X: np.ndarray
    gmres: list[GMRESResult]
    schur_size: int


class PDSLin:
    """Hybrid Schur-complement solver over a simulated parallel machine.

    Typical use::

        solver = PDSLin(A, PDSLinConfig(k=8, partitioner="rhb"))
        solver.setup()
        result = solver.solve(b)

    Execution/resilience knobs (everything below that does not change
    the numeric answer) are carried by one
    :class:`~repro.solver.runtime.RuntimeOptions` value::

        rt = RuntimeOptions(tracer=tracer, backend="process:4",
                            task_deadline_s=30.0)
        solver = PDSLin(A, config, runtime=rt)

    ``runtime=`` is the only way in: the per-knob constructor keywords
    of earlier versions (``tracer=``, ``backend=``, ...) are gone and
    raise ``TypeError``. The names below are ``RuntimeOptions`` fields.

    Pass a :class:`repro.obs.Tracer` to record real wall-clock spans and
    counters for every pipeline stage (partition, per-subdomain
    factorization, interface solves, Schur assembly/factorization,
    Krylov solve); without one, instrumentation is a no-op.

    Execution backends: ``backend`` selects where the per-subdomain
    setup work (LU(D), Comp(S)) and the RHB bisection trials actually
    run — ``"serial"`` (default), ``"thread"``, or ``"process"`` /
    ``"process:4"`` (see :mod:`repro.parallel.exec`; ``None`` consults
    ``REPRO_BACKEND``). Every backend reduces in a fixed order and is
    bit-identical to serial; the :class:`SimulatedMachine` accounting is
    fed from worker-measured wall times, and worker tracer spans merge
    into the parent trace on per-process tracks. There is one solve
    path: :meth:`solve` is :meth:`solve_block` on an ``(n, 1)`` block.
    Where the per-subdomain triangular solves run is decided in one
    place, :meth:`_block_subdomain_solves`, from the block width: a
    one-column block stays inline on every backend (millisecond-scale
    solves, far below process-shipping cost), a wider block is one
    fan-out per solve stage, so pooled backends ship each subdomain's
    factors once per stage instead of once per column.

    Resilience: an optional :class:`repro.resilience.FaultPlan` arms
    seeded fault injection on the simulated machine, and the recovery
    ladder — bounded by ``retry_policy`` — retries transient faults
    (charging simulated time to the ``Recover`` stage), fails permanent
    subdomain faults over to the root process, escalates singular
    subdomain LU through full pivoting to static pivot perturbation,
    falls back ILU->LU on Schur factorization breakdown, refreshes the
    Schur preconditioner once on GMRES stagnation, and falls back
    BiCGSTAB->GMRES on breakdown. Everything that happened is on
    ``self.recovery`` (also attached to every result).

    Checkpoint/restart: ``checkpoint=`` (a directory or a
    :class:`repro.resilience.CheckpointManager`) snapshots solver state
    at stage boundaries — the partition, each accepted subdomain, the
    assembled Schur complement — per ``checkpoint_policy`` (default:
    after every subdomain, plus on SIGTERM). ``resume=`` points at such
    a directory: completed work is restored bit-exactly and skipped,
    and the resumed solve is byte-identical to an uninterrupted run.
    Both may name the same directory (kill-and-resume in place).

    Stragglers: ``task_deadline_s`` bounds each parallel setup fan-out;
    work still outstanding at the deadline is cancelled (workers killed,
    never orphaned) and redone on the root, recorded as a degrading
    ``deadline-failover``. ``speculation`` (a
    :class:`repro.parallel.exec.SpeculationPolicy`, or ``True`` for the
    defaults) duplicates straggling tasks instead; first result wins
    with a deterministic tie-break, so bit-parity holds either way.
    """

    def __init__(self, A: sp.spmatrix, config: PDSLinConfig | None = None, *,
                 M: sp.spmatrix | None = None,
                 runtime: RuntimeOptions | None = None):
        rt = runtime if runtime is not None else RuntimeOptions()
        self.runtime = rt

        self.A_input = check_csr(A)
        check_square(self.A_input, "A")
        check_finite(self.A_input, "A")
        # the working matrix P R A C (replaced by the numerics pre-pass
        # in setup(); identical to A_input with numerics off)
        self.A = self.A_input
        self.config = config or PDSLinConfig()
        self.M = M  # optional structural factor for RHB
        self.tracer = rt.tracer if rt.tracer is not None else NULL_TRACER
        # verify=True arms the post-stage invariant checks of
        # repro.verify (a custom Verifier may be passed directly);
        # the default NULL_VERIFIER makes every hook a no-op
        if isinstance(rt.verify, Verifier):
            self.verifier = rt.verify
        else:
            self.verifier = Verifier() if rt.verify else NULL_VERIFIER
        self.machine = SimulatedMachine(self.config.k,
                                        fault_plan=rt.fault_plan)
        self.backend = resolve_backend(rt.backend)
        # pattern-keyed memo for the symbolic analyses (subdomain
        # ordering, Schur MD permutation): update_matrix() reruns the
        # numeric phases on a fixed pattern, so these are pure replays
        self.analysis_cache = SymbolicCache()
        self.retry_policy = rt.retry_policy or RetryPolicy()
        self.recovery = RecoveryReport(
            preconditioner_mode=self.config.schur_factorization)
        self.partition: DBBDPartition | None = None
        self.subdomains: list[SubdomainComputation] = []
        self.S_tilde: sp.csr_matrix | None = None
        self._s_colsum: np.ndarray | None = None   # ABFT checksum of S~
        self._schur_perm: np.ndarray | None = None
        self._schur_factors: LUFactors | None = None
        # solve-phase operators, rebuilt by every _numeric_setup()
        self.solve_plan: SolvePlan | None = None
        self._is_setup = False
        self._prep: SystemTransform | None = None
        # effective drop tolerances: start at the configured values and
        # only tighten (condition-estimate driven)
        self._drop_interface_eff = self.config.drop_interface
        self._drop_schur_eff = self.config.drop_schur
        self._schur_drop_used = self.config.drop_schur
        self.cond_estimates: dict = {"subdomains": {}, "schur": None}
        # -- checkpoint/restart + straggler mitigation
        if rt.task_deadline_s is not None and rt.task_deadline_s <= 0.0:
            raise ValueError("task_deadline_s must be positive")
        self.task_deadline_s = rt.task_deadline_s
        speculation = rt.speculation
        if speculation is True:
            speculation = SpeculationPolicy()
        elif speculation is False:
            speculation = None
        self.speculation: SpeculationPolicy | None = speculation
        if isinstance(rt.checkpoint, CheckpointManager):
            self._ckpt: CheckpointManager | None = rt.checkpoint
            if self._ckpt.tracer is NULL_TRACER:
                self._ckpt.tracer = self.tracer
        elif rt.checkpoint is not None:
            self._ckpt = CheckpointManager(
                rt.checkpoint, policy=rt.checkpoint_policy,
                tracer=self.tracer)
        else:
            self._ckpt = None
        self._resume_dir = rt.resume
        self._resume = None       # CheckpointState once loaded
        self._restored_subs: dict[int, tuple] = {}
        self._restored_schur: dict | None = None

    # -- resilient execution ----------------------------------------------

    def _record(self, stage: str, action: str, error: object, *,
                detail: str = "", subdomain: int | None = None,
                attempt: int = 1):
        """Record one recovery event on the report + tracer counters."""
        return emit_recovery(self.tracer, self.recovery, stage, action,
                             error, detail=detail, subdomain=subdomain,
                             attempt=attempt)

    def _on_stage(self, stage: str, body: Callable, ell: int | None = None):
        """Run ``body(ledger)`` on process ``ell`` (``None``: the root)
        under the injected-fault ladder: transient faults retry in
        place; a permanent fault — or exhausted retries — fails a
        subdomain's work over to the root, marking the solve degraded,
        and propagates from the root itself, which has no spare.

        Only :class:`InjectedFault` is handled here (it is raised at
        stage *entry*, so the body never ran); numerical errors from
        inside the body have their own ladders and propagate.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                with (self.machine.on_root(stage) if ell is None else
                      self.machine.on_process(ell, stage)) as ledger:
                    return body(ledger)
            except InjectedFault as fault:
                if self._fault_rung(stage, fault, ell, attempt):
                    continue
                if ell is None:
                    raise
                return self._redo_on_root(stage, ell, body)

    def _fault_rung(self, stage: str, fault: InjectedFault,
                    ell: int | None, attempt: int) -> bool:
        """Charge one injected fault (recovery time goes to the
        ``Recover`` stage of the process it hit) and pick the rung:
        True is a recorded retry in place, False the end of the line —
        for a subdomain process that is the recorded, degrading
        ``failover-root``."""
        self.machine.charge_recovery(ell, seconds=fault.recovery_cost_s)
        if not fault.permanent and attempt < self.retry_policy.max_attempts:
            self._record(stage, "retry", fault, subdomain=ell,
                         attempt=attempt)
            return True
        if ell is not None:
            self._record(stage, "failover-root", fault, subdomain=ell,
                         attempt=attempt,
                         detail="re-executing the work on root")
        return False

    def _redo_on_root(self, stage: str, ell: int, body: Callable):
        """The failover rung: subdomain ``ell``'s ``stage`` work on the
        root process, charged to ``Recover``."""
        with self.tracer.span("recover", stage=stage,
                              action="failover-root", l=ell), \
                self.machine.on_root(RECOVER_STAGE) as ledger:
            return body(ledger)

    # -- ABFT / silent-data-corruption defense (repro.resilience.abft) ----
    #
    # Each site below is a detector plus a repair; what happens between
    # the two is resilience.sdc_ladder (DESIGN.md "Recovery ladders").

    def _abft_on(self) -> bool:
        """True when checksum verification is armed (detect or
        detect+recover)."""
        return abft.abft_detect(self.config.abft)

    def _sdc_ladder(self, stage: str, findings: list, *,
                    recover: bool | None = None, **details) -> bool:
        """:func:`repro.resilience.sdc_ladder` on this solver's tracer
        and report; repairs run under ``abft="detect+recover"``."""
        if recover is None:
            recover = abft.abft_recover(self.config.abft)
        return sdc_ladder(self.tracer, self.recovery, stage, findings,
                          recover=recover, **details)

    def _verify_comp_contributions(self) -> None:
        """Checksum audit of every subdomain's local Schur update
        ``T~`` right before it is consumed by assembly — the detector
        for corruption anywhere between the worker that computed it and
        the root. Recovery recomputes the Comp(S) stage on the root
        from the (separately checksummed) subdomain factors."""
        if not self._abft_on():
            return
        for s in self.subdomains:
            if s.t_colsum is None:
                continue
            ell = s.interfaces.ell
            with self.tracer.span("abft_verify", stage="Comp(S)", l=ell):
                self.tracer.count("sdc_checks")
                audit = abft.verify_matrix_checksum(s.T_tilde, s.t_colsum)
            if audit.ok:
                continue

            def repair(s=s, ell=ell):
                with self.tracer.span("recover", stage="Comp(S)",
                                      action="sdc-recompute", l=ell):
                    lu = SubdomainLU(ell=ell, perm=s.perm, factors=s.factors,
                                     flops=s.lu_flops)
                    comp = run_subdomain_comp(
                        s.interfaces, self.config, lu,
                        drop_tol=self._drop_interface_eff,
                        tracer=self.tracer)
                s.G_tilde, s.WT_tilde = comp.G_tilde, comp.WT_tilde
                s.T_tilde, s.t_colsum = comp.T_tilde, comp.t_colsum

            err = SdcDetectedError(
                f"T~ checksum violated for subdomain {ell}: {audit.detail}",
                site="comp", rel=audit.rel, stage="Comp(S)", subdomain=ell)
            self._sdc_ladder(
                "Comp(S)", [(err, audit.detail, ell)], repair=repair,
                unrepaired="abft=detect: corruption reported but not "
                           "repaired; S~ may be corrupt",
                recovered="Comp(S) recomputed on root from the subdomain "
                          "factors")

    def _assemble_schur(self, drop_tol: float, *,
                        tracer=None) -> sp.csr_matrix:
        """``S~`` at ``drop_tol`` from the cached per-subdomain updates
        ``T~`` — no interface solve is repeated, and assembly is
        deterministic, so the same tolerance rebuilds it bit-exactly."""
        updates = [(s.interfaces, s.T_tilde) for s in self.subdomains]
        return assemble_approximate_schur(
            self.partition.C(), updates, drop_tol=drop_tol,
            tracer=self.tracer if tracer is None else tracer)

    def _seal_schur(self) -> None:
        """Record the column-sum checksum of the assembled ``S~``."""
        if self._abft_on() and self.S_tilde is not None \
                and self.S_tilde.shape[0] > 0:
            self._s_colsum = abft.checksum_matrix(self.S_tilde)
        else:
            self._s_colsum = None

    def _audit_schur(self, *, where: str) -> None:
        """Verify ``S~`` against its recorded checksum; this is also
        the ``schur`` bit-flip injection seam (injection runs even with
        ``abft=off`` — corruption does not care whether defenses are
        on). Recovery reassembles from the cached updates."""
        if self.S_tilde is None or self.S_tilde.shape[0] == 0:
            return
        abft.maybe_bitflip("schur", (self.S_tilde.data,))
        if self._s_colsum is None:
            return
        with self.tracer.span("abft_verify", stage="LU(S)", where=where):
            self.tracer.count("sdc_checks")
            audit = abft.verify_matrix_checksum(self.S_tilde,
                                                self._s_colsum)
        if audit.ok:
            return

        def repair():
            with self.tracer.span("recover", stage="LU(S)",
                                  action="sdc-reassemble"):
                self.S_tilde = self._assemble_schur(self._schur_drop_used)
                self._seal_schur()

        err = SdcDetectedError(
            f"S~ checksum violated ({where}): {audit.detail}",
            site="schur", rel=audit.rel, stage="LU(S)")
        self._sdc_ladder(
            "LU(S)", [(err, audit.detail, None)], repair=repair,
            unrepaired="abft=detect: corruption reported but not repaired; "
                       "the S~ preconditioner may be corrupt",
            recovered="S~ reassembled from the cached per-subdomain "
                      "updates")

    def _sweep_factor_audits(self) -> list[tuple[int, str]]:
        """Collect (and reset) the passive solve-audit verdicts that
        accumulated on each subdomain's factor checksums during a solve
        pass. Returns the violated subdomains."""
        bad: list[tuple[int, str]] = []
        for s in self.subdomains:
            cs = s.factors.checksums
            if cs is None or cs.checks == 0:
                continue
            self.tracer.count("sdc_checks", cs.checks)
            if cs.violations:
                bad.append((s.interfaces.ell, cs.last_detail))
            cs.reset_counters()
        return bad

    # -- setup ------------------------------------------------------------

    def setup(self) -> "PDSLin":
        cfg = self.config
        self._prepare_numerics()
        self._init_checkpoint()

        def partition_body(ledger):
            with self.tracer.span("partition", partitioner=cfg.partitioner,
                                  k=cfg.k):
                if cfg.partitioner == "rhb":
                    r = rhb_partition(self.A, cfg.k,
                                      M=self._structural_factor(),
                                      metric=cfg.metric,
                                      scheme=cfg.scheme, epsilon=cfg.epsilon,
                                      seed=cfg.seed,
                                      n_trials=cfg.partition_trials,
                                      tracer=self.tracer,
                                      verify=self.verifier,
                                      backend=self.backend)
                    part = r.col_part
                else:
                    r = nested_dissection_partition(
                        self.A, cfg.k, epsilon=cfg.epsilon, seed=cfg.seed,
                        n_trials=cfg.partition_trials, verify=self.verifier)
                    part = r.part
                if cfg.trim_separator:
                    from repro.core.refine import trim_separator
                    part = trim_separator(self.A, part, cfg.k)
                self.partition = build_dbbd(self.A, part, cfg.k)
                self.verifier.after_partition(self.A, self.partition)
                self.tracer.count("separator_size",
                                  int(self.partition.separator_vertices.size))

        if self._resume is not None and self._resume.partition_done:
            # the combinatorial phase is pure state: rebuilding DBBD
            # from the stored part vector reproduces it bit-exactly
            with self.tracer.span("checkpoint_restore", stage="partition"):
                part = np.asarray(
                    self._resume.load_shard("partition")["part"],
                    dtype=np.int64)
                self.partition = build_dbbd(self.A, part, cfg.k,
                                            validate=False)
                self.verifier.after_partition(self.A, self.partition)
                self.tracer.count("checkpoint_partition_restored")
                self.tracer.count("separator_size",
                                  int(self.partition.separator_vertices.size))
        else:
            self._on_stage("Partition", partition_body)
        if self._ckpt is not None:
            self._ckpt.register_partition(self.partition.part)
            self._ckpt.arm()
        try:
            self._numeric_setup()
        finally:
            if self._ckpt is not None:
                self._ckpt.disarm()
        return self

    # -- checkpoint/restart (repro.resilience.checkpoint) ------------------

    def _init_checkpoint(self) -> None:
        """Bind the checkpoint writer to this (matrix, config) identity
        and load + integrity-check the resume state, if any. A resume
        directory that does not hold a valid checkpoint for exactly
        this problem raises :class:`CheckpointError` up front."""
        if self._ckpt is None and self._resume_dir is None:
            return
        mfp = matrix_fingerprint(self.A_input)
        cfp = config_fingerprint(self.config)
        if self._resume_dir is not None and self._resume is None:
            with self.tracer.span("checkpoint_restore", stage="load"):
                self._resume = load_checkpoint(
                    self._resume_dir, matrix_fp=mfp, config_fp=cfp,
                    k=self.config.k)
                self._restored_subs = {
                    ell: unpack_subdomain_state(
                        self._resume.load_shard(subdomain_shard_name(ell)))
                    for ell in self._resume.subdomains_done}
                if self._resume.schur_done and \
                        len(self._restored_subs) == self.config.k:
                    z = self._resume.load_shard("schur")
                    self._restored_schur = {
                        "S_tilde": unpack_sparse(z, "S_tilde").tocsr(),
                        "drop_used": float(z["drop_used"]),
                        "drop_eff": float(z["drop_eff"]),
                        "s_colsum": (np.asarray(z["s_colsum"],
                                                dtype=np.float64)
                                     if "s_colsum" in z
                                     and z["s_colsum"].size else None),
                        "mode": str(self._resume.state.get(
                            "preconditioner_mode", "lu")),
                    }
        if self._ckpt is not None:
            self._ckpt.bind(matrix_fp=mfp, config_fp=cfp,
                            k=self.config.k, seed=self.config.seed)

    def _restore_subdomain(self, ell: int,
                           sub: SubdomainInterfaces,
                           ) -> tuple[SubdomainLU, SubdomainComp]:
        """Reconstruct one checkpointed subdomain bit-exactly: re-attach
        the SuperLU handle (the PR-5 cross-process machinery), replay
        the condition-estimate booking (so the drop-tolerance
        tightening sequence matches the uninterrupted run) and the
        verification hooks."""
        lu, comp = self._restored_subs[ell]
        with self.tracer.span("checkpoint_restore", l=ell):
            Dp = None
            if lu.factors.handle is None and lu.handle_thresh is not None:
                Dp = sub.permuted_D(lu.perm)
                attach_handle(lu.factors, Dp,
                              diag_pivot_thresh=lu.handle_thresh)
            if self._abft_on() and lu.factors.checksums is None:
                # checkpoint shards carry bare factors; re-arm the
                # checksums so solve-phase audits cover restored state
                if Dp is None:
                    Dp = sub.permuted_D(lu.perm)
                abft.attach_factor_checksums(lu.factors, Dp)
            self.tracer.count("checkpoint_subdomains_restored")
        self._note_subdomain_cond(ell, lu.cond)
        if comp.drop_tol != self._drop_interface_eff:
            # defensive: under a matching config fingerprint the
            # replayed tolerance sequence always matches the stored
            # one; if it somehow does not, recompute at the serial-
            # semantics tolerance rather than break bit-parity
            self.tracer.count("checkpoint_tol_redo")
            comp = run_subdomain_comp(sub, self.config, lu,
                                      drop_tol=self._drop_interface_eff,
                                      tracer=self.tracer)
        replay_subdomain_verification(
            sub, self.config, lu, comp, verifier=self.verifier,
            separator_size=self.partition.separator_size)
        return lu, comp

    def _register_subdomain_checkpoint(self, ell: int, lu: SubdomainLU,
                                       comp: SubdomainComp) -> None:
        """Queue one accepted subdomain with the checkpoint writer
        (lazy: shards already on disk never re-pack)."""
        if self._ckpt is not None:
            self._ckpt.register_subdomain(
                ell, lambda: pack_subdomain_state(lu, comp))

    def _register_schur_checkpoint(self) -> None:
        if self._ckpt is None or self.S_tilde is None:
            return

        def arrays():
            out = {"drop_used": np.float64(self._schur_drop_used),
                   "drop_eff": np.float64(self._drop_schur_eff),
                   "s_colsum": (np.asarray(self._s_colsum, dtype=np.float64)
                                if self._s_colsum is not None
                                else np.empty(0, dtype=np.float64))}
            pack_sparse(out, "S_tilde", self.S_tilde.tocsr())
            return out

        self._ckpt.register_schur(arrays, state={
            "preconditioner_mode": self.recovery.preconditioner_mode})

    # -- numerics pre-pass (repro.numerics) --------------------------------

    def _prepare_numerics(self) -> None:
        """Build the working system ``A_w = P R A C`` (Ruiz scaling +
        max-product matching) that every downstream stage operates on.
        Runs before partitioning so the DBBD structure is computed on
        the row-permuted matrix. Real preprocessing, traced but not
        charged to the simulated machine (it is outside the paper's
        stage model)."""
        cfg = self.config
        if not (cfg.equilibrate or cfg.static_pivot_matching):
            self._prep = None
            self.A = self.A_input
            return
        self._prep = prepare_system(
            self.A_input, equilibrate=cfg.equilibrate,
            matching=cfg.static_pivot_matching,
            equilibrate_iters=cfg.equilibrate_iters,
            equilibrate_tol=cfg.equilibrate_tol,
            matching_threshold=cfg.matching_threshold, tracer=self.tracer)
        self.A = self._prep.A_work

    def _structural_factor(self) -> sp.spmatrix | None:
        """The RHB structural factor to use. A user-supplied ``M``
        describes the *original* row structure; once matching permutes
        rows it no longer models the working matrix, so RHB falls back
        to its default incidence factor (built from ``self.A``)."""
        if self.M is None or self._prep is None:
            return self.M
        mt = self._prep.matching
        if mt is None or mt.identity:
            return self.M
        return None

    def _to_working_rhs(self, b: np.ndarray) -> np.ndarray:
        """``P R b`` — map a right-hand side into the working system."""
        if self._prep is None:
            return np.asarray(b, dtype=np.float64)
        return self._prep.scale_rhs(b)

    def _from_working_solution(self, y: np.ndarray) -> np.ndarray:
        """``C y`` — map a working-system solution back out."""
        if self._prep is None:
            return np.asarray(y, dtype=np.float64)
        return self._prep.unscale_solution(y)

    def _tighten_drops(self, cond: float) -> None:
        """Condition-driven auto-tightening: scale the interface/Schur
        drop tolerances down by ``cond / cond_threshold`` (capped) so
        ill-conditioned blocks are approximated less aggressively."""
        cfg = self.config
        factor = min(cond / cfg.cond_threshold, 1e6)
        new_i = cfg.drop_interface / factor
        new_s = cfg.drop_schur / factor
        if new_i < self._drop_interface_eff or new_s < self._drop_schur_eff:
            self._drop_interface_eff = min(self._drop_interface_eff, new_i)
            self._drop_schur_eff = min(self._drop_schur_eff, new_s)
            self.tracer.count("cond_tightenings")

    def _numeric_setup(self) -> None:
        """Everything after partitioning: subdomain factorizations,
        interface solves, Schur assembly and factorization."""
        self._drop_interface_eff = self.config.drop_interface
        self._drop_schur_eff = self.config.drop_schur
        self.cond_estimates = {"subdomains": {}, "schur": None}
        self.subdomains = []
        # the transport bit-flip drill needs the sealed map path, which
        # inline backends normally skip; route through the fan-out so
        # the serial drill exercises the same checksum machinery
        seam = abft.bitflip_seam()
        inline = self.backend.inline and not (
            seam is not None and seam.target == "transport")
        if inline:
            for ell in range(self.config.k):
                if ell in self._restored_subs:
                    sub = extract_interfaces(self.partition, ell)
                    lu, comp = self._restore_subdomain(ell, sub)
                    self.subdomains.append(
                        self._pack_subdomain(sub, lu, comp))
                    self._register_subdomain_checkpoint(ell, lu, comp)
                else:
                    self._setup_subdomain(ell)
        else:
            self._setup_subdomains_parallel()
        self._assemble_and_factor_schur()
        # restored state is single-use: update_matrix() invalidates it
        self._restored_subs = {}
        self._restored_schur = None
        self.solve_plan = SolvePlan.build(self.partition, self.subdomains)
        self._is_setup = True

    def update_matrix(self, A_new: sp.spmatrix) -> "PDSLin":
        """Refactorize for a matrix with the *same nonzero pattern*.

        Time-stepping and Newton loops refactor repeatedly on a fixed
        structure; the partition (the expensive combinatorial phase) is
        reused and only the numeric phases rerun. Raises if the pattern
        changed — a new pattern needs a fresh :class:`PDSLin`.
        """
        if self.partition is None:
            raise ValueError("call setup() before update_matrix()")
        A_new = check_csr(A_new)
        check_square(A_new, "A_new")
        check_finite(A_new, "A_new")
        old = self.A_input
        if A_new.shape != old.shape or A_new.nnz != old.nnz or \
                not (np.array_equal(A_new.indptr, old.indptr)
                     and np.array_equal(A_new.indices, old.indices)):
            raise ValueError("update_matrix requires the same sparsity "
                             "pattern; build a new solver instead")
        self.A_input = A_new
        if self._prep is not None:
            # same pattern, fresh values: keep the matching permutation
            # (the partition depends on it) but recompute the scalings
            self._prep = retarget_system(
                self._prep, A_new,
                equilibrate_iters=self.config.equilibrate_iters,
                equilibrate_tol=self.config.equilibrate_tol)
            self.A = self._prep.A_work
        else:
            self.A = A_new
        self.partition = build_dbbd(self.A, self.partition.part,
                                    self.config.k, validate=False)
        # fresh numeric values = a fresh checkpoint identity: restored
        # state from the old matrix no longer applies, and the writer
        # re-binds so old shards are never mixed with new ones
        self._resume = None
        self._restored_subs = {}
        self._restored_schur = None
        if self._ckpt is not None:
            self._ckpt.bind(matrix_fp=matrix_fingerprint(self.A_input),
                            config_fp=config_fingerprint(self.config),
                            k=self.config.k, seed=self.config.seed)
            self._ckpt.register_partition(self.partition.part)
            self._ckpt.arm()
        try:
            self._numeric_setup()
        finally:
            if self._ckpt is not None:
                self._ckpt.disarm()
        return self

    def _cached_analysis(self, key: str, compute: Callable):
        """Memoized symbolic analysis with hit/miss tracer counters."""
        hits = self.analysis_cache.hits
        value = self.analysis_cache.get_or_compute(key, compute)
        self.tracer.count("symbolic_cache_hit"
                          if self.analysis_cache.hits > hits
                          else "symbolic_cache_miss")
        return value

    def _cached_order(self, D: sp.csr_matrix) -> np.ndarray:
        """Subdomain fill-reducing ordering (MD/ND/RCM + e-tree
        postorder), memoized on the sparsity pattern."""
        cfg = self.config
        key = pattern_fingerprint(D, "order", cfg.subdomain_ordering,
                                  cfg.seed)
        return self._cached_analysis(
            key, lambda: order_subdomain(D, method=cfg.subdomain_ordering,
                                         seed=cfg.seed))

    def _note_subdomain_cond(self, ell: int, cond: float | None) -> None:
        """Book a subdomain condition estimate and auto-tighten the
        drop tolerances when it crosses the threshold."""
        cfg = self.config
        if not cfg.condest or cond is None:
            return
        self.cond_estimates["subdomains"][ell] = cond
        if np.isfinite(cond) and cond > cfg.cond_threshold:
            self._tighten_drops(cond)

    @staticmethod
    def _pack_subdomain(sub: SubdomainInterfaces, lu: SubdomainLU,
                        comp: SubdomainComp) -> SubdomainComputation:
        return SubdomainComputation(
            interfaces=sub, perm=lu.perm, factors=lu.factors,
            G_tilde=comp.G_tilde, WT_tilde=comp.WT_tilde,
            T_tilde=comp.T_tilde, padding_G=comp.padding_G,
            padding_W=comp.padding_W, lu_flops=lu.flops,
            t_colsum=comp.t_colsum, handle_thresh=lu.handle_thresh)

    def _lu_body(self, sub: SubdomainInterfaces, ell: int,
                 perm: np.ndarray) -> Callable:
        """LU(D) of one subdomain as a stage body — the task body the
        parallel backends ship (:mod:`repro.solver.partasks`), for the
        inline path and for the root's failover rung."""
        def body(ledger):
            lu = run_subdomain_lu(
                sub, self.config, ell=ell,
                separator_size=self.partition.separator_size, perm=perm,
                report=self.recovery, tracer=self.tracer,
                verifier=self.verifier)
            ledger.ops.add("LU(D)", lu.flops)
            return lu
        return body

    def _comp_body(self, sub: SubdomainInterfaces, lu: SubdomainLU,
                   drop_tol: float) -> Callable:
        """Comp(S) of one subdomain as a stage body (see
        :meth:`_lu_body`)."""
        def body(ledger):
            comp = run_subdomain_comp(sub, self.config, lu,
                                      drop_tol=drop_tol, tracer=self.tracer,
                                      verifier=self.verifier)
            ledger.ops.add("Comp(S)", comp.ops)
            return comp
        return body

    def _setup_subdomain(self, ell: int) -> None:
        """Serial setup of one subdomain, inline under the simulated
        machine's fault ladder."""
        assert self.partition is not None
        sub = extract_interfaces(self.partition, ell)
        lu = self._on_stage(
            "LU(D)", self._lu_body(sub, ell, self._cached_order(sub.D)), ell)
        self._note_subdomain_cond(ell, lu.cond)
        comp = self._on_stage(
            "Comp(S)", self._comp_body(sub, lu, self._drop_interface_eff),
            ell)
        self.subdomains.append(self._pack_subdomain(sub, lu, comp))
        self._register_subdomain_checkpoint(ell, lu, comp)

    # -- parallel subdomain setup (repro.parallel.exec) --------------------

    def _ships(self, stage: str, ell: int) -> bool:
        """Pre-play the injected-fault ladder for ``(stage, ell)``
        before shipping the work to a backend. Faults are raised at
        stage *entry* (the body never runs), so the winning rung is
        known at dispatch time; recovery events and simulated charges
        are identical to the serial ladder. True ships the work to a
        worker, False has failed it over to the root."""
        plan = self.machine.fault_plan
        if plan is None:
            return True
        attempt = 0
        while True:
            attempt += 1
            try:
                plan.before(stage, ell)
                return True
            except InjectedFault as fault:
                if not self._fault_rung(stage, fault, ell, attempt):
                    return False

    def _fan_out(self, span: str, fn: Callable, tasks: list) -> dict:
        """Ship ``tasks`` (one per subdomain) through the backend under
        a ``span`` span and book what the transport saw: speculative
        duplicates, and digest mismatches on shipped results — detected
        SDC on the wire, recovered when the backend's one clean
        resubmission was accepted (a second mismatch is left to
        :meth:`_triage`). Returns the outcomes by subdomain."""
        with self.tracer.span(span, backend=self.backend.name,
                              workers=self.backend.workers,
                              tasks=len(tasks)):
            outcomes = self.backend.map(fn, tasks,
                                        deadline_s=self.task_deadline_s,
                                        speculation=self.speculation)
        by_ell = {}
        for task, out in zip(tasks, outcomes):
            by_ell[task.ell] = out
            if out.duplicates:
                self.tracer.count("speculation_launched", out.duplicates)
            if out.speculated:
                self.tracer.count("speculation_wins")
            if out.transport_retries:
                err = TransportChecksumError(
                    "result payload failed its transport checksum",
                    backend=self.backend.name, stage="Transport",
                    subdomain=task.ell)
                self._sdc_ladder(
                    "Transport",
                    [(err, "blake2b digest mismatch on the shipped result "
                           "payload", task.ell)],
                    recover=out.error is None, repair=lambda: None,
                    unrepaired=None,
                    recovered="task resubmitted once; clean payload "
                              "accepted")
        return by_ell

    def _triage(self, stage: str, ell: int, out) -> tuple:
        """What one shipped task of ``stage`` came to: ``(value,
        timed_out)``. A ``None`` value means "redo on the root", either
        because the task never shipped (``out`` is None: its fault
        ladder already failed it over) or because its worker died, its
        result failed the transport digest twice, or the batch deadline
        expired — recorded here as the degrading ``failover-root`` /
        ``deadline-failover``. A real numerical error propagates as it
        would have serially."""
        if out is None:
            return None, False
        if out.error is None:
            return out.value, False
        if isinstance(out.error, TransportChecksumError):
            why = "untrusted result payload"
        elif isinstance(out.error, WorkerCrashError):
            why = "worker process died"
        elif out.timed_out:
            self.tracer.count("deadline_timeouts")
            self._record(stage, "deadline-failover", out.error,
                         subdomain=ell,
                         detail="task deadline expired; re-executing the "
                                "work on root")
            return None, True
        else:
            raise out.error
        self._record(stage, "failover-root", out.error, subdomain=ell,
                     detail=why + "; re-executing the work on root")
        return None, False

    def _merge_worker_result(self, r: SubdomainSetupResult,
                             offset_s: float) -> None:
        """Fold a worker's recovery events and LU-stage trace back into
        root state (comp-stage artifacts merge only on acceptance)."""
        if r.lu_spans or r.lu_counters:
            self.tracer.merge(r.lu_spans, r.lu_counters, offset_s=offset_s,
                              track=f"proc{r.ell}")
        if r.events or r.perturbed_pivots:
            shipped = RecoveryReport(events=list(r.events),
                                     perturbed_pivots=r.perturbed_pivots)
            shipped.degraded = any(e.action in DEGRADING_ACTIONS
                                   for e in r.events)
            self.recovery.absorb(shipped)

    def _charge_process_stage(self, ell: int, stage: str, wall_s: float,
                              flops: int) -> None:
        """Account worker-measured wall time (plus any straggler delay
        from the fault plan) and flops to the simulated process."""
        led = self.machine.processes[ell]
        led.timer.add(stage, wall_s)
        led.ops.add(stage, flops)
        plan = self.machine.fault_plan
        if plan is not None:
            led.timer.add(stage, plan.after(stage, ell))

    def _setup_subdomains_parallel(self) -> None:
        """Fan the per-subdomain setup out over ``self.backend``.

        Bit-parity with serial is preserved by construction: the same
        task bodies run (:mod:`repro.solver.partasks`), the fault ladder
        is pre-played in serial order at dispatch, and the reduction —
        condition-estimate booking, drop-tolerance tightening, Schur
        inputs — happens in ascending subdomain order. The one
        speculative piece is the interface drop tolerance: workers run
        Comp(S) at the tolerance current at dispatch, and any subdomain
        whose serial-semantics tolerance ends up tighter (a later
        condition estimate crossed the threshold) has its Comp(S) redone
        at the correct tolerance in a second round.
        """
        cfg = self.config
        assert self.partition is not None
        validate_chaos_env()
        sep = self.partition.separator_size
        trace = bool(self.tracer.enabled)
        t0 = time.perf_counter()
        offset = self.tracer.now()

        def charged() -> np.ndarray:
            return (self.machine.process_stage_times("LU(D)")
                    + self.machine.process_stage_times("Comp(S)"))

        base_charged = charged()

        restored = set(self._restored_subs)
        subs, perms = [], []
        for ell in range(cfg.k):
            sub = extract_interfaces(self.partition, ell)
            subs.append(sub)
            perms.append(self._restored_subs[ell][0].perm
                         if ell in restored else self._cached_order(sub.D))

        # pre-play the fault ladder in serial event order (LU(D) then
        # Comp(S), subdomains ascending); restored subdomains never ran
        # in the uninterrupted run's fault window twice, so they are
        # excluded from the ladder as well as the fan-out
        ship_lu, ship_comp = [], []
        for ell in range(cfg.k):
            ship_lu.append(ell not in restored
                           and self._ships("LU(D)", ell))
            ship_comp.append(ell not in restored
                             and self._ships("Comp(S)", ell))

        def task(ell, **kw):
            return SubdomainTask(
                ell=ell, interfaces=subs[ell], cfg=cfg, separator_size=sep,
                perm=perms[ell], trace=trace, **kw)

        tol0 = self._drop_interface_eff
        by_ell = self._fan_out(
            "subdomain_fanout", run_subdomain_setup,
            [task(ell, drop_interface=tol0, run_comp=ship_comp[ell])
             for ell in range(cfg.k) if ship_lu[ell]])

        lus: dict[int, SubdomainLU] = {}
        comps: dict[int, SubdomainComp] = {}
        worker_comp: dict[int, SubdomainComp | None] = {}
        redo: list[tuple[int, float]] = []

        def accept_comp(ell, r):
            comps[ell] = worker_comp[ell] = r.comp
            if r.comp_spans or r.comp_counters:
                self.tracer.merge(r.comp_spans, r.comp_counters,
                                  offset_s=offset + r.lu_wall_s,
                                  track=f"proc{ell}")
            self._charge_process_stage(ell, "Comp(S)", r.comp_wall_s,
                                       r.comp.ops)

        for ell in range(cfg.k):
            if ell in restored:
                lus[ell], comps[ell] = self._restore_subdomain(ell,
                                                               subs[ell])
                continue
            sub = subs[ell]
            r, timed = self._triage("LU(D)", ell, by_ell.get(ell))
            if r is not None:
                self._merge_worker_result(r, offset)
                lu = r.lu
                self._charge_process_stage(ell, "LU(D)", r.lu_wall_s,
                                           lu.flops)
                if lu.factors.handle is None and \
                        lu.handle_thresh is not None:
                    attach_handle(lu.factors, sub.permuted_D(lu.perm),
                                  diag_pivot_thresh=lu.handle_thresh)
                worker_comp.setdefault(ell, None)
            else:
                lu = self._redo_on_root(
                    "LU(D)", ell, self._lu_body(sub, ell, perms[ell]))
            lus[ell] = lu
            self._note_subdomain_cond(ell, lu.cond)
            # the serial-semantics Comp(S) tolerance for this subdomain
            # is the effective tolerance *now*, after the tightenings
            # of subdomains 0..ell
            tol_ell = self._drop_interface_eff
            if not ship_comp[ell] or timed:
                # a timed-out subdomain stays on the root for Comp(S)
                # too: re-shipping it would hit the same straggler
                comps[ell] = self._redo_on_root(
                    "Comp(S)", ell, self._comp_body(sub, lu, tol_ell))
            elif r is not None and r.comp is not None \
                    and r.comp.drop_tol == tol_ell:
                accept_comp(ell, r)
            else:
                if r is not None and r.comp is not None:
                    self.tracer.count("comp_tol_redo")
                redo.append((ell, tol_ell))

        if redo:
            by_ell = self._fan_out(
                "subdomain_fanout_redo", run_subdomain_setup,
                [task(ell, drop_interface=tol, lu=lus[ell])
                 for ell, tol in redo])
            for ell, tol in redo:
                r, _ = self._triage("Comp(S)", ell, by_ell[ell])
                if r is None:
                    comps[ell] = self._redo_on_root(
                        "Comp(S)", ell,
                        self._comp_body(subs[ell], lus[ell], tol))
                else:
                    accept_comp(ell, r)

        # invariant hooks are root-owned state: replay them over every
        # reassembled worker result (inline failovers already fired them)
        if self.verifier.enabled:
            for ell in sorted(worker_comp):
                replay_subdomain_verification(
                    subs[ell], cfg, lus[ell], worker_comp[ell],
                    verifier=self.verifier, separator_size=sep)

        for ell in range(cfg.k):
            self.subdomains.append(
                self._pack_subdomain(subs[ell], lus[ell], comps[ell]))
            self._register_subdomain_checkpoint(ell, lus[ell], comps[ell])

        # cost-model reconciliation: simulated makespan of this fan-out
        # vs the real wall clock it took (a noise: counter — excluded
        # from perf gating, visible in exported metrics)
        model_s = float((charged() - base_charged).max())
        record_model_skew(self.tracer, "subdomain_setup", model_s=model_s,
                          measured_s=time.perf_counter() - t0)

    def _assemble_and_factor_schur(self) -> None:
        cfg = self.config
        assert self.partition is not None
        if self.partition.separator_size == 0:
            self.S_tilde = self.partition.C()
            self._s_colsum = None
            self._register_schur_checkpoint()
            return

        def asm_body(ledger):
            self._verify_comp_contributions()
            self.S_tilde = self._assemble_schur(self._drop_schur_eff)
            self._schur_drop_used = self._drop_schur_eff
            if self.verifier.enabled:
                # reassemble without dropping to check S~ against S^
                self.verifier.after_schur_assembly(
                    self.partition.C(),
                    self._assemble_schur(0.0, tracer=NULL_TRACER),
                    self.S_tilde, self._drop_schur_eff)

        if self._restored_schur is not None:
            # the assembled S~ (post any cond-driven rebuild of the
            # original run) comes off disk; only LU(S) — cheap next to
            # Comp(S) and deliberately not serialized (SuperLU handles
            # do not round-trip) — is redone, on the *final* matrix, so
            # its factors match the uninterrupted run's bit-for-bit
            rs = self._restored_schur
            with self.tracer.span("checkpoint_restore", stage="schur"):
                self.S_tilde = rs["S_tilde"]
                self._schur_drop_used = rs["drop_used"]
                self._drop_schur_eff = rs["drop_eff"]
                self.tracer.count("checkpoint_schur_restored")
            # recheck integrity against the checksum stored in the
            # shard (sealing fresh when the shard predates ABFT)
            self._s_colsum = rs.get("s_colsum")
            if self._s_colsum is None:
                self._seal_schur()
            self._audit_schur(where="resume")
            base = "ilu" if rs["mode"] == "ilu" else "lu"
            self._on_stage("LU(S)",
                                lambda ledger: self._factor_schur(base,
                                                                  ledger))
            self.recovery.preconditioner_mode = rs["mode"]
        else:
            self._on_stage("Comp(S)", asm_body)
            self._seal_schur()
            self._audit_schur(where="assembly")
            mode = cfg.schur_factorization
            try:
                self._on_stage(
                    "LU(S)",
                    lambda ledger: self._factor_schur(mode, ledger))
                self.recovery.preconditioner_mode = mode
            except SchurFactorizationError as err:
                if mode != "ilu":
                    raise
                # ILU of S~ broke down: fall back to the full LU — a
                # *stronger* preconditioner, so robustness costs memory,
                # not convergence
                self._record("LU(S)", "ilu-to-lu", err,
                             detail="ILU breakdown; falling back to full LU "
                                    "of S~")
                with self.tracer.span("recover", stage="LU(S)",
                                      action="ilu-to-lu"):
                    self._on_stage(
                        RECOVER_STAGE,
                        lambda ledger: self._factor_schur("lu", ledger))
                self.recovery.preconditioner_mode = "lu(from-ilu)"
        # proactive (non-degrading) robustness move: a badly conditioned
        # Schur factor makes a dropped S~ a poor preconditioner, so
        # reassemble keeping every entry before GMRES ever runs
        cond_s = self.cond_estimates.get("schur")
        if (cfg.condest and cond_s is not None and np.isfinite(cond_s)
                and cond_s > cfg.cond_threshold
                and self._schur_drop_used > 0.0
                and self.recovery.preconditioner_mode != "ilu"):

            self.tracer.count("schur_cond_rebuilds")
            self._on_stage("LU(S)", self._rebuild_schur_undropped)
            self._schur_drop_used = 0.0
            self._drop_schur_eff = 0.0
        self._register_schur_checkpoint()

    def _factor_schur(self, mode: str, ledger) -> None:
        """Factor ``S~`` as the preconditioner, in ``mode`` ("lu" or
        "ilu"). ILU breakdown raises :class:`SchurFactorizationError`;
        the LU path escalates through the pivoting ladder itself."""
        cfg = self.config
        with self.tracer.span("factor_schur", method=mode):
            sp_perm = self._cached_analysis(
                pattern_fingerprint(self.S_tilde, "schur-md"),
                lambda: minimum_degree(self.S_tilde))
            Sp = self.S_tilde[sp_perm][:, sp_perm].tocsc()
            if mode == "ilu":
                # incomplete factorization of S~ — an even cheaper (and
                # weaker) preconditioner, one of PDSLin's design options
                import scipy.sparse.linalg as spla
                try:
                    ilu = spla.spilu(Sp, drop_tol=max(cfg.drop_schur, 1e-8),
                                     fill_factor=10.0)
                except (RuntimeError, ValueError) as exc:
                    raise SchurFactorizationError(
                        f"ILU of S~ broke down: {exc}",
                        method="ilu") from exc
                factors = LUFactors(
                    L=ilu.L.tocsc(), U=ilu.U.tocsc(),
                    perm_r=np.asarray(ilu.perm_r, dtype=np.int64),
                    perm_c=np.asarray(ilu.perm_c, dtype=np.int64),
                    handle=ilu)
                if not (np.all(np.isfinite(factors.L.data))
                        and np.all(np.isfinite(factors.U.data))):
                    raise SchurFactorizationError(
                        "ILU of S~ produced non-finite factors",
                        method="ilu")
                self.tracer.count("lu_fill_nnz", factors.fill_nnz)
                self.tracer.count("lu_flops", lu_flop_count(factors))
            else:
                # the Schur preconditioner needs numerical robustness,
                # not a structure-faithful factor: allow real pivoting,
                # escalating to static perturbation on breakdown
                factors, _ = factorize_resilient(
                    Sp, diag_pivot_thresh=1.0, stage="LU(S)",
                    report=self.recovery, tracer=self.tracer)
                if cfg.condest:
                    cond = condest_from_factors(Sp, factors)
                    self.cond_estimates["schur"] = cond
                    self.tracer.count("cond_est_schur", cond)
            self._schur_factors = factors
            self._schur_perm = sp_perm
            ledger.ops.add("LU(S)", lu_flop_count(factors))

    def _rebuild_schur_undropped(self, ledger) -> None:
        """Stage body: ``S~`` keeping *every* assembled entry (drop
        tolerance 0), sealed and factored with full LU."""
        self.S_tilde = self._assemble_schur(0.0)
        self._seal_schur()
        self._factor_schur("lu", ledger)

    def _refresh_schur_preconditioner(self) -> None:
        """The recovery move when GMRES or refinement stagnates on a
        too-aggressively-dropped preconditioner: rebuild it undropped,
        charged to ``Recover``."""
        self._on_stage(RECOVER_STAGE, self._rebuild_schur_undropped)
        self._schur_drop_used = 0.0
        self.recovery.preconditioner_mode = "lu(refreshed, drop_schur=0)"

    # -- solve ------------------------------------------------------------

    def _precondition(self, v: np.ndarray) -> np.ndarray:
        """Apply ``S~^{-1}`` through the stored factors."""
        assert self._schur_factors is not None and self._schur_perm is not None
        out = np.empty_like(v)
        out[self._schur_perm] = self._schur_factors.solve(v[self._schur_perm])
        return out

    def solve(self, b: np.ndarray) -> PDSLinResult:
        """Solve ``A x = b`` (setup() is run on demand). Rejects
        right-hand sides containing NaN/Inf.

        ``b`` and the returned ``x`` live in the original system; the
        numerics transform (scaling + matching) is applied on the way
        in and undone on the way out. With the numerics layer on, the
        solution is iteratively refined against the *original* ``A``
        and the result carries a :class:`CertifiedAccuracy` block.

        This is the one-column case of :meth:`solve_block` — the same
        pass, refinement and certification over an ``(n, 1)`` block —
        traced under ``solve`` / ``refine`` spans."""
        b = np.asarray(b, dtype=np.float64)
        check_finite(b, "b")
        if b.shape != (self.A_input.shape[0],):
            raise ValueError(f"b must have shape "
                             f"({self.A_input.shape[0]},)")
        if not self._is_setup:
            self.setup()
        with self.tracer.span("solve"):
            _, results, _ = self._solve_columns(b[:, None], "refine")
        return results[0]

    def _cond_for_bound(self) -> float:
        """The condition estimate entering the forward-error bound: the
        worst finite estimate seen across subdomains and the Schur
        factor (NaN when condest is off)."""
        vals = [c for c in self.cond_estimates["subdomains"].values()
                if np.isfinite(c)]
        cond_s = self.cond_estimates.get("schur")
        if cond_s is not None and np.isfinite(cond_s):
            vals.append(cond_s)
        return float(max(vals)) if vals else float("nan")

    def _on_refine_stall(self) -> bool:
        """Refinement stalled: escalate into the resilience ladder by
        rebuilding the Schur preconditioner with no dropping. Returns
        True when something was actually strengthened (refinement then
        continues); False when there is nothing left to escalate."""
        if self.S_tilde is None or self.S_tilde.shape[0] == 0 \
                or self._schur_drop_used <= 0.0:
            return False
        err = RefinementStallError(
            "iterative refinement stagnated",
            berr=float("nan"))
        self._record("Refine", "precond-refresh", err,
                     detail="refinement stalled; rebuilding S~ "
                            "preconditioner with drop_schur=0")
        with self.tracer.span("recover", stage="Refine",
                              action="precond-refresh"):
            self._refresh_schur_preconditioner()
        return True

    def _run_gmres(self, matvec, g: np.ndarray,
                   x0: np.ndarray | None = None):
        """One preconditioned GMRES run on ``S y = g`` under a fresh
        root ``Solve`` stage — the first attempt and every restart of
        the Krylov ladders."""
        cfg = self.config

        def body(ledger):
            return gmres(matvec, g, preconditioner=self._precondition,
                         x0=x0, tol=cfg.gmres_tol,
                         restart=cfg.gmres_restart,
                         maxiter=cfg.gmres_maxiter,
                         tracer=self.tracer)
        return self._on_stage("Solve", body)

    def _solve_schur_system(self, matvec, g: np.ndarray, *,
                            x0: np.ndarray | None = None):
        """One Krylov attempt on the Schur system, then the recovery
        ladder: BiCGSTAB breakdown falls back to GMRES; GMRES
        stagnation/non-convergence gets one retry with a refreshed
        (no-dropping) Schur preconditioner, warm-started from the
        failed iterate. Retried solves run under fresh ``Solve``
        stages; the preconditioner rebuild is charged to ``Recover``.

        ``x0`` seeds the first attempt (the multi-RHS path passes the
        previous column's solution); recovery retries keep their own
        warm starts."""
        cfg = self.config
        if cfg.krylov == "bicgstab":
            from repro.solver.bicgstab import bicgstab

            def body(ledger):
                return bicgstab(matvec, g,
                                preconditioner=self._precondition,
                                x0=x0,
                                tol=cfg.gmres_tol,
                                maxiter=cfg.gmres_maxiter,
                                audit_every=25 if self._abft_on() else 0,
                                tracer=self.tracer)
            res = self._on_stage("Solve", body)
            if res.converged:
                return res
            err = KrylovBreakdownError(
                "BiCGSTAB breakdown on the Schur system" if res.breakdown
                else "BiCGSTAB failed to converge on the Schur system",
                method="bicgstab", iterations=res.iterations)
            self._record("Solve", "krylov-fallback", err,
                         detail="falling back BiCGSTAB -> GMRES")
            with self.tracer.span("recover", stage="Solve",
                                  action="krylov-fallback"):
                res = self._run_gmres(matvec, g, res.x)
        else:
            res = self._run_gmres(matvec, g, x0)

        if not res.converged:
            err = KrylovBreakdownError(
                "GMRES stagnated on the Schur system"
                if getattr(res, "stagnated", False)
                else "GMRES failed to converge on the Schur system",
                method="gmres", iterations=res.iterations)
            self._record("Solve", "precond-refresh", err,
                         detail="rebuilding S~ preconditioner with "
                                "drop_schur=0 and retrying once")
            with self.tracer.span("recover", stage="Solve",
                                  action="precond-refresh"):
                self._refresh_schur_preconditioner()
            res = self._run_gmres(matvec, g, res.x)
        abft.maybe_bitflip("krylov", (res.x,))
        if not self._abft_on() or res.x.size == 0:
            return res
        true_r, gnorm = self._true_residuals(matvec, g, res.x)
        return self._audit_krylov(matvec, g, res, true_r, gnorm)

    def _true_residuals(self, matvec, G: np.ndarray, X: np.ndarray):
        """The detector of the Krylov drift audit: ``||G - S X||`` and
        ``||G||`` — per column, off ONE block matvec, when ``X`` is a
        block."""
        with self.tracer.span("abft_verify", stage="Solve"):
            self.tracer.count("sdc_checks")
            if X.ndim == 1:
                return (float(np.linalg.norm(G - matvec(X))),
                        float(np.linalg.norm(G)))
            return (np.linalg.norm(G - matvec(X), axis=0),
                    np.linalg.norm(G, axis=0))

    def _krylov_drift(self, res, true_r: float, gnorm: float, *,
                      trust_flag: bool = True) -> tuple[bool, str]:
        """Judge one Krylov result by its true residual against what
        the solver claims (plus any drift flag the solver raised
        internally). ``trust_flag=False`` judges by the true residual
        alone — a warm restart from a far-off iterate legitimately
        loses orthogonality mid-run, so its advisory in-run flag is not
        evidence of corruption."""
        claimed = float(res.final_residual)
        if not np.isfinite(claimed):
            claimed = 0.0
        suspected = (trust_flag
                     and bool(getattr(res, "drift_detected", False))) or \
            true_r > 100.0 * max(claimed, self.config.gmres_tol * gnorm)
        return suspected, (f"true residual {true_r:.3e} vs claimed "
                           f"{claimed:.3e}")

    def _audit_krylov(self, matvec, g: np.ndarray, res, true_r: float,
                      gnorm: float, *, column: int | None = None):
        """Krylov drift audit of one Schur solve given its true
        residual. A flagged iterate is suspected SDC in the Krylov
        state; recovery discards that state and warm-restarts GMRES
        from the flagged iterate, preserving the preconditioner, and
        re-judges the restart by its true residual alone."""
        suspected, detail = self._krylov_drift(res, true_r, gnorm)
        if not suspected:
            return res
        if column is not None:
            detail += f" (column {column})"

        def repair():
            nonlocal res
            with self.tracer.span("recover", stage="Solve",
                                  action="sdc-krylov-restart"):
                res = self._run_gmres(matvec, g, res.x)
            still, detail2 = self._krylov_drift(
                res, *self._true_residuals(matvec, g, res.x),
                trust_flag=False)
            if still or not res.converged:
                return "warm restart did not clear the drift: " + detail2

        err = SdcDetectedError(f"Krylov residual drift: {detail}",
                               site="krylov", stage="Solve")
        self._sdc_ladder(
            "Solve", [(err, detail, None)], repair=repair,
            unrepaired="abft=detect: corruption reported but not repaired; "
                       "the returned iterate may be corrupt",
            recovered="corrupt Krylov state discarded; GMRES warm-restarted "
                      "from the flagged iterate")
        return res

    def _run_with_factor_sweep(self, run_once: Callable):
        """Run one solve pass under the solve-phase ABFT sweep: every
        triangular solve through the subdomain factors ran a passive
        checksum audit; violations accumulated on the factors are
        collected here. Recovery refactorizes the flagged subdomains
        from their pristine interface matrices and redoes the solve
        pass once."""
        res = run_once()
        if not self._abft_on():
            return res
        bad = self._sweep_factor_audits()
        if not bad:
            return res

        def repair():
            nonlocal res
            with self.tracer.span("recover", stage="Solve",
                                  action="sdc-refactorize"):
                for ell, _ in bad:
                    s = self.subdomains[ell]
                    # the fresh handle recipe goes along, for solve-
                    # phase fan-outs against the fresh factors
                    s.factors, s.handle_thresh = factorize_subdomain(
                        s.permuted_D(), self.config, stage="Solve", ell=ell,
                        report=self.recovery, tracer=self.tracer)
            res = run_once()
            still = self._sweep_factor_audits()
            if still:
                return "checksum still violated after refactorization: " \
                    + "; ".join(detail for _, detail in still)

        self._sdc_ladder(
            "Solve",
            [(SdcDetectedError(
                f"solve-phase checksum violated for subdomain {ell}: "
                f"{detail}", site="solve", stage="Solve", subdomain=ell),
              detail, ell) for ell, detail in bad],
            repair=repair,
            unrepaired="abft=detect: corruption reported but not repaired; "
                       "the solution may be corrupt",
            recovered="subdomain refactorized from its pristine interface "
                      "matrix; solve pass redone")
        return res

    # -- batched multi-RHS solve ------------------------------------------

    def _block_subdomain_solves(
            self, rhs_blocks: list[np.ndarray]) -> list[np.ndarray]:
        """Batched triangular solves ``D_l^{-1} R_l`` across all
        subdomains — ONE backend fan-out for the whole right-hand-side
        block (the forward and backward substitution passes of every
        solve ship through here). Inline backends run each subdomain
        under the usual injected-fault ladder; pooled backends ship
        :class:`BlockSolveTask` units and keep the setup fan-out's
        failover semantics (crash / transport-checksum / deadline ->
        redo on root). SuperLU batched solves are columnwise
        bit-identical to single-column solves, so column ``j`` here
        matches a one-column solve of ``B[:, j]`` bit for bit.

        A one-column block — every :meth:`solve`, and a
        :meth:`solve_block` of width 1 — stays inline on every backend
        and goes through the factors as a 1-D vector: its triangular
        solves are millisecond-scale, 5-8x below what shipping the
        factors to a pool costs, and the 1-D SuperLU / checksum-audit
        calls are the cheap ones."""
        one_column = rhs_blocks[0].shape[1] == 1

        def solving(s, rhs):
            if one_column:
                return lambda ledger: s.factors.solve(rhs[:, 0])[:, None]
            return lambda ledger: s.factors.solve(rhs)

        if self.backend.inline or one_column:
            return [self._on_stage("Solve", solving(s, rhs), s.interfaces.ell)
                    for s, rhs in zip(self.subdomains, rhs_blocks)]

        validate_chaos_env()
        tasks = []
        for s, rhs in zip(self.subdomains, rhs_blocks):
            if not self._ships("Solve", s.interfaces.ell):
                continue
            # the factors pickle handle-less; ship the permuted
            # interface matrix so the worker can re-attach one
            ship_D = s.factors.handle is not None \
                and s.handle_thresh is not None
            tasks.append(BlockSolveTask(
                ell=s.interfaces.ell, rhs=rhs, factors=s.factors,
                Dp=s.permuted_D() if ship_D else None,
                handle_thresh=s.handle_thresh,
                token=factors_token(s.factors)))
        by_ell = self._fan_out("solve_fanout", run_block_solve, tasks)

        outs = []
        for s, rhs in zip(self.subdomains, rhs_blocks):
            ell = s.interfaces.ell
            r, _ = self._triage("Solve", ell, by_ell.get(ell))
            if r is None:
                outs.append(self._redo_on_root("Solve", ell,
                                               solving(s, rhs)))
                continue
            # fold the worker-local solve-audit counters back into the
            # parent's factor checksums, where _sweep_factor_audits
            # collects them (the worker audited a pickled copy)
            cs = s.factors.checksums
            if cs is not None and r.audit_checks:
                cs.checks += r.audit_checks
                cs.violations += r.audit_violations
                if r.audit_worst_rel > cs.worst_rel:
                    cs.worst_rel = r.audit_worst_rel
                if r.audit_violations and r.audit_detail:
                    cs.last_detail = r.audit_detail
            self._charge_process_stage(ell, "Solve", r.wall_s, 0)
            outs.append(r.X)
        return outs

    def _solve_schur_block(self, matvec,
                           G: np.ndarray) -> tuple[list[GMRESResult],
                                                   np.ndarray]:
        """Krylov solves for every column of the Schur system ``S Y =
        G``. Default mode runs the full per-column recovery ladder
        (:meth:`_solve_schur_system`), seeding each column with the
        previous column's solution when ``krylov_seed`` is on — related
        right-hand sides start near the solution manifold and converge
        in fewer iterations, while an unrelated seed costs nothing (the
        initial residual check discards it). ``block_gmres=True``
        solves all columns in one block-Krylov run sharing a search
        space; columns it leaves unconverged fall back to the
        per-column ladder, so every column ends equally certified."""
        cfg = self.config
        p = G.shape[1]
        if cfg.block_gmres and p > 1 and cfg.krylov == "gmres":
            def body(ledger):
                return gmres_block(matvec, G,
                                   preconditioner=self._precondition,
                                   tol=cfg.gmres_tol,
                                   restart=cfg.gmres_restart,
                                   maxiter=cfg.gmres_maxiter,
                                   tracer=self.tracer)
            blk = self._on_stage("Solve", body)
            results, Y = self._audit_krylov_block(matvec, G, blk)
            for j in range(p):
                if results[j].converged:
                    continue
                # unconverged column: the full per-column ladder
                # (preconditioner refresh + audit), warm-started from
                # the block iterate
                res_j = self._solve_schur_system(matvec, G[:, j],
                                                 x0=results[j].x)
                results[j] = res_j
                Y[:, j] = res_j.x
            return results, Y
        results = []
        Y = np.empty_like(G)
        seed = None
        for j in range(p):
            res_j = self._solve_schur_system(matvec, G[:, j], x0=seed)
            results.append(res_j)
            Y[:, j] = res_j.x
            seed = res_j.x if cfg.krylov_seed else None
        return results, Y

    def _audit_krylov_block(self, matvec, G: np.ndarray, blk):
        """Block-mode entry to :meth:`_audit_krylov`: the ``krylov``
        bit-flip seam lands in the solution block, ONE block matvec
        gives every column's true residual (instead of one audit matvec
        per column), and each column then goes through the same judge
        and ladder a per-column solve does (block results carry no
        in-run drift flag, so the true residual decides)."""
        Y = blk.x
        abft.maybe_bitflip("krylov", (Y,))
        results = [GMRESResult(x=Y[:, j].copy(),
                               converged=bool(blk.converged[j]),
                               iterations=int(blk.iterations),
                               residual_norms=[float(blk.residual_norms[j])],
                               stagnated=bool(blk.stagnated))
                   for j in range(G.shape[1])]
        if self._abft_on() and Y.size:
            true_r, gnorm = self._true_residuals(matvec, G, Y)
            for j, res in enumerate(results):
                results[j] = self._audit_krylov(
                    matvec, G[:, j], res, float(true_r[j]), float(gnorm[j]),
                    column=j)
                Y[:, j] = results[j].x
        return results, Y

    def _solve_block_once(self, B: np.ndarray) -> _BlockSolve:
        """One hybrid pass in the working system: batched forward
        substitution through the subdomain factors, per-column (or
        block) Krylov on the Schur system, batched back substitution."""
        assert self.partition is not None
        B = np.asarray(B, dtype=np.float64)
        if B.ndim != 2 or B.shape[0] != self.A.shape[0]:
            raise ValueError(f"B must be ({self.A.shape[0]}, nrhs)")
        plan = self.solve_plan
        sep = self.partition.separator_vertices
        nrhs = B.shape[1]
        X = np.zeros_like(B)

        if sep.size == 0:
            # no separator: decoupled batched subdomain solves
            rhs_blocks = [B[s.interfaces.vertices][s.perm]
                          for s in self.subdomains]
            for s, ul in zip(self.subdomains,
                             self._block_subdomain_solves(rhs_blocks)):
                X[s.interfaces.vertices[s.perm]] = ul
            gres = [GMRESResult(x=np.empty(0), converged=True, iterations=0)
                    for _ in range(nrhs)]
            return _BlockSolve(X=X, gmres=gres, schur_size=0)

        G = B[sep].copy()
        # G^ = G - sum F_l D_l^{-1} f_l : one fan-out for all columns
        rhs_blocks = [B[s.interfaces.vertices][s.perm]
                      for s in self.subdomains]
        d_solutions = self._block_subdomain_solves(rhs_blocks)

        def fold_forward(ledger):
            for s, Fp, UL in zip(self.subdomains, plan.F_perm, d_solutions):
                G[s.interfaces.f_rows] -= Fp @ UL
        self._on_stage("Solve", fold_forward)
        matvec = plan.matvec
        results, Y = self._solve_schur_block(matvec, G)
        for j in range(nrhs):
            self.verifier.after_krylov(matvec, G[:, j], results[j])
        X[sep] = Y

        # back substitution: U_l = D^{-1}(F_l - E_l Y), again batched
        rhs2 = self._on_stage("Solve", lambda ledger: [
            Ep @ Y[s.interfaces.e_cols]
            for s, Ep in zip(self.subdomains, plan.E_perm)])
        corrections = self._block_subdomain_solves(rhs2)
        for s, UL0, DL in zip(self.subdomains, d_solutions, corrections):
            X[s.interfaces.vertices[s.perm]] = UL0 - DL
        return _BlockSolve(X=X, gmres=results, schur_size=int(sep.size))

    def _solve_block(self, B: np.ndarray) -> _BlockSolve:
        """One hybrid solve in the working system, wrapped in the
        solve-phase ABFT sweep (see :meth:`_run_with_factor_sweep`)."""
        return self._run_with_factor_sweep(
            lambda: self._solve_block_once(B))

    def _correction_solve_block(self, R: np.ndarray) -> np.ndarray:
        """Approximate ``A D = R`` columnwise in the original system —
        one full hybrid pass through the working system, used as the
        inner solver of iterative refinement."""
        blk = self._solve_block(self._to_working_rhs(R))
        return self._from_working_solution(blk.X)

    def _finalize_block(self, B: np.ndarray, X: np.ndarray,
                        refine_span: str):
        """Post-solve certification in the original system, columnwise
        off a single residual matrix: iterative refinement with stall
        escalation (one batched correction solve per sweep), per-column
        CertifiedAccuracy, and the true per-column residual norms of
        ``A_input X = B``."""
        cfg = self.config
        accs: list[CertifiedAccuracy] | None = None
        if cfg.refine_maxiter > 0 or cfg.condest:
            with self.tracer.span(refine_span, nrhs=B.shape[1]):
                X, accs = refine_block(
                    self.A_input, B, X, self._correction_solve_block,
                    tol=cfg.refine_tol, certify_tol=cfg.certify_tol,
                    maxiter=cfg.refine_maxiter,
                    cond_est=self._cond_for_bound(),
                    on_stall=self._on_refine_stall)
                for acc in accs:
                    self.tracer.count("refine_steps", acc.refine_steps)
                    self.tracer.count("refine_certified",
                                      int(acc.certified))
            for j, acc in enumerate(accs):
                if acc.stagnated and not acc.certified:
                    # escalation exhausted and still uncertified: this
                    # is a degraded answer, say so through the recovery
                    # report
                    self._record(
                        "Refine", "refine-stall",
                        RefinementStallError("refinement stagnated "
                                             "uncertified", berr=acc.berr),
                        detail=f"berr={acc.berr:.2e} after "
                               f"{acc.refine_steps} steps "
                               f"({acc.escalations} escalations; "
                               f"column {j})")
            if accs:
                # last column wins, matching sequential per-column solves
                self.recovery.accuracy = accs[-1].to_dict()
        R = B - self.A_input @ X
        res_norms = [float(np.linalg.norm(R[:, j])
                           / max(np.linalg.norm(B[:, j]), 1e-300))
                     for j in range(B.shape[1])]
        return X, accs, res_norms

    def _solve_columns(self, B: np.ndarray, refine_span: str):
        """The solve phase behind both public entry points: one hybrid
        pass over the ``(n, nrhs)`` block ``B``, refinement and
        certification (traced as ``refine_span``), and one
        :class:`PDSLinResult` per column. Returns ``(X, results,
        accuracies)``."""
        blk = self._solve_block(self._to_working_rhs(B))
        X = self._from_working_solution(blk.X)
        X, accs, res_norms = self._finalize_block(B, X, refine_span)
        results = []
        for j in range(B.shape[1]):
            res = PDSLinResult(
                x=X[:, j].copy(), converged=blk.gmres[j].converged,
                iterations=blk.gmres[j].iterations,
                residual_norm=res_norms[j],
                schur_size=blk.schur_size, machine=self.machine,
                gmres=blk.gmres[j], recovery=self.recovery)
            if accs is not None:
                res.accuracy = accs[j]
            self.verifier.after_solve(self.A_input, B[:, j], X[:, j],
                                      res_norms[j])
            results.append(res)
        return X, results, accs

    def solve_block(self, B: np.ndarray) -> BlockResult:
        """Solve ``A X = B`` for a block of right-hand sides in one
        batched pass (setup() is run on demand). Rejects ``B``
        containing NaN/Inf. Returns a :class:`BlockResult` — a drop-in
        sequence of per-column :class:`PDSLinResult` (iteration,
        indexing, ``len()``, list equality all preserved) that also
        exposes the ``(n, nrhs)`` solution block ``.X`` and the
        aggregate accuracy certificate ``.accuracy``.

        Every stage is amortized over the block: one backend fan-out
        per substitution pass carrying all columns (factors ship once,
        not once per column; a one-column block stays inline, see
        :meth:`_block_subdomain_solves`), Schur solves seeded
        column-to-column (``krylov_seed``; or one block-GMRES run with
        ``block_gmres=True``), blockwise iterative refinement off a
        single residual matrix, and one vectorized ABFT audit
        ``1^T A X = 1^T B`` per triangular-solve block.

        Parity contract: column ``j`` of the returned solutions is
        bit-identical to ``solve(B[:, j])`` on direct paths (batched
        triangular solves and the numerics transform are columnwise
        bit-exact), and equally certified — same CertifiedAccuracy
        machinery, same tolerances — on seeded-Krylov paths, where the
        warm start changes the iterate trajectory but not the
        convergence contract."""
        B = np.asarray(B, dtype=np.float64)
        if B.ndim != 2:
            raise ValueError("B must be a 2-D (n, nrhs) array")
        check_finite(B, "B")
        if B.shape[0] != self.A_input.shape[0]:
            raise ValueError(f"B must be ({self.A_input.shape[0]}, nrhs)")
        if not self._is_setup:
            self.setup()
        nrhs = B.shape[1]
        if nrhs == 0:
            return BlockResult(X=np.empty((self.A_input.shape[0], 0)),
                               results=[])
        t0 = time.perf_counter()
        with self.tracer.span("solve_block", nrhs=nrhs):
            X, results, accs = self._solve_columns(B, "refine_block")
        wall = time.perf_counter() - t0
        if wall > 0.0:
            self.tracer.count("noise:rhs_per_s", nrhs / wall)
        return BlockResult(X=X, results=results,
                           accuracy=BlockResult.aggregate_accuracy(accs))

    #: historical name of :meth:`solve_block`
    solve_multiple = solve_block
