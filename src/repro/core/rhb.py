"""Recursive Hypergraph Bisection (RHB) — the paper's Algorithm (Fig. 2).

RHB permutes ``A`` (symmetrized) into doubly-bordered block-diagonal
form through the column-net hypergraph of a structural factor ``M``
with ``str(A) = str(M^T M)``:

1. form the column-net model of the current submatrix ``M(R, C)``;
2. from the second bisection on, derive dynamic vertex weights from the
   previous bisections (w1/w2 schemes of :mod:`repro.core.weights`);
3. bisect the rows with the multilevel multi-constraint hypergraph
   bisector;
4. descend the columns via net splitting (con1/soed) or net discarding
   (cnet), accumulating cut nets as separator columns;
5. recurse until ``k`` leaf parts exist.

A column (net) cut at any level becomes a separator vertex of ``A``;
each remaining column belongs to the leaf part holding all its rows.
The result converts directly into a :class:`repro.core.dbbd.DBBDPartition`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np
import scipy.sparse as sp

from repro.core.dbbd import SEPARATOR, DBBDPartition, build_dbbd
from repro.core.weights import WeightScheme, compute_vertex_weights
from repro.hypergraph import (
    Hypergraph,
    bisect_hypergraph,
    initial_net_costs,
    split_by_side,
)
from repro.hypergraph.metrics import CutMetric, check_metric
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sparse.patterns import row_nnz
from repro.sparse.structural import edge_incidence_factor
from repro.sparse.symmetrize import is_structurally_symmetric, symmetrized
from repro.utils import (
    SeedLike,
    check_csr,
    fraction,
    positive_int,
    rng_from,
)

__all__ = ["RHBResult", "rhb_partition"]


@dataclass
class RHBResult:
    """Outcome of RHB.

    Attributes
    ----------
    col_part:
        Part id per column of M (= vertex of A): [0, k) or -1 (separator).
    row_part:
        Leaf part id per row of M.
    k, metric, scheme:
        Configuration echoes.
    cut_costs:
        Metric cost charged at each bisection, recursion (pre)order.
    bisection_seconds / bisection_depths:
        Wall time and tree depth of each bisection, enabling the
        parallel-partitioning projection the paper lists as future work
        (:meth:`parallel_partition_seconds`).
    """

    col_part: np.ndarray
    row_part: np.ndarray
    k: int
    metric: CutMetric
    scheme: WeightScheme
    cut_costs: list[int] = field(default_factory=list)
    bisection_seconds: list[float] = field(default_factory=list)
    bisection_depths: list[int] = field(default_factory=list)

    @property
    def serial_partition_seconds(self) -> float:
        return float(sum(self.bisection_seconds))

    def parallel_partition_seconds(self, n_processes: int | None = None) -> float:
        """Projected wall time of a parallel RHB.

        The bisections at tree depth d are independent, so with enough
        processes the depth-d level costs its *maximum* bisection time;
        with ``n_processes`` limited, each level costs
        ``ceil(level_count / n_processes)`` rounds of its maximum (a
        simple bulk-synchronous bound). This is the projection for the
        paper's "investigate a parallel partitioner" future work.
        """
        if not self.bisection_seconds:
            return 0.0
        levels: dict[int, list[float]] = {}
        for t, d in zip(self.bisection_seconds, self.bisection_depths):
            levels.setdefault(d, []).append(t)
        total = 0.0
        for d in sorted(levels):
            ts = levels[d]
            if n_processes is None or n_processes >= len(ts):
                total += max(ts)
            else:
                rounds = -(-len(ts) // n_processes)
                total += rounds * max(ts)
        return total

    @property
    def separator_size(self) -> int:
        return int(np.count_nonzero(self.col_part == SEPARATOR))

    @property
    def total_cut_cost(self) -> int:
        return int(sum(self.cut_costs))

    def to_dbbd(self, A: sp.spmatrix, *, validate: bool = True) -> DBBDPartition:
        """Assemble the DBBD partition of ``A`` induced by ``col_part``."""
        return build_dbbd(A, self.col_part, self.k, validate=validate)


def rhb_partition(A: sp.spmatrix, k: int, *,
                  M: sp.spmatrix | None = None,
                  metric: CutMetric = "soed",
                  scheme: WeightScheme = "w1",
                  epsilon: float = 0.1,
                  seed: SeedLike = None,
                  n_trials: int = 4,
                  fm_passes: int = 8,
                  tracer: Tracer = NULL_TRACER,
                  verify=None,
                  backend=None) -> RHBResult:
    """Run RHB on ``A`` producing ``k`` subdomains plus separator.

    Parameters
    ----------
    A:
        Square sparse matrix; symmetrized internally (the paper works on
        ``|A| + |A|^T``).
    M:
        Structural factor with ``str(A) = str(M^T M)``. If omitted, the
        universal edge-incidence factor is used. FEM applications should
        pass their element-node incidence matrix (fewer, denser rows
        give the dynamic weights more signal).
    metric:
        ``"con1"``, ``"cnet"`` or ``"soed"`` (paper's most effective:
        soed/cnet with the single-constraint w1 scheme).
    scheme:
        Vertex-weight scheme; see :mod:`repro.core.weights`.
    epsilon:
        Allowed imbalance per bisection, Eq. (6).
    tracer:
        Records an ``rhb_partition`` span with one nested ``rhb_bisect``
        span per bisection (``depth`` attribute, ``cut_cost`` counter).
    verify:
        A :class:`repro.verify.Verifier` (or True for the default one)
        arms the partitioning invariant checks: dynamic vertex weights
        are recomputed from their Section III-C definitions at every
        bisection, and at the end the accumulated recursive cut cost
        must telescope to the flat unit-cost metric on the final row
        partition and every interior column must be consistent with its
        rows' leaf part.
    """
    k = positive_int(k, "k")
    epsilon = fraction(epsilon, "epsilon")
    check_metric(metric)
    A = check_csr(A)
    if not is_structurally_symmetric(A):
        A = symmetrized(A)
    if M is None:
        M = edge_incidence_factor(A)
    M = check_csr(M)
    if M.shape[1] != A.shape[0]:
        raise ValueError(
            f"M has {M.shape[1]} columns but A is {A.shape[0]}x{A.shape[0]}")
    rng = rng_from(seed)
    if verify is True:
        from repro.verify.invariants import Verifier
        verify = Verifier()
    verifier = verify if (verify is not None
                          and getattr(verify, "enabled", False)) else None

    n_rows, n_cols = M.shape
    H0 = Hypergraph.column_net_model(M)
    H0 = replace(H0, net_costs=initial_net_costs(H0.n_nets, metric))
    w2_full = row_nnz(M).astype(np.int64)

    col_part = np.full(n_cols, SEPARATOR, dtype=np.int64)
    row_part = np.zeros(n_rows, dtype=np.int64)
    is_sep = np.zeros(n_cols, dtype=bool)
    cut_costs: list[int] = []
    bis_seconds: list[float] = []
    bis_depths: list[int] = []

    def recurse(H: Hypergraph, row_ids: np.ndarray, k_here: int, low: int,
                depth: int) -> None:
        if k_here == 1 or H.n_vertices == 0:
            row_part[row_ids] = low
            for nid in np.unique(H.net_ids):
                if not is_sep[nid]:
                    col_part[nid] = low
            return
        weights = compute_vertex_weights(H, scheme, w2_full[row_ids],
                                         first_bisection=(depth == 0),
                                         net_internal=~is_sep[H.net_ids])
        if verifier is not None:
            verifier.after_weights(H, scheme, weights, w2_full[row_ids],
                                   first_bisection=(depth == 0),
                                   net_internal=~is_sep[H.net_ids])
        Hw = replace(H, vertex_weights=weights, _vtx_ptr=H.vtx_ptr,
                     _vtx_nets=H.vtx_nets, _net_of_pin=H.net_of_pin)
        k_left = k_here // 2
        with tracer.span("rhb_bisect", depth=depth,
                         n_vertices=H.n_vertices):
            t0 = perf_counter()
            res = bisect_hypergraph(Hw, epsilon=epsilon,
                                    target0=k_left / k_here, seed=rng,
                                    n_trials=n_trials, fm_passes=fm_passes,
                                    backend=backend)
            split = split_by_side(H, res.side, metric)
            bis_seconds.append(perf_counter() - t0)
            tracer.count("cut_cost", split.cut_cost)
        bis_depths.append(depth)
        is_sep[split.cut_net_ids] = True
        cut_costs.append(split.cut_cost)
        recurse(split.children[0], row_ids[split.vertex_ids[0]],
                k_left, low, depth + 1)
        recurse(split.children[1], row_ids[split.vertex_ids[1]],
                k_here - k_left, low + k_left, depth + 1)

    with tracer.span("rhb_partition", k=k, metric=metric, scheme=scheme):
        recurse(H0, np.arange(n_rows, dtype=np.int64), k, 0, 0)
        # columns cut anywhere stay separator even if a fragment reached
        # a leaf
        col_part[is_sep] = SEPARATOR
    if verifier is not None:
        verifier.after_rhb(H0, row_part, col_part, k, metric,
                           int(sum(cut_costs)))
    return RHBResult(col_part=col_part, row_part=row_part, k=k,
                     metric=metric, scheme=scheme, cut_costs=cut_costs,
                     bisection_seconds=bis_seconds,
                     bisection_depths=bis_depths)
