"""Dynamic vertex-weight schemes for RHB (paper Section III-C).

At every bisection step RHB re-derives vertex weights from the *current*
sub-hypergraph — this is what distinguishes it from a standard static
partitioning:

- ``w1(i) = nnz(M_l(i, :))`` — row i's nonzeros restricted to the
  current part's column set. ``sum_i w1(i)^2`` upper-bounds
  ``nnz(D_l)`` of the induced subdomain, so balancing w1 balances
  subdomain nonzeros after the next bisection.
- ``w2(i) = nnz(M(i, :))`` — row i's nonzeros in the whole matrix
  (static). ``sum_i (w2(i)^2 - w1(i)^2)`` bounds the nonzeros row i can
  contribute to interfaces/separator, so pairing w2 with w1 balances
  interface nonzeros.

Schemes:

- ``"unit"``      — unit weights everywhere (a standard partitioner);
- ``"w1"``        — single constraint, dynamic w1 (the paper's best);
- ``"w1w2"``      — multi-constraint (w1, w2);
- ``"w2"``        — single static w2 (ablation only; the paper notes
  this is equivalent to standard weighting and does not evaluate it).

The first bisection always uses unit weights (no prior information).
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.hypergraph.hypergraph import Hypergraph

__all__ = ["WeightScheme", "compute_vertex_weights", "VALID_SCHEMES"]

WeightScheme = Literal["unit", "w1", "w1w2", "w2"]
VALID_SCHEMES = ("unit", "w1", "w1w2", "w2")


def current_w1(H: Hypergraph,
               net_internal: np.ndarray | None = None) -> np.ndarray:
    """w1 per vertex: ``nnz(M_l(i, :))`` = the number of *internal*
    columns of the current part containing row i.

    Under net splitting (con1/soed) every original column survives as a
    fragment, so the raw vertex degree never changes; the paper's w1
    counts only columns that have not been cut into the border yet.
    ``net_internal`` (bool per net of ``H``) marks those; None counts
    every net (correct for cnet, where cut nets are discarded).
    """
    if net_internal is None:
        return np.diff(H.vtx_ptr).astype(np.int64)
    if net_internal.shape != (H.n_nets,):
        raise ValueError("net_internal must have one entry per net")
    w = np.zeros(H.n_vertices, dtype=np.int64)
    keep = net_internal[H.net_of_pin]
    np.add.at(w, H.pins[keep], 1)
    return w


def compute_vertex_weights(H: Hypergraph, scheme: WeightScheme,
                           global_row_nnz: np.ndarray, *,
                           first_bisection: bool,
                           net_internal: np.ndarray | None = None) -> np.ndarray:
    """(n, C) weight array for the bisection at this recursion node.

    Parameters
    ----------
    H:
        Current sub-hypergraph (vertices = rows of M in this part).
    global_row_nnz:
        w2 values for the vertices of ``H`` (already subset to this
        node's rows).
    first_bisection:
        Unit weights are used regardless of scheme on the first
        bisection, as in the paper.
    """
    if scheme not in VALID_SCHEMES:
        raise ValueError(f"scheme must be one of {VALID_SCHEMES}, got {scheme!r}")
    n = H.n_vertices
    if global_row_nnz.shape != (n,):
        raise ValueError("global_row_nnz must have one entry per vertex")
    if scheme == "unit" or first_bisection:
        return np.ones((n, 1), dtype=np.int64)
    if scheme == "w1":
        return np.maximum(current_w1(H, net_internal), 1).reshape(n, 1)
    if scheme == "w2":
        return np.maximum(global_row_nnz.astype(np.int64), 1).reshape(n, 1)
    # w1w2: multi-constraint
    w1 = np.maximum(current_w1(H, net_internal), 1)
    w2 = np.maximum(global_row_nnz.astype(np.int64), 1)
    return np.stack([w1, w2], axis=1)
