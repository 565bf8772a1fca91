"""Cutsize metrics: connectivity-1, cut-net, sum-of-external-degrees.

Implements Eqs. (7)-(9) of the paper. All three take a k-way part
assignment of the vertices and reduce over nets using each net's
connectivity ``lambda(j)`` (number of parts its pins touch).
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.hypergraph.hypergraph import Hypergraph
from repro.utils import check_partition_vector

__all__ = ["CutMetric", "check_metric", "net_connectivities", "cutsize",
           "imbalance", "part_weights"]

CutMetric = Literal["con1", "cnet", "soed"]

_VALID_METRICS = ("con1", "cnet", "soed")


def check_metric(metric: str) -> None:
    """Raise ``ValueError`` unless ``metric`` names a :data:`CutMetric`."""
    if metric not in _VALID_METRICS:
        raise ValueError(f"metric must be one of {_VALID_METRICS}, "
                         f"got {metric!r}")


def net_connectivities(H: Hypergraph, part: np.ndarray, k: int) -> np.ndarray:
    """lambda(j) for every net under the given k-way part assignment.

    Empty nets have connectivity 0.
    """
    part = check_partition_vector(part, H.n_vertices, k)
    lam = np.zeros(H.n_nets, dtype=np.int64)
    if H.n_pins == 0:
        return lam
    net_of_pin = np.repeat(np.arange(H.n_nets), H.net_sizes())
    pin_parts = part[H.pins]
    # count distinct (net, part) pairs
    keys = net_of_pin * np.int64(k) + pin_parts
    lam_flat = np.unique(keys)
    np.add.at(lam, lam_flat // k, 1)
    return lam


def cutsize(H: Hypergraph, part: np.ndarray, k: int,
            metric: CutMetric = "con1", *, verify: bool = False) -> int:
    """Cutsize of a k-way partition under the chosen metric.

    - ``con1``: sum of cost(j) * (lambda(j) - 1)           (Eq. 7)
    - ``cnet``: sum of cost(j) over nets with lambda > 1   (Eq. 8)
    - ``soed``: sum of cost(j) * lambda(j) over cut nets   (Eq. 9)

    Note: the *recursive-bisection* soed implementation in
    :mod:`repro.hypergraph.bisect` realizes this metric through the
    cost-2/halve-on-cut construction described in Section III-C;
    this function is the direct (flat) definition used to verify it.

    ``verify=True`` cross-checks the vectorized connectivity reduction
    against the plain-loop reference of :mod:`repro.verify.oracles`
    (including the soed = con1 + cnet identity) and raises
    :class:`repro.verify.VerificationError` on disagreement.
    """
    check_metric(metric)
    lam = net_connectivities(H, part, k)
    c = H.net_costs
    if metric == "con1":
        val = int((c * np.maximum(lam - 1, 0)).sum())
    elif metric == "cnet":
        val = int(c[lam > 1].sum())
    else:
        val = int((c * lam)[lam > 1].sum())
    if verify:
        from repro.verify.invariants import VerificationError
        from repro.verify.oracles import cut_metrics_reference
        ref = cut_metrics_reference(H, part, k)
        if val != ref[metric]:
            raise VerificationError(
                "metrics.cutsize",
                f"vectorized {metric} = {val} disagrees with the "
                f"plain-loop reference {ref[metric]}")
        if ref["soed"] != ref["con1"] + ref["cnet"]:
            raise VerificationError(
                "metrics.soed-identity",
                f"soed {ref['soed']} != con1 {ref['con1']} + cnet "
                f"{ref['cnet']}")
    return val


def part_weights(H: Hypergraph, part: np.ndarray, k: int) -> np.ndarray:
    """(k, C) per-part per-constraint weights."""
    part = check_partition_vector(part, H.n_vertices, k)
    W = np.zeros((k, H.n_constraints), dtype=np.int64)
    np.add.at(W, part, H.vertex_weights)
    return W


def imbalance(H: Hypergraph, part: np.ndarray, k: int) -> np.ndarray:
    """Per-constraint imbalance (Wmax - Wavg)/Wavg, Eq. (6). Shape (C,)."""
    W = part_weights(H, part, k)
    wavg = W.sum(axis=0) / float(k)
    out = np.zeros(H.n_constraints)
    nz = wavg > 0
    out[nz] = (W.max(axis=0)[nz] - wavg[nz]) / wavg[nz]
    return out
