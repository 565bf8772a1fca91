"""Shared experiment plumbing: partition runners, triangular-solve
study setup, and plain-text table rendering used by every bench."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.core import build_dbbd, rhb_partition
from repro.core.dbbd import DBBDPartition, PartitionQuality
from repro.graphs import nested_dissection_partition
from repro.lu import SupernodalLower, factorize, solution_pattern
from repro.matrices import GeneratedMatrix
from repro.solver.interfaces import SubdomainInterfaces, extract_interfaces
from repro.solver.partasks import order_subdomain
from repro.utils import SeedLike

__all__ = [
    "PartitionRun", "run_partitioner",
    "SubdomainTriangular", "prepare_triangular_study",
    "render_table",
]


@dataclass
class PartitionRun:
    """One partitioner invocation and its quality metrics."""

    label: str
    partition: DBBDPartition
    quality: PartitionQuality
    seconds: float


def run_partitioner(gm: GeneratedMatrix, k: int, *, method: str,
                    metric: str = "soed", scheme: str = "w1",
                    epsilon: float = 0.1, seed: SeedLike = 0,
                    n_trials: int = 2) -> PartitionRun:
    """Run RHB or NGD on a generated matrix and score the partition."""
    t0 = time.perf_counter()
    if method == "rhb":
        r = rhb_partition(gm.A, k, M=gm.M, metric=metric, scheme=scheme,
                          epsilon=epsilon, seed=seed, n_trials=n_trials)
        part = r.col_part
        label = f"RHB-{metric}/{scheme}"
    elif method == "ngd":
        r = nested_dissection_partition(gm.A, k, epsilon=min(epsilon, 0.2),
                                        seed=seed, n_trials=n_trials)
        part = r.part
        label = "NGD"
    else:
        raise ValueError(f"method must be 'rhb' or 'ngd', got {method!r}")
    seconds = time.perf_counter() - t0
    dbbd = build_dbbd(gm.A, part, k)
    return PartitionRun(label=label, partition=dbbd,
                        quality=dbbd.quality(), seconds=seconds)


@dataclass
class SubdomainTriangular:
    """Factored subdomain ready for RHS-reordering studies (Fig. 4/5)."""

    interfaces: SubdomainInterfaces
    perm: np.ndarray
    L: sp.csc_matrix
    snl: SupernodalLower
    E_factored: sp.csr_matrix        # E^ rows in factored positions
    G_pattern: sp.csr_matrix         # str(L^{-1} P E^)


def prepare_triangular_study(gm: GeneratedMatrix, *, k: int = 8,
                             seed: SeedLike = 0,
                             diag_pivot_thresh: float = 0.0,
                             pattern_method: str = "etree"
                             ) -> list[SubdomainTriangular]:
    """Paper Section V-B setup: NGD with k subdomains, minimum-degree +
    e-tree postorder per subdomain, factor, and symbolic G per
    subdomain.

    ``pattern_method`` selects how G is predicted: "etree" (the paper's
    fill-path model, fast) or "reach" (exact DAG reachability)."""
    r = nested_dissection_partition(gm.A, k, seed=seed)
    dbbd = build_dbbd(gm.A, r.part, k)
    out: list[SubdomainTriangular] = []
    for ell in range(k):
        sub = extract_interfaces(dbbd, ell)
        perm = order_subdomain(sub.D)
        Dp = sub.D[perm][:, perm].tocsc()
        f = factorize(Dp, diag_pivot_thresh=diag_pivot_thresh)
        Ep = f.permute_rows(sub.E_hat[perm].tocsr())
        Gpat = solution_pattern(f.L, Ep, method=pattern_method)
        snl = SupernodalLower.from_csc(f.L, unit_diagonal=True)
        out.append(SubdomainTriangular(interfaces=sub, perm=perm, L=f.L,
                                       snl=snl, E_factored=Ep,
                                       G_pattern=Gpat))
    return out


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 *, title: str = "") -> str:
    """Fixed-width plain-text table (benches print these)."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in r] for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(v: object) -> str:
    if isinstance(v, float):
        if v != v:  # nan
            return "-"
        if abs(v) >= 1000 or (abs(v) < 1e-3 and v != 0):
            return f"{v:.3g}"
        return f"{v:.3f}".rstrip("0").rstrip(".")
    return str(v)
