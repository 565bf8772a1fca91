"""Fiduccia-Mattheyses refinement for hypergraph bisections.

Implements the canonical FM cell-move algorithm with the original
critical-net gain-update rules, generalized to:

- weighted nets (net costs, as required by the soed construction);
- multi-constraint vertex weights with per-side caps (the RHB
  multi-constraint bisection of Section III-C);
- a lazy max-gain queue (:class:`repro.utils.multilevel.GainQueue`) with
  rollback to the best prefix of each pass;
- the exact-quota repair (:func:`enforce_exact_quota`), which moves the
  highest-gain vertices.
"""

from __future__ import annotations

import numpy as np

from repro.hypergraph.hypergraph import Hypergraph
from repro.utils import as_int_array
from repro.utils.multilevel import GainQueue

__all__ = ["fm_refine_hypergraph", "bisection_cut", "hypergraph_gains",
           "enforce_exact_quota"]


def as_side(H: Hypergraph, side: np.ndarray) -> np.ndarray:
    """``side`` as an int64 array, checked to hold one 0/1 entry per
    vertex of ``H`` (the side counts below index with it)."""
    side = as_int_array(side, "side")
    if side.shape != (H.n_vertices,) or np.any((side != 0) & (side != 1)):
        raise ValueError("side must be a 0/1 array with one entry per vertex")
    return side


def bisection_cut(H: Hypergraph, side: np.ndarray) -> int:
    """Total cost of nets with pins on both sides.

    One vectorized reduction over the per-net side counts: a net is cut
    exactly when it has pins on side 0 *and* side 1 (empty nets have
    neither, so they contribute nothing).
    """
    sigma = _side_counts(H, as_side(H, side))
    return int(H.net_costs[(sigma[0] > 0) & (sigma[1] > 0)].sum())


def hypergraph_gains(H: Hypergraph, side: np.ndarray,
                     sigma: np.ndarray) -> np.ndarray:
    """Initial FM gains given per-net side counts ``sigma`` (2, n_nets).

    Vectorized over pins: a pin (v in net j) contributes +cost(j) when v
    is the only pin of j on its side and j is cut (moving v uncuts it),
    and -cost(j) when j lies entirely on v's side with other pins
    (moving v cuts it).
    """
    n = H.n_vertices
    if H.n_pins == 0:
        return np.zeros(n, dtype=np.int64)
    nop = H.net_of_pin
    s_pin = side[H.pins]
    sig_own = sigma[s_pin, nop]
    sig_other = sigma[1 - s_pin, nop]
    c = H.net_costs[nop]
    contrib = np.where((sig_own == 1) & (sig_other > 0), c, 0) \
        - np.where((sig_other == 0) & (sig_own > 1), c, 0)
    # accumulate in int64: np.bincount(weights=...) sums in float64,
    # which silently rounds once net costs exceed 2^53
    gains = np.zeros(n, dtype=np.int64)
    np.add.at(gains, H.pins, contrib.astype(np.int64, copy=False))
    return gains


def _side_counts(H: Hypergraph, side: np.ndarray) -> np.ndarray:
    on_1 = np.bincount(H.net_of_pin[side[H.pins] == 1], minlength=H.n_nets)
    return np.stack([H.net_sizes() - on_1, on_1])


def enforce_exact_quota(H: Hypergraph, side: np.ndarray, quota0: int) -> np.ndarray:
    """Move minimum-damage vertices across the cut until side 0 holds
    exactly ``quota0`` vertices.

    Vertices are chosen by FM gain (highest gain first), so the repair
    degrades the cut as little as possible. Used with unit weights.
    """
    side = side.copy()
    count0 = int(np.count_nonzero(side == 0))
    if count0 == quota0:
        return side
    src = 0 if count0 > quota0 else 1
    deficit = abs(count0 - quota0)
    gains = hypergraph_gains(H, side, _side_counts(H, side))
    candidates = np.flatnonzero(side == src)
    order = candidates[np.argsort(-gains[candidates], kind="stable")]
    side[order[:deficit]] = 1 - src
    return side


def fm_refine_hypergraph(H: Hypergraph, side: np.ndarray,
                         caps: np.ndarray, max_passes: int = 8, *,
                         stall_limit: int = 300) -> tuple[np.ndarray, int]:
    """Refine a 0/1 side assignment; returns ``(side, cut)``.

    Parameters
    ----------
    caps:
        ``(2, C)`` array of per-side per-constraint weight ceilings.
    """
    side = as_side(H, side).copy()
    caps = np.atleast_2d(np.asarray(caps, dtype=np.float64))
    if caps.shape != (2, H.n_constraints):
        raise ValueError(f"caps must have shape (2, {H.n_constraints})")
    # side / sigma / W stay arrays from pass to pass. A pass works on
    # list copies (per-element numpy indexing would dominate the move
    # loop; C is 1 or 2, so reductions per candidate cost more than
    # they save) and only its kept prefix is applied back to the arrays
    # — the rolled-back tail, usually most of the pass, is never undone.
    W = np.zeros((2, H.n_constraints), dtype=np.int64)
    np.add.at(W, side, H.vertex_weights)
    sigma = _side_counts(H, side)
    cut = int(H.net_costs[(sigma[0] > 0) & (sigma[1] > 0)].sum())
    vertex_nets, net_pins, costs_l, vw_l = H.lists
    n_c = H.n_constraints
    caps_l: list[list[float]] = caps.tolist()

    for _ in range(max_passes):
        queue = GainQueue(hypergraph_gains(H, side, sigma))
        gains, locked = queue.gains, queue.locked
        side_l: list[int] = side.tolist()
        sig0, sig1 = sigma.tolist()
        W_l: list[list[int]] = W.tolist()
        best_cut = cur_cut = cut
        trail: list[int] = []
        best_len = 0
        stall = 0
        while stall < stall_limit:
            v = queue.pop()
            if v < 0:
                break
            s = side_l[v]
            t = 1 - s
            wv = vw_l[v]
            Wt, Ws, ct, cs = W_l[t], W_l[s], caps_l[t], caps_l[s]
            feasible = True
            for c_i in range(n_c):
                if Wt[c_i] + wv[c_i] > ct[c_i]:
                    feasible = False
                    break
            if not feasible:
                for c_i in range(n_c):
                    if Ws[c_i] > cs[c_i]:
                        feasible = True
                        break
            if not feasible:
                continue  # discarded, not re-queued
            locked[v] = 1
            sig_s = sig0 if s == 0 else sig1
            sig_t = sig1 if s == 0 else sig0
            touched: list[int] = []
            # canonical FM critical-net updates around the move of v
            for j in vertex_nets[v]:
                c = costs_l[j]
                # before the move
                if sig_t[j] == 0:
                    cur_cut += c  # net becomes cut
                    for u in net_pins[j]:
                        if u != v and not locked[u]:
                            gains[u] += c
                            touched.append(u)
                elif sig_t[j] == 1:
                    for u in net_pins[j]:
                        if side_l[u] == t and not locked[u]:
                            gains[u] -= c
                            touched.append(u)
                            break
                sig_s[j] -= 1
                sig_t[j] += 1
                # after the move
                if sig_s[j] == 0:
                    cur_cut -= c  # net now entirely on t (uncut)
                    for u in net_pins[j]:
                        if u != v and not locked[u]:
                            gains[u] -= c
                            touched.append(u)
                elif sig_s[j] == 1:
                    for u in net_pins[j]:
                        if side_l[u] == s and not locked[u]:
                            gains[u] += c
                            touched.append(u)
                            break
            # once per touched vertex, at its final gain: the entries an
            # update-by-update push would add for the intermediate gains
            # could never be popped as current
            queue.push(set(touched))
            side_l[v] = t
            for c_i in range(n_c):
                Ws[c_i] -= wv[c_i]
                Wt[c_i] += wv[c_i]
            trail.append(v)
            if cur_cut < best_cut:
                best_cut = cur_cut
                best_len = len(trail)
                stall = 0
            else:
                stall += 1
        if best_cut >= cut:
            break
        cut = best_cut
        kept = np.asarray(trail[:best_len], dtype=np.int64)
        src = side[kept]
        np.subtract.at(W, src, H.vertex_weights[kept])
        np.add.at(W, 1 - src, H.vertex_weights[kept])
        side[kept] = 1 - src
        sigma = _side_counts(H, side)
    return side, cut
