"""Hypergraph coarsening by heavy-connectivity matching (HCM).

Vertices sharing many (cheap-to-cut) nets are matched and contracted,
PaToH-style. Coarse nets are deduplicated: pins map through the
contraction, single-pin nets are dropped (they can never be cut, and a
projected fine partition keeps their pins together), and identical nets
merge with summed costs — all exact transformations for every cut
metric used here.
"""

from __future__ import annotations

import numpy as np

from repro.hypergraph.hypergraph import Hypergraph
from repro.utils import SeedLike, multilevel, rng_from
from repro.utils.multilevel import Level, concat_ranges, fine_to_coarse_map

__all__ = ["heavy_connectivity_matching", "contract_hypergraph",
           "coarsen_hypergraph"]


def heavy_connectivity_matching(H: Hypergraph, seed: SeedLike = None, *,
                                max_net_size: int = 200,
                                max_weight: np.ndarray | None = None) -> np.ndarray:
    """Match vertices by shared-net connectivity.

    Score(u, v) = sum over shared nets of cost/(|net| - 1); nets larger
    than ``max_net_size`` are skipped when scoring (they carry little
    locality signal and dominate cost). ``max_weight`` (shape (C,))
    caps each matched pair's combined weight per constraint.
    """
    rng = rng_from(seed)
    n = H.n_vertices
    # hot loops over pins: plain Python containers beat per-element
    # numpy indexing by a wide margin here
    match = [-1] * n
    score = [0.0] * n
    vertex_nets, net_pins, costs, vw = H.lists
    mw = None if max_weight is None else np.asarray(max_weight).ravel().tolist()
    n_c = H.n_constraints
    order = rng.permutation(n).tolist()
    for v in order:
        if match[v] >= 0:
            continue
        touched: list[int] = []
        for j in vertex_nets[v]:
            pins = net_pins[j]
            sz = len(pins)
            if sz < 2 or sz > max_net_size:
                continue
            w = costs[j] / (sz - 1.0)
            for u in pins:
                if u == v or match[u] >= 0:
                    continue
                if score[u] == 0.0:
                    touched.append(u)
                score[u] += w
        best, best_s = -1, 0.0
        wv = vw[v]
        for u in touched:
            ok = True
            if mw is not None:
                wu = vw[u]
                for c_i in range(n_c):
                    if wv[c_i] + wu[c_i] > mw[c_i]:
                        ok = False
                        break
            if ok and (score[u] > best_s or (score[u] == best_s and u < best)):
                best, best_s = u, score[u]
            score[u] = 0.0
        if best >= 0:
            match[v] = best
            match[best] = v
        else:
            match[v] = v
    return np.asarray(match, dtype=np.int64)


def _pin_hash(pins: np.ndarray) -> np.ndarray:
    """64-bit mix of each pin (splitmix64 finaliser), so that the
    wrapping sum over a net's distinct pins separates pin sets."""
    x = pins.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _group_identical_nets(ptr: np.ndarray, pins: np.ndarray) -> np.ndarray:
    """For nets given as CSR segments of sorted distinct pins: the index
    of the first net with the same pin set, per net."""
    n_nets = ptr.size - 1
    sizes = np.diff(ptr)
    # nets are non-empty here, so reduceat sees no empty segment
    key = np.add.reduceat(_pin_hash(pins), ptr[:-1]) + sizes.astype(np.uint64)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    first_same = first[inverse]
    dup = np.flatnonzero(first_same != np.arange(n_nets))
    # the hash only proposes groups; equality is checked pin by pin
    rep = first_same[dup]
    exact = np.array_equal(sizes[dup], sizes[rep]) and np.array_equal(
        pins[concat_ranges(ptr[dup], sizes[dup])],
        pins[concat_ranges(ptr[rep], sizes[dup])])
    return first_same if exact else _group_identical_nets_exact(ptr, pins)


def _group_identical_nets_exact(ptr: np.ndarray,
                                pins: np.ndarray) -> np.ndarray:
    """:func:`_group_identical_nets` by dictionary of pin bytes — the
    path taken when two different pin sets collide in the 64-bit key."""
    seen: dict[bytes, int] = {}
    bounds = ptr.tolist()
    return np.asarray(
        [seen.setdefault(pins[lo:hi].tobytes(), j)
         for j, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))],
        dtype=np.int64)


def contract_hypergraph(H: Hypergraph, match: np.ndarray) -> Level:
    """Contract matched pairs; dedupe pins, drop trivial nets, merge
    identical nets."""
    fine_to_coarse, nc = fine_to_coarse_map(np.asarray(match, dtype=np.int64))
    cvw = np.zeros((nc, H.n_constraints), dtype=np.int64)
    np.add.at(cvw, fine_to_coarse, H.vertex_weights)

    # map pins and drop repeats inside a net: one sort of (net, pin) keys
    stride = max(nc, 1)
    net, pins = np.divmod(
        np.unique(H.net_of_pin * stride + fine_to_coarse[H.pins]), stride)
    sizes = np.bincount(net, minlength=H.n_nets)
    # single-pin nets can never be cut
    live = np.flatnonzero(sizes > 1)
    pins = pins[np.repeat(sizes > 1, sizes)]
    sizes = sizes[live]
    ptr = np.zeros(live.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])

    # identical nets merge into the first of them, costs summed
    first_same = _group_identical_nets(ptr, pins)
    is_first = first_same == np.arange(live.size)
    new_costs = np.zeros(live.size, dtype=np.int64)
    np.add.at(new_costs, first_same, H.net_costs[live])
    new_ptr = np.zeros(int(is_first.sum()) + 1, dtype=np.int64)
    np.cumsum(sizes[is_first], out=new_ptr[1:])
    coarse = Hypergraph(
        net_ptr=new_ptr,
        pins=pins[np.repeat(is_first, sizes)],
        vertex_weights=cvw,
        net_costs=new_costs[is_first],
        net_ids=H.net_ids[live[is_first]],
    )
    return Level(coarse, fine_to_coarse)


def coarsen_hypergraph(H: Hypergraph, **stop) -> list[Level]:
    """:func:`repro.utils.multilevel.coarsen` by connectivity matching."""
    return multilevel.coarsen(H, heavy_connectivity_matching,
                              contract_hypergraph, **stop)
