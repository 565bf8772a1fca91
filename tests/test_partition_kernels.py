"""Property and regression tests of the multilevel bisector's kernels.

The golden file (test_symbolic_golden.py, ``partition/`` groups) pins
the array-native kernels to the partitions of the commit before the
rewrite; these pin them to what they mean — plain-loop references and
the cut oracles — on random hypergraphs the golden cases never saw:
duplicate nets, single-pin and empty nets, zero-cost nets, two balance
constraints.
"""

import heapq
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.hypergraph.coarsen as coarsen_module
from repro.graphs import Graph, compute_gains, fm_refine_bisection
from repro.hypergraph import (
    Hypergraph,
    bisect_hypergraph,
    bisection_cut,
    contract_hypergraph,
    fm_refine_hypergraph,
    split_by_side,
)
from repro.parallel.exec import Executor, TaskOutcome
from repro.utils.multilevel import GainQueue, fill_side0, fine_to_coarse_map
from repro.verify.oracles import cut_metrics_reference
from tests.conftest import grid_laplacian

# -- strategies ---------------------------------------------------------------


@st.composite
def hypergraphs(draw, max_vertices=14, max_nets=16):
    n = draw(st.integers(1, max_vertices))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    nets = []
    for _ in range(draw(st.integers(0, max_nets))):
        kind = rng.integers(0, 6)
        if kind == 0 and nets:
            nets.append(list(nets[rng.integers(len(nets))]))  # duplicate net
        elif kind == 1:
            nets.append([])                                   # empty net
        elif kind == 2:
            nets.append([int(rng.integers(n))])               # single pin
        else:
            size = int(rng.integers(2, n + 1)) if n > 1 else 1
            nets.append(rng.permutation(n)[:size].tolist())   # unsorted pins
    ptr = np.cumsum([0] + [len(p) for p in nets])
    pins = np.asarray([v for p in nets for v in p], dtype=np.int64)
    n_c = draw(st.integers(1, 2))
    return Hypergraph(
        net_ptr=ptr, pins=pins,
        vertex_weights=rng.integers(1, 5, (n, n_c)),
        net_costs=rng.integers(0, 4, len(nets)),          # zero-cost nets
        net_ids=rng.permutation(len(nets) + 3)[:len(nets)])


@st.composite
def matchings(draw, n):
    """A symmetric matching on n vertices (singletons as v or -1)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    match = np.arange(n)
    order = rng.permutation(n)
    for a, b in zip(order[0::2], order[1::2]):
        if rng.random() < 0.7:
            match[a], match[b] = b, a
    match[(match == np.arange(n)) & (rng.random(n) < 0.3)] = -1
    return match


def _sides(draw, n):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    return rng.integers(0, 2, n)


# -- plain-loop references ------------------------------------------------------


def contract_reference(H, match):
    n = H.n_vertices
    f2c, nc = [-1] * n, 0
    for v in range(n):
        if f2c[v] >= 0:
            continue
        f2c[v] = nc
        if match[v] != v and match[v] >= 0:
            f2c[match[v]] = nc
        nc += 1
    cvw = np.zeros((nc, H.n_constraints), dtype=np.int64)
    for v in range(n):
        cvw[f2c[v]] += H.vertex_weights[v]
    seen, nets = {}, []
    for j in range(H.n_nets):
        block = tuple(sorted({f2c[p] for p in H.net_pins(j)}))
        if len(block) <= 1:
            continue
        if block in seen:
            nets[seen[block]][1] += int(H.net_costs[j])
            continue
        seen[block] = len(nets)
        nets.append([block, int(H.net_costs[j]), int(H.net_ids[j])])
    return (np.cumsum([0] + [len(b) for b, _, _ in nets]),
            [p for b, _, _ in nets for p in b], cvw,
            [c for _, c, _ in nets], [i for _, _, i in nets], f2c)


def split_reference(H, side, metric):
    ids = [np.flatnonzero(side == s) for s in (0, 1)]
    local = np.empty(H.n_vertices, dtype=np.int64)
    for s in (0, 1):
        local[ids[s]] = np.arange(ids[s].size)
    out = [dict(ptr=[0], pins=[], costs=[], nids=[]) for _ in (0, 1)]
    cut_ids, cut_cost = [], 0

    def emit(s, net_pins, cost, nid):
        out[s]["pins"].extend(local[net_pins].tolist())
        out[s]["ptr"].append(len(out[s]["pins"]))
        out[s]["costs"].append(cost)
        out[s]["nids"].append(nid)

    for j in range(H.n_nets):
        p = H.net_pins(j)
        if p.size == 0:
            continue
        here = side[p]
        c, nid = int(H.net_costs[j]), int(H.net_ids[j])
        if here.min() == here.max():
            emit(int(here[0]), p, c, nid)
            continue
        cut_ids.append(nid)
        cut_cost += c
        if metric == "cnet":
            continue
        child = (c + 1) // 2 if metric == "soed" else c
        emit(0, p[here == 0], child, nid)
        emit(1, p[here == 1], child, nid)
    return out, ids, cut_ids, cut_cost


def _assert_contract_matches(H, match):
    level = contract_hypergraph(H, match)
    ptr, pins, cvw, costs, nids, f2c = contract_reference(H, match)
    C = level.coarse
    assert level.fine_to_coarse.tolist() == f2c
    assert C.net_ptr.tolist() == list(ptr)
    assert C.pins.tolist() == pins
    assert np.array_equal(C.vertex_weights, cvw)
    assert C.net_costs.tolist() == costs
    assert C.net_ids.tolist() == nids


# -- gain queue -----------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_gain_queue_pops_like_a_tuple_heap(data):
    """Against the loop FM used to run: a heapq of (-gain, v) tuples
    that gets one push per gain *update* (so it also holds entries for
    intermediate gains, and repeats) and skips locked / stale entries
    on pop. The queue gets one push per *move*, at the final gain,
    sometimes with repeats. A popped vertex is either moved (locked,
    neighbours' gains updated) or rejected; a rejected entry is
    consumed, not re-queued, and — feasibility being a function of the
    state, which only a move changes — stays rejected until the next
    move however many copies of it either structure holds."""
    n = data.draw(st.integers(1, 10))
    gains = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    queue = GainQueue(np.asarray(gains, dtype=np.int64))
    model_gains = list(gains)
    model_locked = [False] * n
    heap = [(-g, v) for v, g in enumerate(gains)]
    heapq.heapify(heap)
    rejected: set[int] = set()

    def model_pop():
        while heap:
            ng, v = heapq.heappop(heap)
            if not model_locked[v] and -ng == model_gains[v]:
                return v
        return -1

    def candidate(pop):
        while True:
            v = pop()
            if v not in rejected:
                return v

    update = st.tuples(st.integers(0, n - 1), st.integers(-2, 2))
    steps = data.draw(st.lists(
        st.tuples(st.booleans(), st.lists(update, max_size=6), st.booleans()),
        max_size=40))
    for accept, updates, dedupe in steps:
        v = candidate(queue.pop)
        assert v == candidate(model_pop)
        if v < 0:
            break
        if not accept:
            rejected.add(v)
            continue
        rejected.clear()
        queue.locked[v] = 1
        model_locked[v] = True
        touched = []
        for u, delta in updates:
            if model_locked[u]:
                continue
            model_gains[u] += delta
            heapq.heappush(heap, (-model_gains[u], u))
            queue.gains[u] += delta
            touched.append(u)
        queue.push(set(touched) if dedupe else touched)
    while True:                       # drain
        v = candidate(queue.pop)
        assert v == candidate(model_pop)
        if v < 0:
            break
        rejected.add(v)


# -- structure kernels ------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_contract_equals_plain_loop(data):
    H = data.draw(hypergraphs())
    _assert_contract_matches(H, data.draw(matchings(H.n_vertices)))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_contract_hash_collision_falls_back_to_exact_grouping(data):
    H = data.draw(hypergraphs())
    match = data.draw(matchings(H.n_vertices))
    real = coarsen_module._pin_hash
    coarsen_module._pin_hash = lambda pins: np.zeros(pins.size, np.uint64)
    try:
        _assert_contract_matches(H, match)
    finally:
        coarsen_module._pin_hash = real


def test_matching_must_be_symmetric():
    with pytest.raises(ValueError, match="symmetrically"):
        fine_to_coarse_map(np.array([1, 2, 2]))
    with pytest.raises(ValueError, match="symmetrically"):
        fine_to_coarse_map(np.array([0, 5]))
    f2c, nc = fine_to_coarse_map(np.array([2, -1, 0, 3]))
    assert (f2c.tolist(), nc) == ([0, 1, 0, 2], 3)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_split_by_side_equals_plain_loop(data):
    H = data.draw(hypergraphs())
    side = _sides(data.draw, H.n_vertices)
    metric = data.draw(st.sampled_from(["con1", "cnet", "soed"]))
    out, ids, cut_ids, cut_cost = split_reference(H, side, metric)
    split = split_by_side(H, side, metric)
    assert split.cut_net_ids.tolist() == cut_ids
    assert split.cut_cost == cut_cost
    for s in (0, 1):
        child = split.children[s]
        assert np.array_equal(split.vertex_ids[s], ids[s])
        assert child.net_ptr.tolist() == out[s]["ptr"]
        assert child.pins.tolist() == out[s]["pins"]
        assert child.net_costs.tolist() == out[s]["costs"]
        assert child.net_ids.tolist() == out[s]["nids"]
        assert np.array_equal(child.vertex_weights,
                              H.vertex_weights[ids[s]])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 30),
       st.floats(0.0, 1.0))
def test_fill_side0_equals_plain_loop(seed, n, frac):
    rng = np.random.default_rng(seed)
    w = rng.integers(0, 5, n)
    order = rng.permutation(n)
    goal = frac * max(1, int(w.sum()))
    side = np.ones(n, dtype=np.int64)
    acc = 0
    for v in order:
        if acc >= goal:
            break
        side[v] = 0
        acc += int(w[v])
    assert np.array_equal(fill_side0(order, w, goal), side)


# -- FM ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_hypergraph_fm_never_worsens_and_reports_its_cut(data):
    H = data.draw(hypergraphs())
    side = _sides(data.draw, H.n_vertices)
    slack = data.draw(st.sampled_from([0.5, 0.6, 1.0]))
    caps = np.tile(slack * H.total_weight().astype(np.float64), (2, 1))
    before = side.copy()
    refined, cut = fm_refine_hypergraph(H, side, caps=caps)
    assert np.array_equal(side, before), "input side must not be mutated"
    assert cut <= bisection_cut(H, side)
    assert cut == cut_metrics_reference(H, refined, 2)["cnet"]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 14))
def test_graph_fm_never_worsens_and_reports_its_cut(seed, n):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.integers(0, 4, (n, n)) * (rng.random((n, n)) < 0.4), 1)
    W = upper + upper.T
    rows, cols = np.nonzero(W)
    g = Graph(np.r_[0, np.cumsum(np.bincount(rows, minlength=n))], cols,
              W[rows, cols], rng.integers(1, 4, n))
    side = rng.integers(0, 2, n)
    refined, cut = fm_refine_bisection(
        g, side, max_part_weight=0.6 * g.total_vertex_weight)
    assert cut <= g.edge_cut(side)
    assert cut == sum(int(W[a, b]) for a in range(n) for b in range(a)
                      if refined[a] != refined[b])


def test_graph_gains_exact_beyond_2_53():
    # a float64 accumulator rounds 2^53 + 1 away before adding the 2
    big = 2**53 + 1
    g = Graph([0, 1, 3, 4], [1, 0, 2, 1], [big, big, 2, 2], [1, 1, 1])
    assert compute_gains(g, np.array([0, 1, 0])).tolist() == \
        [big, big + 2, 2]
    assert compute_gains(g, np.array([0, 0, 1])).tolist() == \
        [-big, 2 - big, 2]


@pytest.mark.parametrize("side", [np.zeros(5, dtype=np.int64),
                                  np.array([0, 1, 2, 0, 1, 1]),
                                  np.array([0, 1, -1, 0, 1, 1])])
def test_hypergraph_fm_rejects_a_bad_side(side):
    H = Hypergraph.from_arrays([0, 3, 6], [0, 1, 2, 3, 4, 5], 6)
    with pytest.raises(ValueError,
                       match="side must be a 0/1 array with one entry per "
                             "vertex"):
        fm_refine_hypergraph(H, side, caps=np.full((2, 1), 6.0))


# -- list caches: lifetime and the process backend ----------------------------------

# what the parent commit 88f63c1 ships for the bisection below, whatever
# the pool size: four _TrialTask pickles (one per trial) of 266341 bytes
# each at protocol 4 (python 3.11, numpy 2.4; pickle framing moves by a
# few bytes between numpy majors, so the bound is held on numpy 2 only).
# Here: 266985 bytes in all on one worker, 533118 on two, 1065380 on four.
PARENT_TRIAL_TASK_BYTES = 266341
N_TRIALS = 4


class _RecordingPool(Executor):
    """A non-inline backend that ships every payload through pickle,
    the way a worker process receives it, and keeps what it saw."""

    def __init__(self, workers):
        super().__init__(workers)
        self.shipped_bytes = []
        self.received = []

    def map(self, fn, payloads, **_):
        out = []
        for i, payload in enumerate(payloads):
            wire = pickle.dumps(payload, protocol=4)
            self.shipped_bytes.append(len(wire))
            there = pickle.loads(wire)
            self.received.append(there)
            lists_on_arrival = [H._lists for H in _hypergraphs(there)]
            out.append(TaskOutcome(index=i, value=fn(there)))
            assert lists_on_arrival == [None] * len(lists_on_arrival)
        return out


def _hypergraphs(task):
    return [task.fine] + [lv.coarse for lv in task.levels]


def _bisect(backend):
    H = Hypergraph.column_net_model(grid_laplacian(24, 24))
    return bisect_hypergraph(H, seed=0, n_trials=N_TRIALS, coarsen_min=48,
                             backend=backend)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_shipped_trials_carry_no_lists_and_rebuild_them_lazily(workers):
    pool = _RecordingPool(workers)
    shipped = _bisect(pool)
    inline = _bisect(None)
    assert np.array_equal(shipped.side, inline.side)
    assert shipped.cut == inline.cut
    # one task per worker, each with its share of the trials
    assert len(pool.received) == workers
    assert sum(len(t.rngs) for t in pool.received) == N_TRIALS
    for task in pool.received:
        # built worker-side, on first use, once for all trials of the task
        assert all(H._lists is not None for H in _hypergraphs(task))
    if np.__version__.startswith("2."):
        # the parent shipped the multilevel state once per trial; a task
        # holds it once per worker, plus 4 bytes of list framing and the
        # extra generators of its chunk (under 300 bytes each)
        for task, size in zip(pool.received, pool.shipped_bytes):
            assert size <= PARENT_TRIAL_TASK_BYTES + 4 \
                + 300 * (len(task.rngs) - 1)


def test_pickled_hypergraph_is_the_same_size_with_and_without_lists():
    H = Hypergraph.column_net_model(grid_laplacian(24, 24))
    H.vtx_ptr                     # the array caches do travel, as before
    cold = len(pickle.dumps(H, protocol=4))
    assert H.lists.net_pins and H._lists is not None
    assert len(pickle.dumps(H, protocol=4)) == cold
    assert pickle.loads(pickle.dumps(H))._lists is None
    g = Graph.from_matrix(grid_laplacian(24, 24))
    cold = len(pickle.dumps(g, protocol=4))
    assert g.lists.neighbors and g._lists is not None
    assert len(pickle.dumps(g, protocol=4)) == cold


def test_bisection_frees_the_lists_of_its_finest_level():
    H = Hypergraph.column_net_model(grid_laplacian(12, 12))
    bisect_hypergraph(H, seed=0, n_trials=2)
    assert H._lists is None
