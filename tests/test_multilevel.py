"""The shared multilevel V-cycle (``repro.utils.multilevel``) under both
engines: the coarsening stop rules and weight cap, ``Level.project``,
the best-of-trials order, and trial shipping through a pool."""

import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.graphs import Graph
from repro.graphs.bisect import GRAPH
from repro.hypergraph import Hypergraph
from repro.hypergraph.bisect import HYPERGRAPH
from repro.parallel.exec import Executor, TaskOutcome
from repro.resilience.errors import WorkerCrashError
from repro.utils import multilevel, spawn
from tests.conftest import grid_laplacian


def _graph_case():
    g = Graph.from_matrix(grid_laplacian(24, 24))
    total = g.total_vertex_weight
    return GRAPH, g, (0.525 * total, 0.525 * total), 12


def _hypergraph_case():
    H = Hypergraph.column_net_model(grid_laplacian(24, 24))
    n = H.n_vertices
    H = Hypergraph.from_arrays(
        H.net_ptr, H.pins, n, vertex_weights=np.stack(
            [np.ones(n, dtype=np.int64), 1 + np.arange(n) % 3], axis=1))
    caps = 0.525 * np.vstack([H.total_weight(), H.total_weight()])
    return HYPERGRAPH, H, caps, np.array([12, 18])


CASES = {"graph": _graph_case, "hypergraph": _hypergraph_case}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]()


def _weights(fine):
    return fine.vertex_weights.reshape(fine.n_vertices, -1)


def _coarsen(engine, fine, max_weight, **kw):
    return multilevel.coarsen(fine, engine.match, engine.contract, seed=0,
                              max_weight=max_weight, **kw)


@pytest.mark.parametrize("floor", [0.95, 0.7])
def test_every_kept_level_shrinks_below_the_floor(case, floor):
    engine, fine, _, max_weight = case
    levels = _coarsen(engine, fine, max_weight, min_vertices=8,
                      reduction_floor=floor)
    assert levels
    sizes = [fine.n_vertices] + [lv.coarse.n_vertices for lv in levels]
    for before, after in zip(sizes, sizes[1:]):
        assert after < floor * before


def test_coarsening_stops_at_min_vertices_and_max_levels(case):
    engine, fine, _, max_weight = case
    levels = _coarsen(engine, fine, max_weight, min_vertices=100)
    assert levels[-1].coarse.n_vertices <= 100
    assert all(lv.coarse.n_vertices > 100 for lv in levels[:-1])
    assert len(_coarsen(engine, fine, max_weight, max_levels=2)) == 2
    assert _coarsen(engine, fine, max_weight,
                    min_vertices=fine.n_vertices) == []


def test_coarse_weights_respect_max_weight_per_constraint(case):
    engine, fine, _, max_weight = case
    cap = np.broadcast_to(max_weight, _weights(fine).shape[1:])
    cur = fine
    for lv in _coarsen(engine, fine, max_weight, min_vertices=8):
        w = _weights(lv.coarse)
        assert np.all(w <= cap)
        # contraction conserves every constraint's total
        assert np.array_equal(w.sum(axis=0), _weights(cur).sum(axis=0))
        cur = lv.coarse


def test_project_agrees_with_the_fine_to_coarse_map(case):
    engine, fine, _, max_weight = case
    levels = _coarsen(engine, fine, max_weight, min_vertices=8)
    label = np.random.default_rng(1).integers(
        0, 2, levels[-1].coarse.n_vertices)
    composed = label
    for lv in reversed(levels):
        projected = lv.project(composed)
        assert projected.shape == lv.fine_to_coarse.shape
        for v, c in enumerate(lv.fine_to_coarse.tolist()):
            assert projected[v] == composed[c]
        composed = projected
    assert composed.shape == (fine.n_vertices,)


def _result(cut, weights):
    return SimpleNamespace(cut=cut, part_weights=weights)


@pytest.mark.parametrize("caps, weights", [
    ((10.0, 10.0), [(10, 10), (11, 9), (9, 9), (9, 10)]),
    (np.full((2, 2), 10.0), [np.array([[10, 10], [10, 10]]),
                             np.array([[11, 9], [9, 9]]),
                             np.array([[9, 9], [9, 9]]),
                             np.array([[9, 10], [9, 9]])])])
def test_rank_orders_feasible_then_cut_then_heaviest_side(caps, weights):
    at_cap, over, light, heavier = weights
    rank = lambda r: multilevel.rank(r, caps)      # noqa: E731
    # within the caps beats any cut outside them
    assert rank(_result(50, at_cap)) < rank(_result(1, over))
    # among feasible sides the cut decides, whatever the balance
    assert rank(_result(3, at_cap)) < rank(_result(4, light))
    # equal cuts: the lighter heaviest side wins
    assert rank(_result(3, light)) < rank(_result(3, heavier))
    # a full tie keeps the earlier trial (min is stable)
    first, second = _result(3, light), _result(3, light)
    assert min([first, second], key=rank) is first


class _RecordingPool(Executor):
    """A non-inline backend that ships each payload through pickle, as a
    worker process receives it; ``crash`` lists task indices that come
    back as worker crashes."""

    def __init__(self, workers, crash=()):
        super().__init__(workers)
        self.tasks = []
        self.crash = set(crash)

    def map(self, fn, payloads, **_):
        out = []
        for i, payload in enumerate(payloads):
            there = pickle.loads(pickle.dumps(payload, protocol=4))
            self.tasks.append(there)
            if i in self.crash:
                out.append(TaskOutcome(index=i, error=WorkerCrashError(
                    "worker died")))
            else:
                run = pickle.loads(pickle.dumps(fn))  # the function ships too
                value = pickle.loads(pickle.dumps(run(there)))
                out.append(TaskOutcome(index=i, value=value))
        return out


def _bisect(case, backend):
    engine, fine, caps, max_weight = case
    return multilevel.bisect(engine, fine, caps, max_weight=max_weight,
                             target0=0.5, seed=3, n_trials=5,
                             coarsen_min=40, fm_passes=4, backend=backend)


@pytest.mark.parametrize("workers, crash", [(2, ()), (3, ()), (2, (1,))])
def test_pooled_bisection_is_bit_identical_to_inline(case, workers, crash):
    pool = _RecordingPool(workers, crash)
    shipped = _bisect(case, pool)
    inline = _bisect(case, None)
    assert shipped.side.tobytes() == inline.side.tobytes()
    assert shipped.cut == inline.cut
    assert np.array_equal(shipped.part_weights, inline.part_weights)
    # one task per worker, holding that worker's share of the trials
    assert len(pool.tasks) == workers
    assert sum(len(t.rngs) for t in pool.tasks) == 5


def test_inline_bisection_is_the_best_of_its_trials(case):
    engine, fine, caps, _ = case
    best = _bisect(case, None)
    rng = np.random.default_rng(3)
    levels = multilevel.coarsen(fine, engine.match, engine.contract,
                                min_vertices=40, seed=rng,
                                max_weight=case[3])
    children = spawn(rng, 5)
    trials = multilevel.run_trials(engine, caps, 0.5, 4, None,
                                   multilevel.TrialTask(fine, levels,
                                                        children))
    ranks = [multilevel.rank(r, caps) for r in trials]
    assert multilevel.rank(best, caps) == min(ranks)
    first = trials[ranks.index(min(ranks))]
    assert best.side.tobytes() == first.side.tobytes()
