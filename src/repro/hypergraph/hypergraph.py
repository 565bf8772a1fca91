"""Hypergraph data structure (CSR pin storage).

A hypergraph ``H = (V, N)`` stores nets as a CSR array of pins
(net -> vertices) plus the transposed incidence (vertex -> nets),
multi-constraint vertex weights (an ``(n, C)`` array) and per-net costs.

Column-net / row-net models of sparse matrices (Section II of the
paper) are provided as constructors: in the column-net model of an
``m x n`` matrix the *rows* are vertices and the *columns* are nets,
with vertex ``r_i`` a pin of net ``c_j`` iff ``M[i, j] != 0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from repro.utils import as_int_array, check_csr
from repro.utils.multilevel import csr_lists

__all__ = ["Hypergraph", "HypergraphLists"]


class HypergraphLists(NamedTuple):
    """A hypergraph as plain Python lists, for the sequential kernels
    (FM moves, matching, BFS growth) that touch one pin at a time."""

    vertex_nets: list[list[int]]
    net_pins: list[list[int]]
    net_costs: list[int]
    vertex_weights: list[list[int]]


@dataclass
class Hypergraph:
    """Hypergraph in dual CSR form.

    Attributes
    ----------
    net_ptr, pins:
        CSR of nets: net j's pins are ``pins[net_ptr[j]:net_ptr[j+1]]``.
    vertex_weights:
        ``(n_vertices, C)`` int array; column c is the c-th balance
        constraint.
    net_costs:
        Cost per net (>= 0). The soed construction manipulates these.
    net_ids:
        Identity of each net in the *original* hypergraph — preserved
        through splitting/contraction so separator nets can be traced
        back to matrix columns.
    """

    net_ptr: np.ndarray
    pins: np.ndarray
    vertex_weights: np.ndarray
    net_costs: np.ndarray
    net_ids: np.ndarray
    _vtx_ptr: np.ndarray | None = field(default=None, repr=False)
    _vtx_nets: np.ndarray | None = field(default=None, repr=False)
    _net_of_pin: np.ndarray | None = field(default=None, repr=False)
    # not an __init__ field, so dataclasses.replace() never carries the
    # lists of one weight / cost assignment over to another
    _lists: HypergraphLists | None = field(default=None, init=False,
                                           repr=False, compare=False)

    def __post_init__(self) -> None:
        self.net_ptr = as_int_array(self.net_ptr, "net_ptr")
        self.pins = as_int_array(self.pins, "pins")
        vw = np.ascontiguousarray(self.vertex_weights, dtype=np.int64)
        if vw.ndim == 1:
            vw = vw.reshape(-1, 1)  # flat vector = single constraint
        elif vw.ndim != 2:
            raise ValueError("vertex_weights must be 1-D or (n, C)")
        self.vertex_weights = vw
        self.net_costs = np.ascontiguousarray(self.net_costs, dtype=np.int64)
        self.net_ids = as_int_array(self.net_ids, "net_ids")
        if self.net_ptr[0] != 0 or np.any(np.diff(self.net_ptr) < 0):
            raise ValueError("net_ptr must be a non-decreasing CSR pointer")
        if self.pins.size != self.net_ptr[-1]:
            raise ValueError("pins length mismatch with net_ptr")
        if self.net_costs.size != self.n_nets or self.net_ids.size != self.n_nets:
            raise ValueError("net_costs/net_ids must have one entry per net")
        if self.pins.size and self.pins.max() >= self.n_vertices:
            raise ValueError("pin index out of range")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_arrays(cls, net_ptr, pins, n_vertices: int, *,
                    vertex_weights=None, net_costs=None) -> "Hypergraph":
        net_ptr = as_int_array(net_ptr, "net_ptr")
        pins = as_int_array(pins, "pins")
        n_nets = net_ptr.size - 1
        vw = (np.ones((n_vertices, 1), dtype=np.int64) if vertex_weights is None
              else np.atleast_2d(np.asarray(vertex_weights, dtype=np.int64)))
        if vw.shape[0] != n_vertices:
            vw = vw.T
        nc = (np.ones(n_nets, dtype=np.int64) if net_costs is None
              else np.asarray(net_costs, dtype=np.int64))
        return cls(net_ptr=net_ptr, pins=pins, vertex_weights=vw,
                   net_costs=nc, net_ids=np.arange(n_nets, dtype=np.int64))

    @classmethod
    def column_net_model(cls, M: sp.spmatrix, *, vertex_weights=None,
                         net_costs=None) -> "Hypergraph":
        """Column-net hypergraph of ``M``: vertices = rows, nets = columns."""
        M = check_csr(M)
        C = M.tocsc()
        C.sum_duplicates()
        C.sort_indices()
        return cls.from_arrays(C.indptr, C.indices, M.shape[0],
                               vertex_weights=vertex_weights,
                               net_costs=net_costs)

    @classmethod
    def row_net_model(cls, M: sp.spmatrix, *, vertex_weights=None,
                      net_costs=None) -> "Hypergraph":
        """Row-net hypergraph of ``M``: vertices = columns, nets = rows."""
        M = check_csr(M)
        return cls.from_arrays(M.indptr, M.indices, M.shape[1],
                               vertex_weights=vertex_weights,
                               net_costs=net_costs)

    # -- basic properties --------------------------------------------------

    @property
    def n_nets(self) -> int:
        return self.net_ptr.size - 1

    @property
    def n_vertices(self) -> int:
        return self.vertex_weights.shape[0]

    @property
    def n_pins(self) -> int:
        return self.pins.size

    @property
    def n_constraints(self) -> int:
        return self.vertex_weights.shape[1]

    def net_pins(self, j: int) -> np.ndarray:
        return self.pins[self.net_ptr[j]:self.net_ptr[j + 1]]

    def net_size(self, j: int) -> int:
        return int(self.net_ptr[j + 1] - self.net_ptr[j])

    def net_sizes(self) -> np.ndarray:
        return np.diff(self.net_ptr)

    def total_weight(self) -> np.ndarray:
        """Per-constraint total vertex weight, shape (C,)."""
        return self.vertex_weights.sum(axis=0)

    # -- vertex -> nets incidence (lazy) ------------------------------------

    def _build_incidence(self) -> None:
        n = self.n_vertices
        counts = np.bincount(self.pins, minlength=n)
        vtx_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=vtx_ptr[1:])
        order = np.argsort(self.pins, kind="stable")
        self._vtx_ptr = vtx_ptr
        self._vtx_nets = self.net_of_pin[order]

    @property
    def vtx_ptr(self) -> np.ndarray:
        if self._vtx_ptr is None:
            self._build_incidence()
        return self._vtx_ptr  # type: ignore[return-value]

    @property
    def vtx_nets(self) -> np.ndarray:
        if self._vtx_nets is None:
            self._build_incidence()
        return self._vtx_nets  # type: ignore[return-value]

    @property
    def net_of_pin(self) -> np.ndarray:
        """Net index of every pin (parallel to ``pins``), cached."""
        if self._net_of_pin is None:
            self._net_of_pin = np.repeat(np.arange(self.n_nets),
                                         self.net_sizes())
        return self._net_of_pin

    # -- list form for the sequential kernels (lazy) -------------------------

    @property
    def lists(self) -> HypergraphLists:
        """Python-list form, built on first use and shared by every FM
        call, matching and BFS growth on this hypergraph (all trials,
        all passes). Several times the size of the arrays, so it is
        dropped on pickling and by :meth:`drop_lists`."""
        if self._lists is None:
            self._lists = HypergraphLists(
                vertex_nets=csr_lists(self.vtx_ptr, self.vtx_nets),
                net_pins=csr_lists(self.net_ptr, self.pins),
                net_costs=self.net_costs.tolist(),
                vertex_weights=self.vertex_weights.tolist())
        return self._lists

    def drop_lists(self) -> None:
        """Free the list form (rebuilt on the next use)."""
        self._lists = None

    def __getstate__(self) -> dict:
        # without the lists; the class default (None) stands in after load
        state = self.__dict__.copy()
        state.pop("_lists", None)
        return state

    def vertex_net_list(self, v: int) -> np.ndarray:
        return self.vtx_nets[self.vtx_ptr[v]:self.vtx_ptr[v + 1]]

    def vertex_degree(self, v: int) -> int:
        return int(self.vtx_ptr[v + 1] - self.vtx_ptr[v])

    # -- conversions ---------------------------------------------------------

    def to_incidence_matrix(self) -> sp.csr_matrix:
        """(n_nets x n_vertices) boolean incidence matrix."""
        data = np.ones(self.n_pins, dtype=np.int8)
        return sp.csr_matrix((data, self.pins.copy(), self.net_ptr.copy()),
                             shape=(self.n_nets, self.n_vertices))

    def validate(self) -> None:
        """O(pins) structural validation (no duplicate pins in a net)."""
        for j in range(self.n_nets):
            p = self.net_pins(j)
            if np.unique(p).size != p.size:
                raise ValueError(f"net {j} has duplicate pins")
        if np.any(self.net_costs < 0):
            raise ValueError("net costs must be non-negative")
        if np.any(self.vertex_weights < 0):
            raise ValueError("vertex weights must be non-negative")
