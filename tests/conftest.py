"""Shared fixtures: small deterministic matrices of each structural
class used across the test suite."""

from __future__ import annotations

import gc
import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse as sp


def grid_laplacian(nx: int, ny: int, *, diag: float = 4.0) -> sp.csr_matrix:
    """5-point 2-D grid operator (symmetric, diagonally dominant)."""
    Tx = sp.diags([-np.ones(nx - 1), diag * np.ones(nx),
                   -np.ones(nx - 1)], [-1, 0, 1])
    Ty = sp.diags([-np.ones(ny - 1), np.zeros(ny), -np.ones(ny - 1)],
                  [-1, 0, 1])
    A = sp.kron(sp.eye(ny), Tx) + sp.kron(Ty, sp.eye(nx))
    return A.tocsr()


def random_spd(n: int, density: float = 0.05, seed: int = 0) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density, random_state=rng, format="csr")
    A = A + A.T + (n * 0.5) * sp.eye(n)
    A = A.tocsr()
    A.sum_duplicates()
    return A


def random_unsymmetric(n: int, density: float = 0.05,
                       seed: int = 0) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density, random_state=rng, format="csr")
    A = (A + (density * n) * sp.eye(n)).tocsr()
    A.sum_duplicates()
    return A


def retained_bytes_per_call(calls) -> float:
    """Bytes each of the zero-argument ``calls`` leaves allocated on
    average (results dropped, cycles collected). Every distinct call
    runs once inside the traced window first, so state a call merely
    *replaces* is not counted as growth."""
    tracemalloc.start()
    try:
        for call in dict.fromkeys(calls):
            call()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for call in calls:
            call()
        gc.collect()
        return (tracemalloc.get_traced_memory()[0] - before) / len(calls)
    finally:
        tracemalloc.stop()


def reachable_objects(root) -> int:
    """Number of objects reachable from ``root``, not following classes,
    modules or code (which lead to the whole interpreter)."""
    opaque = (type, types.ModuleType, types.FunctionType,
              types.BuiltinFunctionType, types.MethodType)
    seen = {id(root)}
    stack = [root]
    while stack:
        for obj in gc.get_referents(stack.pop()):
            if id(obj) not in seen and not isinstance(obj, opaque):
                seen.add(id(obj))
                stack.append(obj)
    return len(seen)


@pytest.fixture
def grid16() -> sp.csr_matrix:
    return grid_laplacian(16, 16)


@pytest.fixture
def grid8() -> sp.csr_matrix:
    return grid_laplacian(8, 8)


@pytest.fixture
def spd60() -> sp.csr_matrix:
    return random_spd(60, 0.08, seed=3)


@pytest.fixture
def unsym50() -> sp.csr_matrix:
    return random_unsymmetric(50, 0.08, seed=5)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
