"""Shared utilities: validation, deterministic RNG, flop counting."""

from repro.utils.opcount import (
    OpCounter,
    gemm_flops,
    lu_flops_from_counts,
    trsv_flops,
)
from repro.utils.prng import SeedLike, rng_from, spawn
from repro.utils.validation import (
    as_float_array,
    as_int_array,
    check_csc,
    check_csr,
    check_finite,
    check_partition_vector,
    check_permutation,
    check_square,
    fraction,
    nonneg_int,
    positive_int,
    require,
)

__all__ = [
    "require", "as_int_array", "as_float_array", "check_square", "check_csr",
    "check_csc", "check_finite", "check_partition_vector", "check_permutation",
    "positive_int",
    "nonneg_int", "fraction",
    "SeedLike", "rng_from", "spawn",
    "OpCounter", "gemm_flops", "trsv_flops", "lu_flops_from_counts",
]
