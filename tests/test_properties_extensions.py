"""Property-based tests for the extension modules (separator
trimming)."""

from hypothesis import given, settings, strategies as st

from repro.core import build_dbbd, trim_separator
from repro.graphs import nested_dissection_partition


@st.composite
def partitioned_matrix(draw):
    nx = draw(st.integers(4, 9))
    ny = draw(st.integers(4, 9))
    k = draw(st.sampled_from([2, 4]))
    seed = draw(st.integers(0, 2**31 - 1))
    from tests.conftest import grid_laplacian
    A = grid_laplacian(nx, ny)
    r = nested_dissection_partition(A, k, seed=seed)
    return A, r.part, k


class TestTrimProperty:
    @given(partitioned_matrix())
    @settings(max_examples=25, deadline=None)
    def test_trim_preserves_invariant_and_shrinks(self, data):
        A, part, k = data
        out = trim_separator(A, part, k)
        assert int((out == -1).sum()) <= int((part == -1).sum())
        build_dbbd(A, out, k)  # must still be a valid DBBD
        # non-separator assignments never change
        moved = (part >= 0) & (out != part)
        assert not moved.any()
