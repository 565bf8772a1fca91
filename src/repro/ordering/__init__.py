"""Fill-reducing orderings and elimination-tree machinery."""

from repro.ordering.etree import (
    children_lists,
    elimination_tree,
    etree_path_closure,
    first_descendants,
    is_postordered,
    postorder,
    symbolic_cholesky_row_counts,
    tree_level,
)
from repro.ordering.mindeg import minimum_degree, permute_symmetric

__all__ = [
    "elimination_tree", "postorder", "is_postordered", "children_lists",
    "tree_level", "first_descendants", "etree_path_closure",
    "symbolic_cholesky_row_counts",
    "minimum_degree", "permute_symmetric",
]
