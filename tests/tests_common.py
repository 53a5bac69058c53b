"""Helpers shared between test modules."""

import numpy as np


def two_cluster_counts() -> np.ndarray:
    """Separable corpus: users 0-3 visit locations 0-1, users 4-7 visit 2-3."""
    counts = np.zeros((8, 4), dtype=np.int64)
    rng = np.random.default_rng(99)
    for u in range(4):
        counts[u, 0] = rng.integers(20, 40)
        counts[u, 1] = rng.integers(20, 40)
    for u in range(4, 8):
        counts[u, 2] = rng.integers(20, 40)
        counts[u, 3] = rng.integers(20, 40)
    return counts


def graph_nodes(root):
    """The operation nodes (not parameters) backward visits from root."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if node.requires_grad and id(node) not in seen:
            seen.add(id(node))
            if node._op != "leaf":
                yield node
            stack.extend(node._parents)
