"""Brute-force all-pairs hop distances, independent of the label pipeline.

One unit-weight search per source, done in compiled code. The test suite's
definitional references (eccentricities, median verdicts, halfspaces,
ladder sets, milestones) are built on it in ``tests/helpers.py``, as are
perfbench's small-graph answers. It needs scipy, a test dependency only
(the ``test`` extra), and ``import medianecc`` does not load it.
"""
from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .graph import Graph


def _adjacency(g: Graph) -> csr_matrix:
    if g.m == 0:
        return csr_matrix((g.n, g.n), dtype=np.int8)
    rows = np.empty(2 * g.m, dtype=np.int32)
    cols = np.empty(2 * g.m, dtype=np.int32)
    for i, (u, v) in enumerate(g.edges):
        rows[2 * i], cols[2 * i] = u, v
        rows[2 * i + 1], cols[2 * i + 1] = v, u
    data = np.ones(2 * g.m, dtype=np.int8)
    return csr_matrix((data, (rows, cols)), shape=(g.n, g.n))


def distance_matrix(g: Graph, budget: int = 5000) -> np.ndarray:
    """Full hop-distance matrix; one unit-weight search per vertex."""
    if g.n > budget:
        raise ValueError(f"n = {g.n} exceeds the distance budget {budget}")
    d = dijkstra(_adjacency(g), unweighted=True)
    if np.isinf(d).any():
        raise ValueError("graph is disconnected")
    return d.astype(np.int32)
