"""Double-BFS diameter lower bounds: 2-sweep and 4-sweep.

Both return a realized distance, hence a lower bound on the diameter.
All argmax tie-breaks take the smallest vertex id so runs are reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, bfs


@dataclass(frozen=True)
class SweepResult:
    a: int
    b: int
    distance: int


def _farthest(dist: list) -> int:
    # smallest id among the maxima
    return dist.index(max(dist))


def sweep2(g: Graph, start: int) -> SweepResult:
    """BFS twice: a = farthest from start, b = farthest from a."""
    da = bfs(g, start)
    a = _farthest(da)
    db = bfs(g, a)
    b = _farthest(db)
    return SweepResult(a=a, b=b, distance=db[b])


def sweep4(g: Graph, start: int) -> SweepResult:
    """2-sweep, then another 2-sweep from a middle of the found path.

    The path is extracted from the BFS tree of a by walking from b toward a
    through the smallest-id neighbor one level closer; the restart vertex
    sits floor(d/2) hops from b along it (the far middle on odd distances,
    which is the choice that keeps the known adversarial runs adversarial).
    """
    first = sweep2(g, start)
    da = bfs(g, first.a)
    path = [first.b]
    cur = first.b
    while cur != first.a:
        for x in g.neighbors[cur]:  # ascending ids
            if da[x] == da[cur] - 1:
                cur = x
                break
        path.append(cur)
    middle = path[first.distance // 2]
    return sweep2(g, middle)
