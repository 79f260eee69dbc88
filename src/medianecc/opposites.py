"""Per-vertex opposite lookup over weighted pofs, and the diameter from it.

For a vertex m, every outgoing pof L carries the weight phi(m, L). The
opposite of L is the maximum-weight outgoing pof disjoint from L. A small
search tree answers all opposite queries for m: each node is indexed by the
best pof avoiding the classes collected on the path to it, and a query
descends along classes shared with its argument until the index is
disjoint. The best value of phi(m, L) + phi(m, op(L)) over all m is the
graph diameter, realized by the two witnesses.
"""
from __future__ import annotations

from .cubes import CubeIndex


class _Node:
    __slots__ = ("pof", "pof_set", "rid", "blocked", "children")

    def __init__(self, pof, rid, blocked):
        self.pof = pof
        self.pof_set = frozenset(pof)
        self.rid = rid
        self.blocked = blocked
        self.children: dict = {}


class OppositeTree:
    """Search tree answering opposite queries for one vertex.

    Built from that vertex's outgoing ``(pof, weight, record id)`` triples,
    which must include the empty pof (weight 0): it realizes pairs where
    the vertex itself is an endpoint. Nodes materialize on first use; a
    node's index depends only on its blocked class set, so the lazily built
    tree is a prefix of the fully expanded one. Argmax ties prefer smaller
    pofs, then lexicographic class lists.
    """

    def __init__(self, entries):
        self._ranked = sorted(entries, key=lambda e: (-e[1], len(e[0]), e[0]))
        pof, _, rid = self._ranked[0]
        self.root = _Node(pof, rid, frozenset())
        self.node_count = 1

    def _best_avoiding(self, blocked: frozenset):
        for pof, weight, rid in self._ranked:
            if blocked.isdisjoint(pof):
                return pof, rid
        raise AssertionError("the empty pof avoids every blocked set")

    def _child(self, node: _Node, cls: int) -> _Node:
        """The child of ``node`` that also blocks ``cls``, made on demand."""
        child = node.children.get(cls)
        if child is None:
            blocked = node.blocked | {cls}
            child = _Node(*self._best_avoiding(blocked), blocked)
            node.children[cls] = child
            self.node_count += 1
        return child

    def opposite_record(self, pof: tuple) -> int:
        """Record id of the max-weight pof disjoint from ``pof``."""
        node = self.root
        while True:
            pof_set = node.pof_set
            for c in pof:  # ascending, so the smallest shared class wins
                if c in pof_set:
                    node = self._child(node, c)
                    break
            else:
                return node.rid


def compute_opposites(index: CubeIndex) -> None:
    """Resolve the opposite record of every record at its own basis vertex.

    Stored in ``index.opp``; trees are transient, the memoized record ids
    are what the later passes need.
    """
    pofs, phi = index.pof, index.phi
    opp = [0] * len(index)
    for rids in index.outgoing:
        tree = OppositeTree((pofs[r], phi[r], r) for r in rids)
        for r in rids:
            opp[r] = tree.opposite_record(pofs[r])
    index.opp = opp


def upsilon(index: CubeIndex, m: int) -> tuple:
    """Largest d(u, v) over pairs whose basepoint median is m, as
    (value, (u, v)).

    Scans every outgoing record paired with its opposite; the empty pof
    covers pairs where m itself is an endpoint. Requires
    ``compute_opposites`` to have run.
    """
    if index.opp is None:
        raise RuntimeError("compute_opposites must run before upsilon")
    opp, phi, mu = index.opp, index.phi, index.mu
    best = -1
    best_r = best_o = -1
    for r in index.outgoing[m]:
        o = opp[r]
        val = phi[r] + phi[o]
        if val > best:
            best = val
            best_r, best_o = r, o
    return best, (mu[best_r], mu[best_o])


def diameter_via_upsilon(index: CubeIndex) -> tuple:
    """Graph diameter and a realizing pair, as (value, (u, v)).

    Deterministic: the smallest vertex m attaining the maximum wins, and
    within it the earliest record pair in enumeration order.
    """
    return max((upsilon(index, m) for m in range(index.n)),
               key=lambda res: res[0])
