"""Per-vertex opposite lookup over weighted pofs.

For a vertex m, every outgoing pof L carries the weight phi(m, L). The
opposite of L is the maximum-weight outgoing pof disjoint from L: the first
one disjoint from L when m's pofs are ranked by weight, size and class list.
All opposite queries for m are answered at once, in one of two regimes set
by k, the number of classes that occur in m's pofs:

* dense, 2^k at most twice the pof count (hypercubes, grids, most tree
  vertices): ``pof_masks`` makes each pof a k-bit mask, and ``subset_max``
  over reversed rank positions gives, for every mask, the best-ranked pof
  inside it; the opposite of L is read at the complement of L's mask.
  phi and psi reuse both helpers at their heavy vertices.
* sparse (hubs such as the centre of a large star): a memo table maps a
  blocked class set to the best pof avoiding it, and a query for L blocks,
  one at a time, the smallest class that L shares with the current best pof
  until that pof is disjoint from L. Its keys are the nodes of the paper's
  opposite tree.

A vertex with the empty pof alone is its own opposite; with one outgoing
edge as well, the two are each other's opposite. ``medianecc.flat_labels``
answers the dense vertices of an index with record arrays by the same
transform on numpy tables, and keeps the memo table for the others.
"""
from __future__ import annotations

from .cubes import CubeIndex


def pof_masks(pofs):
    """One bit per class occurring in the distinct ``pofs``, as
    ``(bit, mask)`` with ``mask`` mapping each pof, in input order, to the
    OR of its classes' bits; None when the pofs use k classes with 2^k
    above twice their count (a sparse vertex). It stops at the first class
    past that limit, so a hub never builds a degree-sized int."""
    limit = (2 * len(pofs)).bit_length()
    bit, mask = {}, {}
    for pof in pofs:
        m = 0
        for c in pof:
            b = bit.get(c)
            if b is None:
                if len(bit) + 1 >= limit:
                    return None
                b = bit[c] = 1 << len(bit)
            m |= b
        mask[pof] = m
    return bit, mask


def subset_max(table, k) -> None:
    """In place over k-bit masks: ``table[M]`` becomes the largest
    ``table[S]`` over all S inside M, in k passes over the 2^k masks."""
    size = 1 << k
    for i in range(k):
        b = 1 << i
        for m in range(size):
            if m & b:
                x = table[m ^ b]
                if x > table[m]:
                    table[m] = x


def opposite_records(entries) -> list:
    """Opposite record ids of one vertex's outgoing pofs, in input order.

    ``entries`` are that vertex's ``(pof, weight, record id)`` triples and
    must include the empty pof (weight 0): it realizes pairs where the
    vertex itself is an endpoint. The opposite of L is the first entry
    disjoint from L in the ranking by ``(-weight, len(pof), pof)``, so
    argmax ties prefer smaller pofs, then lexicographic class lists.
    A dense vertex (``pof_masks`` gives its bits) is answered by a subset
    transform over rank positions; any other vertex (a hub, where k is
    about the degree) gets a memo table.
    """
    entries = list(entries)
    ranked = sorted(entries, key=lambda e: (-e[1], len(e[0]), e[0]))
    dense = pof_masks([e[0] for e in entries])
    if dense is None:
        return _memo_opposites(entries, ranked)
    bit, mask = dense
    # best[M]: last - (smallest rank position of a pof inside M)
    last = len(ranked) - 1
    best = [-1] * (1 << len(bit))
    for pos, e in enumerate(ranked):
        best[mask[e[0]]] = last - pos
    subset_max(best, len(bit))
    full = len(best) - 1
    return [ranked[last - best[full ^ m]][2] for m in mask.values()]


def _memo_opposites(entries, ranked) -> list:
    """Sparse vertex: ``best[B]`` is the first ranked entry avoiding the
    blocked class set B. A query for L blocks, one at a time, the smallest
    class that L shares with the current best pof; it only blocks classes
    of L, so the entry it stops at is the first ranked entry disjoint
    from L. The table's keys are the nodes of the paper's opposite tree."""
    empty = frozenset()
    best = {empty: ranked[0]}
    out = []
    for pof, _, _ in entries:
        blocked, entry = empty, ranked[0]
        while True:
            reached = entry[0]
            for c in pof:  # ascending, so the smallest shared class wins
                if c in reached:
                    break
            else:
                out.append(entry[2])
                break
            blocked = blocked | {c}
            entry = best.get(blocked)
            if entry is None:
                entry = next(e for e in ranked if blocked.isdisjoint(e[0]))
                best[blocked] = entry
    return out


def compute_opposites(index: CubeIndex) -> None:
    """Resolve the opposite record of every record at its own basis vertex.

    Stored in ``index.opp``; the per-vertex tables are transient, the
    record ids are what the later passes need. Requires compute_phi. An
    index with record arrays takes ``flat_labels.compute_opposites``.
    """
    if index.phi is None:
        raise RuntimeError("compute_phi must run before compute_opposites")
    if index.arrays is not None:
        from . import flat_labels
        return flat_labels.compute_opposites(index)
    pofs, phi = index.pof, index.phi
    opp = [0] * len(index)
    for rids in index.outgoing:
        if len(rids) <= 2:  # () alone, or () and one edge: no table
            opp[rids[0]], opp[rids[-1]] = rids[-1], rids[0]
            continue
        for r, o in zip(rids, opposite_records([(pofs[r], phi[r], r)
                                                for r in rids])):
            opp[r] = o
    index.opp = opp

