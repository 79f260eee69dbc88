"""Per-vertex opposite lookup over weighted pofs, and the diameter from it.

For a vertex m, every outgoing pof L carries the weight phi(m, L). The
opposite of L is the maximum-weight outgoing pof disjoint from L. A memo
table answers all opposite queries for m: it maps a blocked class set to the
best pof avoiding it, and a query for L blocks, one at a time, the smallest
class that L shares with the current best pof until that pof is disjoint
from L. The table's keys are the nodes of the paper's opposite tree. The
best value of phi(m, L) + phi(m, op(L)) over all m is the graph diameter,
realized by the two witnesses.
"""
from __future__ import annotations

from .cubes import CubeIndex


def opposite_records(entries) -> list:
    """Opposite record ids of one vertex's outgoing pofs, in input order.

    ``entries`` are that vertex's ``(pof, weight, record id)`` triples and
    must include the empty pof (weight 0): it realizes pairs where the
    vertex itself is an endpoint. ``best[B]`` is the first ranked entry
    avoiding the blocked class set B. A query for L only blocks classes of
    L, so the entry it stops at is the first ranked entry disjoint from L.
    Argmax ties prefer smaller pofs, then lexicographic class lists.
    """
    entries = list(entries)
    ranked = sorted(entries, key=lambda e: (-e[1], len(e[0]), e[0]))
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

    Stored in ``index.opp``; the memo tables are transient, the record ids
    are what the later passes need.
    """
    pofs, phi = index.pof, index.phi
    opp = [0] * len(index)
    for rids in index.outgoing:
        for r, o in zip(rids, opposite_records((pofs[r], phi[r], r)
                                               for r in rids)):
            opp[r] = o
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
