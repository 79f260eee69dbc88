"""Per-vertex opposite lookup over weighted pofs.

For a vertex m, every outgoing pof L carries the weight phi(m, L). The
opposite of L is the maximum-weight outgoing pof disjoint from L: the first
one disjoint from L when m's pofs are ranked by weight, size and class list.
All opposite queries for m are answered at once, in one of five regimes,
counted in ``index.paths["opposites"]``: "trivial", m's empty pof alone
or with one edge; "complement", where the pofs are all 2^k subsets of
m's k classes, each with phi equal to its size (every vertex of Q_d of
out-degree 2 or more): every other pof disjoint from L is smaller than
L's complement, and so is its weight, so that complement is the answer;
"ranked" (square corners, most tree vertices, a star's centre), at most
``RANKED_POFS`` pofs or only 1-cubes: that ranking, scanned per pof, at
most p^2 disjointness tests over p pofs, or 2p over 1-cubes, where the
first or second ranked pof answers; "dense" (``dense``), one subset-max
table over the class masks (``class_masks``, which phi and psi read
too); "memo" (hubs such as those of a star times an edge), a table of
blocked class sets (``opposite_records``). Per vertex the scan took
0.3-0.56 of the table's time at 4 to 15 pofs, and as long at the
complete 16-pof vertices of a 6^4 grid, where L's disjoint pofs rank
low: at 16, small-batch's opposites took 3-8 % less time than at 8, the
6^4 grid's 25-30 % more (best of 7, 2-vCPU x86 host).

``medianecc.flat_labels`` answers the dense vertices of an index with
record arrays on numpy tables by the same keys, the others by memo.
"""
from __future__ import annotations

from array import array
from bisect import bisect_right
from functools import cache

from .cubes import CubeIndex

RANKED_POFS = 8


def dense(pofs, k):
    """Whether ``pofs`` outgoing pofs over k out-classes, ints or arrays,
    take 2^k tables: more than two, 2^k at most twice them, k <= 30."""
    return (pofs > 2) & (k <= 30) & (2 * pofs >> (k & 31) > 0)


def class_bits(index: CubeIndex, outs: list, k: int) -> dict:
    """The bits of a vertex's k classes, ascending, from the 1-cubes after
    the empty pof in its outgoing records ``outs``."""
    pofs = index.pof
    return {c: 1 << i for i, c in enumerate(
        sorted([pofs[r][0] for r in outs[1:k + 1]]))}


def class_masks(index: CubeIndex, outs: list, k: int) -> list:
    """The masks in ``index.mask`` of a dense vertex's outgoing records
    ``outs`` over its ``class_bits``, as ``flat_labels.Records.mask``. The
    first call fills them; the first 1-cube's bit then marks it filled."""
    mask = index.mask = index.mask or array("i", bytes(4 * len(index)))
    if mask[outs[1]]:
        return [mask[r] for r in outs]
    pofs, bit = index.pof, class_bits(index, outs, k)
    masks = [0]
    for r in outs[1:]:
        m = 0
        for c in pofs[r]:
            m |= bit[c]
        mask[r] = m
        masks.append(m)
    return masks


@cache
def _ties(k: int) -> list:
    """``|M| << k | (2^k - 1 - bitrev(M))`` for each k-bit mask M."""
    rev = [0]
    for _ in range(k):
        rev = [2 * x for x in rev] + [2 * x + 1 for x in rev]
    return [m.bit_count() << k | len(rev) - 1 - r for m, r in enumerate(rev)]


def subset_max(items, k: int, low: int = -1) -> list:
    """``table[M]``: the largest key of the ``(mask, key)`` items, distinct
    k-bit masks, with mask inside M, or ``low``, in k passes over 2^k
    slots; ``table[-1 - M]`` reads the masks disjoint from M."""
    table = [low] * (1 << k)
    for m, key in items:
        table[m] = key
    for i in range(k):
        b = 1 << i
        for m in range(b, 1 << k):
            if m & b and table[m ^ b] > table[m]:
                table[m] = table[m ^ b]
    return table


def dense_opposites(rids: list, masks: list, weight, k: int) -> list:
    """Opposites of the records ``rids``, in input order, from their
    distinct k-bit ``masks`` (0 among them) and ``weight[r]``. Values
    ``weight * step - tie[mask]`` (``_ties``) rank as ``(-weight,
    len(pof), pof)`` with bit i the i-th smallest class: of two equal-size
    pofs, the one holding the smallest class of their difference comes
    first, and bit-reversed, that class is the top bit."""
    step, tie = (k + 1) << k, _ties(k)
    values = [weight[r] * step - tie[m] for r, m in zip(rids, masks)]
    best = subset_max(zip(masks, values), k, -step)
    owner = dict(zip(values, rids))
    return [owner[best[-1 - m]] for m in masks]


def opposite_records(entries) -> list:
    """Opposite record ids of one vertex's outgoing pofs, in input order,
    by a memo table.

    ``entries`` are that vertex's ``(pof, weight, record id)`` triples and
    must include the empty pof (weight 0): it realizes pairs where the
    vertex itself is an endpoint. The opposite of L is the first entry
    disjoint from L in the ranking by ``(-weight, len(pof), pof)``, so
    argmax ties prefer smaller pofs, then lexicographic class lists.
    ``best[B]`` is the first ranked entry avoiding the blocked class set
    B. A query for L blocks, one at a time, the smallest class that L
    shares with the current best pof, so the entry it stops at is the
    first ranked entry disjoint from L; the keys are the nodes of the
    paper's opposite tree.
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

    Stored in ``index.opp``; the per-vertex tables are transient, the
    record ids are what the later passes need. Requires compute_phi. An
    index with record arrays takes ``flat_labels.compute_opposites``.
    """
    if index.phi is None:
        raise RuntimeError("compute_phi must run before compute_opposites")
    if index.records is not None:
        from . import flat_labels
        return flat_labels.compute_opposites(index)
    pofs, phi = index.pof, index.phi
    opp = [0] * len(index)
    count = index.paths["opposites"] = dict.fromkeys(
        ("trivial", "complement", "ranked", "dense", "memo"), 0)
    for rids in index.outgoing:
        p = len(rids)
        if p <= 2:  # () alone, or () and one edge: no table
            opp[rids[0]], opp[rids[-1]] = rids[-1], rids[0]
            count["trivial"] += 1
            continue
        s = len(pofs[rids[-1]])  # the last, largest pof: 2^s faces
        # all 2^s subsets, and phi, never below |pof|, sums to their sizes
        if p == 1 << s and sum(map(phi.__getitem__, rids)) == s << (s - 1):
            at = [0] * p  # the records by mask
            for r, m in zip(rids, class_masks(index, rids, s)):
                at[m] = r
            rids, found, path = at, at[::-1], "complement"  # M's complement
        elif p <= RANKED_POFS or s == 1:
            ranked = sorted(rids, key=lambda r: (-phi[r], len(pofs[r]),
                                                 pofs[r]))
            found, path = [], "ranked"
            for r in rids:
                pof = pofs[r]
                for o in ranked:  # the empty pof ends every scan
                    for c in pofs[o]:
                        if c in pof:
                            break
                    else:
                        found.append(o)
                        break
        elif dense(p, k := bisect_right(  # the empty pof, then k 1-cubes
                rids, 1, 1, key=lambda r: len(pofs[r])) - 1):
            found = dense_opposites(rids, class_masks(index, rids, k), phi, k)
            path = "dense"
        else:
            found = opposite_records((pofs[r], phi[r], r) for r in rids)
            path = "memo"
        count[path] += 1
        for r, o in zip(rids, found):
            opp[r] = o
    index.opp = opp
