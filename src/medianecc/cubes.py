"""Enumeration of all induced hypercubes as (anti-basis, basis, pof) records.

Every induced hypercube of a median graph is identified by its anti-basis
(farthest-from-v0 corner) together with the set of classes of its edges,
which is a pairwise-orthogonal family (pof) and a subset of the anti-basis'
ingoing classes. Conversely each such subset yields one hypercube, so the
enumeration visits every vertex in basepoint-BFS order and emits one record
per subset of its ingoing classes, the empty set included (0-cubes).

Layout: records are parallel arrays, with label slots (phi/mu/psi/...)
filled by later passes. The records of anti-basis v are the contiguous ids
``ingoing[v]``, one per mask M over v's ingoing classes ``in_classes[v]``,
and record ``ingoing[v][M]`` has the classes of M's bits as its pof.
Recurrence: with h the top bit of M, the basis of record M is one edge of
class ``in_classes[v][h]`` away from the basis of record ``M ^ 1<<h``, so
each record costs one edge step and one level check. On median input each
of the n distinct pofs is some vertex's ``in_classes``, and the records
share those tuples. The label sweeps rely on this layout: anti-bases come
in ``order`` (by distance from v0, ascending ids within a level), and
``outgoing[b]`` is b's empty pof, then one 1-cube record per upward edge,
then larger pofs by size. Every cube with basis b is spanned by b's upward
edges, so b's local class count k is its out-degree. From
``graph.FLAT_MIN_EDGES`` edges the walk takes one numpy round per bit h
and fills arrays (``flat_labels.Records``); the lists are views built from
them on first read, or replace them where the label sweeps stay scalar.

Link pass: after the walk, each vertex x's outgoing 2- and 3-cube records
are checked against the 3-cube condition (see ``theta``): three classes
at x whose squares at x pairwise exist must span a 3-cube. Sort such a
triangle by how many of its classes point into x. (in, in, in) is the
walk from x; (in, in, out) with out class c is the walk from x+c, into
which the two mixed squares put both in-classes. The other two kinds are
checked here: (in, out, out) against the anti-basis of the {b, c} square,
on bit masks of the ingoing classes at vertices with four or more,
(out, out, out) against x's 3-cube records, counting link triangles on
per-class neighbour sets (not at complete vertices, where every triangle
is a 3-cube), or on the arrays, of sorted 2-cube keys. With
theta's checks, which give simple connectivity and rule out induced
K_2,3, ``enumerate_cubes`` then accepts exactly the median graphs.

Last, on arrays, ``flat_labels``' rule decides whether the label stages
run on them too, and ``CubeIndex.records`` then holds the record arrays.
"""
from __future__ import annotations

from functools import cached_property
from operator import mul

from .graph import Graph
from .theta import NonMedianGraphError, ThetaDecomposition

# Most records one run may allocate: Q13's 1,594,323 records peak at 205 MB
# resident, about 128 bytes each (scalar sweeps; 2-vCPU x86 host, CPython
# 3.11, numpy 2.4), so 512 MiB allows 2^22: Q13 fits, Q14 (4,782,969) not.
MAX_RECORDS = (512 << 20) // 128


class CubeIndex:
    """All hypercube records, by anti-basis in ``order``.

    ``outgoing[v]`` lists the record ids whose basis is v, ascending;
    ``ingoing[v]`` is the id range of the records whose anti-basis is v,
    led by its empty pof, so ``basis[ingoing[v][0]] == v``. The labels
    ``phi``, ``mu``, ``opp``, ``psi`` and ``psi_witness`` are None until
    the stage that fills them allocates them: lists, or ``array('i')``
    buffers where ``records`` holds the record arrays of
    ``medianecc.flat_labels``. Scalar stages fill ``mask`` where one
    reads it (``opposites.class_masks``), ``mask_path``, phi's mask path
    at each vertex that took one, for psi, and ``paths``, vertices per path.

    ``records`` is set, to ``flat_labels.Records``, exactly where the label
    stages run on arrays; the lists are then views of it.
    """

    def __init__(self, n: int):
        self.n = n
        self.dimension = 0
        self.phi = self.mu = self.opp = self.psi = self.psi_witness = None
        self.records = self.mask = self.mask_path = None
        self.paths = {}

    def __len__(self) -> int:
        return len(self.basis if self.records is None else self.records.basis)

    order, basis, pof, outgoing, ingoing = (
        cached_property(lambda self, name=name: self.records.tolist(name))
        for name in ("order", "basis", "pof", "outgoing", "ingoing"))


def enumerate_cubes(g: Graph, theta: ThetaDecomposition) -> CubeIndex:
    """Emit one record per (anti-basis vertex, subset of ingoing classes).

    A record's basis is its anti-basis walked down one incident edge per
    class, in ascending class order; the walk reuses the record without
    the last class, so it takes one step. Each step must land one level
    closer to v0; a missing edge or a wrong level marks non-median input,
    as does a link triangle of classes that spans no 3-cube. A pof equal
    to a vertex's ``in_classes`` is stored as that tuple. Of g only the
    vertex count is read. An input whose record count, known from theta,
    exceeds ``MAX_RECORDS`` raises MemoryError before any record exists.
    A theta with arrays is walked and link-checked on them by
    ``flat_labels``; where either refuses, the code here raises its error.
    """
    n = g.n
    arrays = theta.arrays
    total = (int((1 << arrays.kin).sum()) if arrays is not None else
             sum(1 << len(inc) for inc in theta.in_classes))
    if total > MAX_RECORDS:
        raise MemoryError(
            f"the cube walk would emit {total:,} records, above the "
            f"budget of {MAX_RECORDS:,}")
    index = CubeIndex(n)
    if arrays is not None:
        from . import flat_labels
        records = flat_labels.walk(theta)
        if records is not None and flat_labels.links(records):
            index.records = records
            index.dimension = int(arrays.kin.max(initial=0))
            # wide levels and few sweep pairs: label stages on arrays too
            if n >= flat_labels.MIN_WIDTH * (int(arrays.level.max()) + 1) \
                    and sweep_pairs(index) <= flat_labels.PAIRS_PER_RECORD * \
                    len(index):
                flat_labels.build(records)
            else:  # the scalar sweeps read the lists: keep those alone
                vars(index).update((name, records.tolist(name)) for name in (
                    "order", "basis", "pof", "outgoing", "ingoing"))
                index.records = None
            return index

    dist0 = theta.dist0
    incident = theta.incident
    shared = {p: p for p in theta.in_classes}
    index.basis = basis = []
    index.pof = pofs = []
    index.outgoing = outgoing = [[] for _ in range(n)]
    index.ingoing = ingoing = [range(0)] * n
    dim = 0

    # by level, ascending ids within a level (the sort is stable)
    index.order = sorted(range(n), key=dist0.__getitem__)
    for v in index.order:
        inc = theta.in_classes[v]
        dim = max(dim, len(inc))
        start = len(pofs)
        bs, ps = [v], [()]
        outgoing[v].append(start)
        for h, c in enumerate(inc):
            # masks 2^h .. 2^(h+1) - 1 extend masks 0 .. 2^h - 1 by c
            for low in range(1 << h):
                w = bs[low]
                pof = ps[low] + (c,)
                x = incident[w].get(c)
                if x is None:
                    raise NonMedianGraphError(
                        f"walk from vertex {v} with classes {pof} "
                        f"stalled: no edge of class {c} at vertex {w}")
                if dist0[x] != dist0[w] - 1:
                    raise NonMedianGraphError(
                        f"walk from vertex {v} with classes {pof} landed "
                        f"at vertex {x}, not |pof| levels down")
                outgoing[x].append(start + len(bs))
                bs.append(x)
                ps.append(shared.get(pof, pof))
        basis += bs
        pofs += ps
        ingoing[v] = range(start, len(pofs))

    _check_links(index, theta)
    index.dimension = dim
    return index


def sweep_pairs(index: CubeIndex) -> int:
    """The record pairs the phi and psi sweeps test: at each vertex b,
    every nonempty ingoing record with every nonempty outgoing one. Each
    record is ingoing at one vertex and outgoing at one, so the sum of
    (|out(b)| - 1)(|in(b)| - 1) is that of |out(b)||in(b)|, less 2R, plus
    n. |out(b)| and |in(b)| = 2^kin(b) are read from ``records`` where the
    index has them."""
    a = index.records
    pairs = sum(map(mul, map(len, index.outgoing), map(len, index.ingoing))) \
        if a is None else int(((a.out_ptr[1:] - a.out_ptr[:-1]).astype(
            "int64") << a.theta.arrays.kin).sum())
    return pairs - 2 * len(index) + index.n


def _check_links(index: CubeIndex, theta: ThetaDecomposition) -> None:
    """Refuse three classes at a vertex x whose squares at x pairwise
    exist but lie in no 3-cube.

    The walk fills the triangles with two or three classes into x (see
    the module docstring); the other two kinds are read from x's outgoing
    2-cube records {b, c}, whose anti-basis is w = x+b+c.
    (in, out, out): a class a into x that is also into x+b and x+c must be
    into w; from four classes into x up, all such a at once, on bit masks.
    (out, out, out): every triangle of the graph whose edges are those
    records must be the pof of a 3-cube record at x; the 3-cube records
    are among the triangles, so counting them suffices, and where x's
    records number 2^|largest pof|, x is complete and all are filled.
    """
    in_classes, incident = theta.in_classes, theta.incident
    pofs = index.pof
    masks = _InMasks()
    masks.in_classes = in_classes
    for x, out in enumerate(index.outgoing):
        inc = incident[x]
        ins = in_classes[x]
        # out: the empty pof, one 1-cube per upward edge, then by size
        first = stop = len(inc) - len(ins) + 1
        end = len(out)
        if end == first:
            continue
        while stop < end and len(pofs[out[stop]]) == 2:
            stop += 1
        if len(ins) > 3:
            mx = masks[x]
            for j in range(first, stop):
                b, c = pofs[out[j]]
                xb = inc[b]
                bad = mx & masks[xb] & masks[inc[c]] & ~masks[incident[xb][c]]
                if bad:
                    raise _unfilled(x, (bad & -bad).bit_length() - 1, b, c)
        elif ins:
            for j in range(first, stop):
                b, c = pofs[out[j]]
                xb, xc = inc[b], inc[c]
                ib, ic = in_classes[xb], in_classes[xc]
                for a in ins:
                    if a in ib and a in ic and \
                            a not in in_classes[incident[xb][c]]:
                        raise _unfilled(x, a, b, c)
        if stop - first < 3 or end == 1 << len(pofs[out[-1]]):
            continue
        # the out-out link at x, each edge kept at its lower class: a
        # triangle b < c < e is counted once, at its edge (b, c)
        up = {pofs[out[i]][0]: set() for i in range(1, first)}
        for j in range(first, stop):
            b, c = pofs[out[j]]
            up[b].add(c)
        triangles = 0
        for j in range(first, stop):
            b, c = pofs[out[j]]
            triangles += len(up[b] & up[c])
        stop3 = stop
        while stop3 < end and len(pofs[out[stop3]]) == 3:
            stop3 += 1
        if triangles != stop3 - stop:
            filled = {pofs[r] for r in out[stop:stop3]}
            for j in range(first, stop):
                b, c = pofs[out[j]]
                for e in sorted(up[b] & up[c]):
                    if (b, c, e) not in filled:
                        raise _unfilled(x, b, c, e)


class _InMasks(dict):
    """Vertex -> the bit mask of its ingoing classes, built on first read."""

    def __missing__(self, v):
        mask = self[v] = sum(1 << c for c in self.in_classes[v])
        return mask


def _unfilled(x: int, *classes: int) -> NonMedianGraphError:
    a, b, c = sorted(classes)
    return NonMedianGraphError(
        f"classes {a}, {b} and {c} pairwise span squares at vertex {x} "
        f"but no 3-cube (the link of {x} is not flag)")
