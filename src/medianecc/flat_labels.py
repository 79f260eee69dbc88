"""The cube records of large inputs on numpy arrays, and phi, opposites,
psi and the eccentricity assembly on them for wide levels and few pairs.

``cubes.enumerate_cubes`` walks a theta with arrays (from
``graph.FLAT_MIN_EDGES`` edges, where ``medianecc.flat`` has loaded numpy)
by ``walk`` and ``links`` into a ``Records`` store; where the rule below
holds, ``build`` completes it, ``CubeIndex.records`` keeps it, and
``compute_phi``, ``compute_opposites``, ``compute_psi`` and
``eccentricities`` run the functions of the same names here. They give the
scalar code's labels, witnesses and tie-breaks; the labels are
``array('i')`` buffers that numpy fills through ``np.frombuffer`` and that
index as plain ints. No list of records is built on this path.

The array stages take an input only when both of these hold (the records
budget, ``cubes.MAX_RECORDS``, keeps int32 ids):

- a mean level width ``n / levels`` of at least ``MIN_WIDTH``: each level
  costs a few numpy calls per sweep, so a long thin graph stays scalar;
- at most ``PAIRS_PER_RECORD`` sweep pairs per record
  (``cubes.sweep_pairs``, counted before the blocked test): the pairs are
  listed one by one, so this bounds their memory, and high-dimension
  inputs, whose heavy vertices the scalar sweeps answer by subset
  transforms, stay scalar.

The measurements behind the two constants: phi, opposites, psi and ecc,
scalar -> record arrays plus array stages, best of 2 (2-vCPU x86 host,
CPython 3.11, numpy 2.4). Ladders p x q of width p = 2, 4, 8 and 32 take
0.20 -> 0.78, 0.25 -> 0.40, 0.50 -> 0.32 and 0.46 -> 0.13 s, the 283 x 283
grid 1.40 -> 0.30 s and an 80,000-vertex tree 0.64 -> 0.15 s. Pairs per
record: the grid 2.24, the tree 0.50, a tree x tree product 2.16, Q12
29.6; on arrays Q12 would take 3.4 -> 2.5 s but peak at 118 MB, not 95.

Records are numbered by anti-basis in level order (see ``medianecc.cubes``),
and ``build`` lists the sweep pairs (t, r) by the level of their vertex b
(t ingoing at b, r outgoing from b), then by t's mask over b's ingoing
classes, then by b: so each level is one slice, each t's pairs are
contiguous, and no r occurs twice within one (level, mask) group. The
blocked test reads, for each record, its faces: the 1-cube records at its
basis of each of its classes. A class c out of b blocks t, whose pof X
spans the cube from w up to b, exactly when w has an edge of class c;
boundaries of halfspaces being convex, that is when X and c span a cube
up from w, i.e. when X lies in the ingoing classes of b's neighbour
across c. ``blocks[f]`` holds those classes for each 1-cube f, as a mask
over the ingoing classes of f's basis, so the test is one subset test per
class of r; no mask grows with a vertex's degree.
"""
from __future__ import annotations

from array import array
from itertools import islice
from typing import Optional

import numpy as np

from .cubes import CubeIndex
from .flat import _CHUNK, MIN_WIDTH, _chunks, _ranges
from .opposites import _ties, dense, opposite_records
from .theta import MAX_DIM, ThetaDecomposition

PAIRS_PER_RECORD = 4


class Records:
    """The record store above the edge cut, int32 arrays but ``size``.

    ``walk`` fills ``theta``, the decomposition walked; ``order`` (as
    ``CubeIndex.order``); ``start[v]``, so that record ``start[v] + M`` has
    the classes of mask M over v's ingoing classes as its pof; ``basis``;
    ``size[r]`` = |pof(r)|, int8; and ``out`` and ``out_ptr``, which list
    each vertex's outgoing records as ``CubeIndex.outgoing`` does. ``build``
    adds what the array stages read: ``outdeg[v]``; ``mask[r]``, r's pof
    over its basis' out-classes in ascending class order, where that basis
    is dense for ``compute_opposites``; ``pair_t`` and ``pair_r``, the
    unblocked sweep pairs; and ``levels`` and ``groups``, the pair slices
    of each level and of each (level, mask) group, in level order."""

    __slots__ = ("theta", "order", "start", "basis", "size", "out",
                 "out_ptr", "outdeg", "mask", "pair_t", "pair_r", "levels",
                 "groups")

    def tolist(self, name: str) -> list:
        """The ``CubeIndex`` list of that name."""
        t = self.theta.arrays
        if name == "ingoing":  # adjacent ranges share their bound ints
            bounds = np.append(self.start[self.order], len(self.basis))
            ranges, bounds = np.empty(len(self.start), object), bounds.tolist()
            ranges[self.order] = np.fromiter(map(range, bounds, bounds[1:]),
                                             object, len(self.start))
            return ranges.tolist()
        if name == "outgoing":
            rids, ptr = self.out.tolist(), self.out_ptr.tolist()
            return [rids[i:j] for i, j in zip(ptr, ptr[1:])]
        if name == "pof":  # each pof is some vertex's in_classes
            return self.pofs(np.arange(len(self.basis), dtype=np.int32),
                             {p: p for p in self.theta.in_classes})
        return t.ids[getattr(self, name)].tolist()

    def pofs(self, rec, shared=None) -> list:
        """The pof of each record in ``rec``, a chunk and a size at a time:
        the classes of its mask's bits, lowest first, as its tuple in
        ``shared`` where that is given."""
        t, pofs = self.theta.arrays, []
        for lo in range(0, len(rec), _CHUNK):
            part = rec[lo:lo + _CHUNK]
            w = self.order[np.searchsorted(self.start[self.order], part,
                                           "right") - 1]
            local, size = part - self.start[w], self.size[part]
            out = np.empty(len(part), object)
            out.fill(())
            for k in range(1, int(size.max(initial=0)) + 1):
                sel = np.flatnonzero(size == k)
                mask, cls = local[sel], []
                for i in range(k):
                    bit = mask & -mask
                    cls.append(t.ids[t.in_cls[t.in_ptr[w[sel]] + np.frexp(
                        bit)[1] - 1]].tolist())
                    mask ^= bit
                out[sel] = np.fromiter(zip(*cls) if shared is None else map(
                    shared.__getitem__, zip(*cls)), object, len(sel))
            pofs += out.tolist()
        return pofs


def walk(theta: ThetaDecomposition) -> Optional[Records]:
    """The records of a theta with arrays, in ``d`` numpy rounds: round h
    gives each record whose mask has top bit h the basis one ingoing edge
    of the anti-basis' h-th class below that of the record without that
    bit. None where there is no such edge one level down, where the scalar
    walk stalls or refuses the landing."""
    t = theta.arrays
    n = len(t.kin)
    a = Records()
    a.theta = theta
    a.order = order = np.argsort(t.level, kind="stable").astype(np.int32)
    count = np.left_shift(1, t.kin[order], dtype=np.int32)
    a.start = start = np.empty(n, np.int32)
    start[order] = np.cumsum(count, dtype=np.int32) - count
    a.basis = basis = np.empty(int(count.sum()), np.int32)
    basis[start] = np.arange(n)
    a.size = size = np.zeros(len(basis), np.int8)
    for h in range(int(t.kin.max(initial=0))):
        vs = np.flatnonzero(t.kin > h)
        low = (start[vs, None] + np.arange(1 << h, dtype=np.int32)).ravel()
        w = basis[low]
        at, found = _find(t, w, np.repeat(t.in_cls[t.in_ptr[vs] + h], 1 << h))
        x = np.take(t.in_tail, at, mode="clip")
        if not (found & (t.level[x] == t.level[w] - 1)).all():
            return None
        basis[low + (1 << h)] = x
        size[low + (1 << h)] = size[low] + 1
    a.out = np.argsort(basis, kind="stable").astype(np.int32)
    a.out_ptr = np.zeros(n + 1, np.int32)
    np.cumsum(np.bincount(basis, minlength=n), out=a.out_ptr[1:])
    return a


def links(a: Records) -> bool:
    """Whether every vertex passes ``cubes._check_links``. A 2-cube r with
    classes b < c from x up to w finds x + b and x + c as the bases of w's
    1-cubes. (in, out, out): a membership test per (r, ingoing class of
    x). (out, out, out): r is the link edge between its faces at x; each
    triangle is counted at its edge of the two smaller faces, probing the
    smaller of their sets of larger neighbours in the sorted edge keys, as
    the scalar set intersections do. x's count must equal its 3-cubes."""
    t = a.theta.arrays
    n, R = len(a.start), len(a.basis)
    two = np.flatnonzero(a.size == 2)
    w = a.order[np.searchsorted(a.start[a.order], two, "right") - 1]
    local = two - a.start[w]
    low = local & -local
    x = a.basis[two]
    xb, xc = a.basis[a.start[w] + local - low], a.basis[a.start[w] + low]
    k = t.kin[x]
    i = np.repeat(np.arange(len(two)), k)
    cls = t.in_cls[_ranges(t.in_ptr[x], k)]
    if (_find(t, xb[i], cls)[1] & _find(t, xc[i], cls)[1] &
            ~_find(t, w[i], cls)[1]).any():
        return False
    keep = np.bincount(x, minlength=n)[x] >= 3  # a triangle has 3 squares
    w, low, local, x, xb, xc = (v[keep] for v in (w, low, local, x, xb, xc))
    # the faces at x: the 1-cube of class b up to x + b, and that of c
    face = []
    for y, bit in ((xb, low), (xc, local - low)):
        at, found = _find(t, y, t.in_cls[t.in_ptr[w] + np.frexp(bit)[1] - 1])
        if not found.all():
            return False
        face.append(a.start[y] + np.left_shift(1, at - t.in_ptr[y]))
    f1, f2 = np.minimum(*face), np.maximum(*face)
    key = np.sort(f1.astype(np.int64) * R + f2)
    up = np.bincount(f1, minlength=R)
    first = np.cumsum(up) - up
    small = up[f1] <= up[f2]
    probes = np.where(small, up[f1], up[f2])
    want = np.repeat(np.where(small, f2, f1).astype(np.int64) * R, probes)
    want += key[_ranges(first[np.where(small, f1, f2)], probes)] % R
    at = np.minimum(np.searchsorted(key, want), max(len(key) - 1, 0))
    triangles = np.bincount(np.repeat(x, probes)[key[at] == want],
                            minlength=n)
    return bool((triangles == np.bincount(a.basis[a.size == 3],
                                          minlength=n)).all())


def _find(t, y, c):
    """Where class c[i] sits among vertex y[i]'s ingoing edges, and whether
    it is there: one pass per slot, counting the smaller classes."""
    base, k = t.in_ptr[y], t.kin[y]
    at = base.copy()
    for s in range(int(k.max(initial=0))):
        at += (s < k) & (np.take(t.in_cls, base + s, mode="clip") < c)
    return at, (at < base + k) & (np.take(t.in_cls, at, mode="clip") == c)


def build(a: Records) -> None:
    """Add to ``a`` the out-degrees, dense masks and unblocked sweep pairs
    of its records."""
    t = a.theta.arrays
    n, R = len(a.start), len(a.basis)
    order, size = a.order, a.size
    anti = np.repeat(order, np.left_shift(1, t.kin[order]))
    local = np.arange(R, dtype=np.int32)
    local -= a.start[anti]
    a.outdeg = (np.bincount(t.ends, minlength=n) - t.kin).astype(np.int32)
    face, fptr = _faces(a, anti, local)
    a.mask = _dense_masks(a, anti, local, face, fptr)
    blocks = _blocks(size, local, face, fptr, int(t.kin.max(initial=0)))

    # t: each nonempty ingoing record of a vertex with outgoing cubes, by
    # (level, local mask, vertex); a group is one (level, local mask)
    per_b = np.diff(a.out_ptr) - 1
    t_all = np.flatnonzero((size > 0) & (per_b[anti] > 0))
    key = t.level[anti[t_all]].astype(np.int64) << MAX_DIM
    key |= local[t_all]
    by = np.argsort(key, kind="stable")
    t_all, key = t_all[by].astype(np.int32), key[by]
    del by
    cut = np.flatnonzero(np.diff(key, prepend=-1, append=-1))
    glevel = (key[cut[:-1]] >> MAX_DIM).tolist()
    del key
    per_t = per_b[anti[t_all]]

    def listed():
        """Each chunk of t_all, with its pairs: t repeated, and the
        nonempty outgoing records of t's anti-basis."""
        for part in _chunks(per_t):
            t, cnt = t_all[part], per_t[part]
            yield part, np.repeat(t, cnt), \
                a.out[_ranges(a.out_ptr[anti[t]] + 1, cnt)]

    # the blocked test, then the unblocked pairs, so that the test's
    # arrays are gone before the pairs are stored
    ok = np.empty(int(per_t.sum(dtype=np.int64)), bool)
    kept = np.empty(len(t_all), np.int32)
    lo = 0
    for part, pt, pr in listed():
        test = ok[lo:lo + len(pt)]
        lt = local[pt]
        np.not_equal(lt & ~blocks[face[fptr[pr]]], 0, out=test)
        for i in range(1, int(size[pr].max())):
            live = np.flatnonzero(size[pr] > i)
            test[live] &= (lt[live] & ~blocks[face[fptr[pr[live]] + i]]) != 0
        kept[part] = np.add.reduceat(test, np.cumsum(per_t[part]) -
                                     per_t[part], dtype=np.int32)
        lo += len(pt)
    del face, fptr, blocks, local
    a.pair_t = np.empty(int(kept.sum(dtype=np.int64)), np.int32)
    a.pair_r = np.empty_like(a.pair_t)
    lo = done = 0
    for part, pt, pr in listed():
        test = ok[lo:lo + len(pt)]
        m = int(kept[part].sum(dtype=np.int64))
        a.pair_t[done:done + m] = pt[test]
        a.pair_r[done:done + m] = pr[test]
        lo += len(pt)
        done += m
    del ok, anti, t_all, per_t
    # the pair slices of each group, and of each level: its groups
    at = np.concatenate(([0], np.cumsum(kept, dtype=np.int64)))[cut].tolist()
    a.groups = [(lo, hi) for lo, hi in zip(at, at[1:]) if lo < hi]
    new = [g for g, level in enumerate(glevel)
           if g == 0 or level != glevel[g - 1]]
    new.append(len(glevel))
    a.levels = [(at[g], at[h]) for g, h in zip(new, new[1:]) if at[g] < at[h]]


def _faces(a: Records, anti, local):
    """``face[fptr[r] + i]``: the 1-cube at r's basis of r's i-th class c,
    which is the 1-cube of class c up to the basis of r without c."""
    t, size = a.theta.arrays, a.size
    fptr = np.cumsum(size, dtype=np.int32) - size  # < 20 * 2^22 faces
    face = np.empty(int(size.sum(dtype=np.int64)), np.int32)
    ones = np.flatnonzero(size == 1)
    face[fptr[ones]] = ones  # a 1-cube is its own face
    for lo in range(0, len(size), _CHUNK):
        part = np.where(size[lo:lo + _CHUNK] > 1, local[lo:lo + _CHUNK], 0)
        done = np.zeros(len(part), np.int8)
        for h in range(int(t.kin.max(initial=0))):
            rec = np.flatnonzero(part & (1 << h))
            y = a.basis[lo + rec - (1 << h)]
            at = _find(t, y, t.in_cls[t.in_ptr[anti[lo + rec]] + h])[0]
            face[fptr[lo + rec] + done[rec]] = \
                a.start[y] + np.left_shift(1, at - t.in_ptr[y])
            done[rec] += 1
    return face, fptr


def _blocks(size, local, face, fptr, kmax):
    """``blocks[(u, {c})]``: u's other ingoing classes, as a mask over the
    ingoing classes of u - c. Each 2-cube (u, {a, c}) gives its face
    (u - c, {a}), whose local mask is a's bit there."""
    blocks = np.zeros(len(size), np.int32)
    two = np.flatnonzero(size == 2)
    low = local[two] & -local[two]
    for side, bit in ((0, low), (1, local[two] - low)):
        for h in range(kmax):
            sel = two[bit == 1 << h]
            blocks[sel - (1 << h)] |= local[face[fptr[sel] + side]]
    return blocks


def _dense_masks(a: Records, anti, local, face, fptr):
    """Each record's pof over its basis' out-classes in ascending class
    order, where that basis is dense (see ``compute_opposites``); 0
    elsewhere. The 1-cubes of a vertex follow its empty pof in
    ``outgoing``, and rank by class within it."""
    t = a.theta.arrays
    mask = np.zeros(len(local), np.int32)
    bit = np.zeros(len(local), np.int8)
    dense = np.flatnonzero(_dense(a))
    pofs = np.diff(a.out_ptr)
    for part in _chunks(pofs[dense]):
        vs = dense[part]
        k = a.outdeg[vs]
        ones = a.out[_ranges(a.out_ptr[vs] + 1, k)]
        cls = t.in_cls[t.in_ptr[anti[ones]] + np.frexp(local[ones])[1] - 1]
        row = np.repeat(np.arange(len(vs), dtype=np.int64), k)
        bit[ones[np.argsort(row * t.q + cls)]] = \
            np.arange(len(ones)) - np.repeat(np.cumsum(k) - k, k)
        recs = a.out[_ranges(a.out_ptr[vs], pofs[vs])]
        for i in range(int(a.size.max(initial=0))):
            recs = recs[a.size[recs] > i]
            mask[recs] |= np.left_shift(1, bit[face[fptr[recs] + i]],
                                        dtype=np.int32)
    return mask


def _dense(a: Records):
    """Vertices answered by subset-min tables, by the scalar sweeps' rule
    (``opposites.dense``) over their outgoing pofs and out-degree."""
    return dense(np.diff(a.out_ptr), a.outdeg)


def _labels(R: int):
    """A zeroed ``array('i')`` of R labels and its numpy view."""
    buf = array("i", bytes(4 * R))
    return buf, np.frombuffer(buf, dtype=np.intc)


def _view(buf):
    return np.frombuffer(buf, dtype=np.intc)


def compute_phi(index: CubeIndex) -> None:
    """phi/mu level by level from the far end: each t takes the best of its
    pairs' ``phi[r] * R + r`` (ties to the larger r), or, with none, its
    vertex b itself at distance |pof(t)|."""
    a, R = index.records, len(index)
    index.phi, phi = _labels(R)
    index.mu, mu = _labels(R)
    phi[:] = a.size
    mu[:] = np.repeat(a.order, np.diff(a.start[a.order], append=R))
    pair_t, pair_r = a.pair_t, a.pair_r
    for lo, hi in reversed(a.levels):
        t, r = pair_t[lo:hi], pair_r[lo:hi]
        first = np.flatnonzero(np.diff(t, prepend=-1))
        key = phi[r].astype(np.int64)
        key *= R
        key += r
        best = np.maximum.reduceat(key, first)
        t = t[first]
        phi[t] = a.size[t] + best // R
        mu[t] = mu[best % R]


def compute_opposites(index: CubeIndex) -> None:
    """``opposites.compute_opposites`` on arrays: a vertex with one or two
    outgoing pofs pairs them; a dense vertex with k classes gets a
    ``2^k`` table of ranking keys, ``(max phi - phi) * (k + 1) * 2^k +
    opposites._ties(k)[mask]``, which orders as ``(-phi, len, pof)`` (of
    two equal-size pofs, the one with the lowest class of their difference
    comes first), and k ``np.minimum`` passes give each mask the best key
    inside it; any other vertex keeps the memo table."""
    a, R = index.records, len(index)
    index.opp, opp = _labels(R)
    phi = _view(index.phi)
    pofs = np.diff(a.out_ptr)
    first, last = a.out[a.out_ptr[:-1]], a.out[a.out_ptr[1:] - 1]
    few = pofs <= 2
    opp[first[few]] = last[few]
    opp[last[few]] = first[few]
    dense = _dense(a)
    sparse = pofs[~few & ~dense]
    rec = a.out[_ranges(a.out_ptr[:-1][~few & ~dense], sparse)]
    entries = zip(a.pofs(rec), phi[rec].tolist(), rec.tolist())
    for k in sparse.tolist():
        rows = list(islice(entries, k))
        opp[[r for _, _, r in rows]] = opposite_records(rows)
    dense = np.flatnonzero(dense)
    top = int(phi.max(initial=0))
    for k in np.unique(a.outdeg[dense]).tolist():
        full, step, ties = (1 << k) - 1, (k + 1) << k, np.array(_ties(k))
        group = dense[a.outdeg[dense] == k]
        for part in _chunks(pofs[group]):
            vs = group[part]
            lens = pofs[vs]
            row = np.repeat(np.arange(len(vs)), lens)
            rec = a.out[_ranges(a.out_ptr[vs], lens)]
            mask = a.mask[rec]
            key = (top - phi[rec].astype(np.int64)) * step + ties[mask]
            best = np.full((len(vs), full + 1), np.iinfo(np.int64).max)
            best[row, mask] = key
            owner = np.empty((len(vs), full + 1), np.int32)
            owner[row, key & full] = rec
            for i in range(k):
                view = best.reshape(len(vs), -1, 2, 1 << i)
                np.minimum(view[:, :, 1], view[:, :, 0], out=view[:, :, 1])
            opp[rec] = owner[row, best[row, full ^ mask] & full]


def compute_psi(index: CubeIndex) -> None:
    """psi/psi_witness: every nonempty record starts at its opposite's phi,
    then the (level, mask) groups, nearest level first and masks ascending,
    raise it where an ingoing psi is strictly larger, so the opposite wins
    ties, then the smallest t."""
    a, R = index.records, len(index)
    index.psi, psi = _labels(R)
    index.psi_witness, psiw = _labels(R)
    phi, mu, opp = _view(index.phi), _view(index.mu), _view(index.opp)
    size = a.size
    some = size > 0
    psi[:] = np.where(some, size + phi[opp], -1)
    psiw[:] = np.where(some, mu[opp], -1)
    pair_t, pair_r = a.pair_t, a.pair_r
    for lo, hi in a.groups:
        t, r = pair_t[lo:hi], pair_r[lo:hi]
        gain = psi[t] + size[r]
        up = np.flatnonzero(gain > psi[r])
        r = r[up]
        psi[r] = gain[up]
        psiw[r] = psiw[t[up]]


def eccentricities(index: CubeIndex) -> tuple:
    """The eccentricity and witness lists of ``eccentricity.eccentricities``:
    per vertex, the largest ``label * n + (n - 1 - witness)`` over its
    outgoing phi and ingoing psi keeps the smallest witness. The lists
    share their ints: one object per vertex and per value."""
    a, n = index.records, index.n
    phi, mu = _view(index.phi), _view(index.mu)
    psi, psiw = _view(index.psi), _view(index.psi_witness)
    key = phi[a.out].astype(np.int64)
    key *= n
    key -= mu[a.out]
    best = np.maximum.reduceat(key, a.out_ptr[:-1])
    key[:] = psi
    key *= n
    key -= psiw
    key[a.start] = np.iinfo(np.int64).min  # an empty pof has no psi
    best[a.order] = np.maximum(best[a.order],
                               np.maximum.reduceat(key, a.start[a.order]))
    del key
    ecc, wit = np.divmod(best + (n - 1), n)
    ids = a.theta.arrays.ids
    return ids[ecc].tolist(), ids[n - 1 - wit].tolist()
