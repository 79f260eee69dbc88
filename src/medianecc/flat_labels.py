"""phi, opposites, psi and the eccentricity assembly on numpy arrays, for
large inputs with wide levels and few light pairs.

``cubes.enumerate_cubes`` calls ``records`` for graphs of
``graph.FLAT_MIN_EDGES`` edges or more, where ``medianecc.flat`` has
already loaded numpy, and stores what it returns in ``CubeIndex.arrays``.
``compute_phi``, ``compute_opposites``, ``compute_psi`` and
``eccentricities`` run the functions of the same names here when that slot
is set. They give the scalar code's labels, witnesses and tie-breaks; the
labels are ``array('i')`` buffers that numpy fills through
``np.frombuffer`` and that index as plain ints.

The array path takes an input only when all of these hold:

- a mean level width ``n / levels`` of at least ``MIN_WIDTH``: each level
  costs a few numpy calls per sweep, so a long thin graph stays scalar;
- at most ``PAIRS_PER_RECORD`` sweep pairs per record
  (``cubes.sweep_pairs``, counted before the blocked test): the pairs are
  listed one by one, so this bounds their memory, and high-dimension
  inputs, whose heavy vertices the scalar sweeps answer by subset
  transforms, stay scalar;
- fewer than 2^31 records, so int32 ids fit.

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
from itertools import chain
from typing import Optional

import numpy as np

from .cubes import CubeIndex, sweep_pairs
from .eccentricity import EccReport
from .opposites import opposite_records
from .theta import MAX_DIM, ThetaDecomposition

MIN_WIDTH = 8
PAIRS_PER_RECORD = 4

# pairs listed per step of ``build``, and dense opposite table entries per
# step of ``compute_opposites``: bounds their transient arrays
_CHUNK = 1 << 15


class Records:
    """The record arrays the four array stages read, int32 but ``size``.

    ``size[r]`` is |pof(r)|, as int8; ``start[v]`` is the first record id of
    anti-basis v; ``order`` is ``CubeIndex.order``. ``out`` and
    ``out_ptr`` list each vertex's outgoing records as
    ``CubeIndex.outgoing`` does, and ``outdeg[v]`` is v's out-degree.
    ``mask[r]`` is r's pof over its basis' out-classes in ascending class
    order, where that basis is dense for ``compute_opposites``.
    ``pair_t``, ``pair_r`` are the unblocked sweep pairs; ``levels`` lists
    the pair slice of each level and ``groups`` that of each (level, mask)
    group, in level order.
    """

    __slots__ = ("size", "start", "order", "out", "out_ptr", "outdeg",
                 "mask", "pair_t", "pair_r", "levels", "groups")


def records(index: CubeIndex, theta: ThetaDecomposition) -> Optional[Records]:
    """``build``'s arrays, or None where the rule keeps an input scalar."""
    n, R = index.n, len(index)
    levels = theta.dist0[index.order[-1]] + 1
    if n < MIN_WIDTH * levels or R >= 1 << 31 or \
            sweep_pairs(index) > PAIRS_PER_RECORD * R:
        return None
    return build(index, theta)


def build(index: CubeIndex, theta: ThetaDecomposition) -> Records:
    """The record arrays and the unblocked sweep pairs of ``index``."""
    n, R = index.n, len(index)
    a = Records()
    a.order = order = np.fromiter(index.order, np.int32, n)
    kin = np.fromiter(map(len, theta.in_classes), np.int32, n)
    ins = _Ins(kin, np.fromiter(chain.from_iterable(theta.in_classes),
                                np.int32))
    count = np.left_shift(1, kin[order], dtype=np.int32)
    a.start = start = np.empty(n, np.int32)
    start[order] = np.cumsum(count, dtype=np.int32) - count
    anti = np.repeat(order, count)
    del count
    local = np.arange(R, dtype=np.int32)
    local -= start[anti]
    a.size = size = np.zeros(R, np.int8)
    for h in range(ins.kmax):
        size += (local >> h) & 1
    basis = np.fromiter(index.basis, np.int32, R)
    a.out = np.argsort(basis, kind="stable").astype(np.int32)
    a.out_ptr = np.zeros(n + 1, np.int32)
    np.cumsum(np.bincount(basis, minlength=n), out=a.out_ptr[1:])
    a.outdeg = np.fromiter(map(len, theta.incident), np.int32, n) - kin
    face, fptr = _faces(a, ins, basis, anti, local)
    del basis
    a.mask = _dense_masks(a, ins, anti, local, face, fptr, theta.q)
    blocks = _blocks(size, local, face, fptr, ins.kmax)
    del ins

    # t: each nonempty ingoing record of a vertex with outgoing cubes, by
    # (level, local mask, vertex); a group is one (level, local mask)
    per_b = np.diff(a.out_ptr) - 1
    t_all = np.flatnonzero((size > 0) & (per_b[anti] > 0))
    key = np.fromiter(theta.dist0, np.int64, n)[anti[t_all]] << MAX_DIM
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
    return a


def _ranges(first, lens):
    """The concatenated ranges ``first[i] .. first[i] + lens[i] - 1``."""
    ends = np.cumsum(lens)
    return np.arange(ends[-1] if len(ends) else 0) + \
        np.repeat(first - (ends - lens), lens)


def _chunks(weights):
    """Consecutive slices of the positions of ``weights``, each of total
    weight about ``_CHUNK`` and at least one position."""
    ends = np.cumsum(weights)
    lo = 0
    while lo < len(ends):
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + _CHUNK, "right")))
        yield slice(lo, hi)
        lo = hi


class _Ins:
    """Every vertex's ingoing classes, ascending, as one flat array."""

    def __init__(self, kin, classes):
        self.kin, self.classes = kin, classes
        self.ptr = np.cumsum(kin, dtype=np.int32) - kin
        self.kmax = int(kin.max(initial=0))

    def slot(self, y, c):
        """The position of class c[i] among vertex y[i]'s ingoing classes,
        by counting the smaller ones: at most ``MAX_DIM`` passes."""
        slot = np.zeros(len(y), np.int32)
        live = np.arange(len(y))
        base, k = self.ptr[y], self.kin[y]
        for s in range(int(k.max(initial=0))):
            live = live[k[live] > s]
            slot[live] += self.classes[base[live] + s] < c[live]
        return slot


def _faces(a: Records, ins: _Ins, basis, anti, local):
    """``face[fptr[r] + i]``: the 1-cube at r's basis of r's i-th class c,
    which is the 1-cube of class c up to the basis of r without c."""
    size = a.size
    total = int(size.sum(dtype=np.int64))
    fptr = np.cumsum(size, dtype=np.int64 if total >> 31 else np.int32)
    fptr -= size
    face = np.empty(total, np.int32)
    ones = np.flatnonzero(size == 1)
    face[fptr[ones]] = ones  # a 1-cube is its own face
    for lo in range(0, len(size), _CHUNK):
        part = np.where(size[lo:lo + _CHUNK] > 1, local[lo:lo + _CHUNK], 0)
        done = np.zeros(len(part), np.int8)
        for h in range(ins.kmax):
            rec = np.flatnonzero(part & (1 << h))
            y = basis[lo + rec - (1 << h)]
            c = ins.classes[ins.ptr[anti[lo + rec]] + h]
            face[fptr[lo + rec] + done[rec]] = \
                a.start[y] + (1 << ins.slot(y, c))
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


def _dense_masks(a: Records, ins: _Ins, anti, local, face, fptr, q):
    """Each record's pof over its basis' out-classes in ascending class
    order, where that basis is dense (see ``compute_opposites``); 0
    elsewhere. The 1-cubes of a vertex follow its empty pof in
    ``outgoing``, and rank by class within it."""
    mask = np.zeros(len(local), np.int32)
    bit = np.zeros(len(local), np.int8)
    dense = np.flatnonzero(_dense(a))
    pofs = np.diff(a.out_ptr)
    for part in _chunks(pofs[dense]):
        vs = dense[part]
        k = a.outdeg[vs]
        ones = a.out[_ranges(a.out_ptr[vs] + 1, k)]
        cls = ins.classes[ins.ptr[anti[ones]] + np.frexp(local[ones])[1] - 1]
        row = np.repeat(np.arange(len(vs), dtype=np.int64), k)
        bit[ones[np.argsort(row * q + cls)]] = \
            np.arange(len(ones)) - np.repeat(np.cumsum(k) - k, k)
        recs = a.out[_ranges(a.out_ptr[vs], pofs[vs])]
        for i in range(ins.kmax):
            recs = recs[a.size[recs] > i]
            mask[recs] |= np.left_shift(1, bit[face[fptr[recs] + i]],
                                        dtype=np.int32)
    return mask


def _dense(a: Records):
    """Vertices answered by subset-min tables: three or more outgoing pofs
    over k classes with 2^k at most twice their count, as
    ``opposites.pof_masks`` decides; k <= 30 keeps int32 masks."""
    pofs = np.diff(a.out_ptr)
    k = a.outdeg
    return (pofs > 2) & (k <= 30) & \
        (2 * pofs.astype(np.int64) >= np.left_shift(1, np.minimum(k, 30),
                                                     dtype=np.int64))


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
    a, R = index.arrays, len(index)
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
    ``2^k`` table of ranking keys, ``((max phi - phi) * (k + 1) + |pof|)
    * 2^k + (2^k - 1 - bitrev(mask))``, which orders as ``(-phi, len,
    pof)`` (of two equal-size pofs, the one with the lowest class of their
    difference comes first), and k ``np.minimum`` passes give each mask
    the best key inside it; any other vertex keeps the memo table."""
    a, R = index.arrays, len(index)
    index.opp, opp = _labels(R)
    phi = _view(index.phi)
    pofs = np.diff(a.out_ptr)
    first, last = a.out[a.out_ptr[:-1]], a.out[a.out_ptr[1:] - 1]
    few = pofs <= 2
    opp[first[few]] = last[few]
    opp[last[few]] = first[few]
    dense = _dense(a)
    for v in np.flatnonzero(~few & ~dense).tolist():
        rids = index.outgoing[v]
        opp[rids] = opposite_records([(index.pof[r], int(phi[r]), r)
                                      for r in rids])
    dense = np.flatnonzero(dense)
    top = int(phi.max(initial=0))
    for k in np.unique(a.outdeg[dense]).tolist():
        full = (1 << k) - 1
        rev = np.zeros(full + 1, np.int64)
        for i in range(k):
            rev |= ((np.arange(full + 1) >> i) & 1) << (k - 1 - i)
        group = dense[a.outdeg[dense] == k]
        for part in _chunks(pofs[group]):
            vs = group[part]
            lens = pofs[vs]
            row = np.repeat(np.arange(len(vs)), lens)
            rec = a.out[_ranges(a.out_ptr[vs], lens)]
            mask = a.mask[rec]
            tie = full - rev[mask]
            key = (top - phi[rec].astype(np.int64)) * (k + 1) + a.size[rec]
            key = key << k | tie
            best = np.full((len(vs), full + 1), np.iinfo(np.int64).max)
            best[row, mask] = key
            owner = np.empty((len(vs), full + 1), np.int32)
            owner[row, tie] = rec
            for i in range(k):
                view = best.reshape(len(vs), -1, 2, 1 << i)
                np.minimum(view[:, :, 1], view[:, :, 0], out=view[:, :, 1])
            opp[rec] = owner[row, best[row, full ^ mask] & full]


def compute_psi(index: CubeIndex) -> None:
    """psi/psi_witness: every nonempty record starts at its opposite's phi,
    then the (level, mask) groups, nearest level first and masks ascending,
    raise it where an ingoing psi is strictly larger, so the opposite wins
    ties, then the smallest t."""
    a, R = index.arrays, len(index)
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


def eccentricities(index: CubeIndex) -> EccReport:
    """Per vertex, the largest ``label * n + (n - 1 - witness)`` over its
    outgoing phi and ingoing psi keeps the smallest witness. The lists
    share their ints: the witnesses are ``index.order``'s, and each value
    is one object."""
    a, n = index.arrays, index.n
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
    ids = np.empty(n, object)
    ids[a.order] = index.order
    ecc = np.array(range(int(ecc.max()) + 1), object)[ecc].tolist()
    wit = ids[n - 1 - wit].tolist()
    diameter, radius = max(ecc), min(ecc)
    u_star = ecc.index(diameter)
    return EccReport(ecc=ecc, witness=wit, diameter=diameter, radius=radius,
                     diametral_pair=(u_star, wit[u_star]),
                     center_vertex=ecc.index(radius))
