"""Upward reach labels phi(u, L) on hypercube records.

For a vertex u and a pof L outgoing from u, phi(u, L) is the largest
distance d(u, v) over vertices v that lie "above" u (u between v0 and v)
whose ladder set at u is exactly L; mu(u, L) is a vertex attaining it.
The ladder set of (u, v) collects the separating classes that have an edge
at u, i.e. the possible first steps of shortest (u, v)-paths.

The sweep visits vertices from the farthest level to the nearest and
labels each vertex b's ingoing records t from b's outgoing records: the
best phi among outgoing pofs L not blocked at t (no class of L incident to
t's basis), ties to the larger record id. b's local classes are its k
upward edges (see ``medianecc.cubes``). Unless a vertex is heavy
(``_heavy_cost``) and dense (``opposites.dense``), a "loop" tests every
pair. Otherwise every pof inside the complement of t's blocked mask
(``blocked_masks``) over b's classes (``opposites.class_masks``) is
unblocked. Where every class blocks every nonempty t, as on Q_d, b is
"blocked": each t reaches b itself, with no mask work. Elsewhere the
kernel ``opposites.disjoint_max`` answers the distinct blocked masks
from b's outgoing masks, by a "scan" or a subset-max "transform" table.
``index.paths["phi"]`` counts the paths, and
``index.mask_path`` keeps each vertex's mask path for the psi sweep.

An index whose ``records`` slot is set (large inputs with wide levels and
few pairs, see ``medianecc.flat_labels``) is swept on numpy arrays
instead, with the same labels and ties.
"""
from __future__ import annotations

from .cubes import CubeIndex
from .opposites import class_bits, class_masks, dense, disjoint_max
from .theta import ThetaDecomposition


def _heavy_cost(k: int, n_in: int) -> int:
    """Python steps of the mask paths at a vertex with k local classes
    and n_in ingoing records: about two per 2^k table slot and per
    ingoing record, and 64 for the calls. More pairs make a vertex heavy.
    Against the transform's cost, (k + 1) 2^k + k n_in, this cut took 14 %
    off the label stages on Q11 and 2 % on small-batch (best of 10,
    interleaved); all-heavy is over 50 % slower on small-batch."""
    return (2 << k) + 2 * n_in + 64


def blocked_masks(index: CubeIndex, theta: ThetaDecomposition, b: int,
                  k: int) -> list | None:
    """For each mask M over b's ingoing classes, the bits of b's k classes
    (``opposites.class_bits``) incident to the basis of b's record M, or
    None when b is fully blocked. A class c blocks the pof X
    exactly when X lies in the ingoing classes of b + c (see
    ``medianecc.flat_labels``), so the mask of M is that of M without its
    top bit AND that of the top bit: k probes per class. When every class's
    mask is full, so is every nonempty record's: no record's mask is built."""
    incident = theta.incident
    bits = class_bits(index, index.outgoing[b], k).items()
    full = (1 << k) - 1  # b has all of its classes
    tops = [sum(bit for c, bit in bits if c in incident[incident[b][a]])
            for a in theta.in_classes[b]]
    if tops.count(full) == len(tops):
        return None
    found = [full]
    for top in tops:
        found += [m & top for m in found]
    return found


def compute_phi(index: CubeIndex, theta: ThetaDecomposition) -> None:
    """Allocate and fill phi/mu for every record. At each vertex b the
    empty outgoing pof (phi 0, witness b) lets an ingoing record with no
    unblocked pof reach b itself, at distance |X|; a heavy vertex keys its
    outgoing record r as phi(r) * R + r over R records. An index with
    record arrays takes ``flat_labels.compute_phi``."""
    if index.records is not None:
        from . import flat_labels
        return flat_labels.compute_phi(index)
    incident, in_classes = theta.incident, theta.in_classes
    pofs, basis = index.pof, index.basis
    ingoing, outgoing = index.ingoing, index.outgoing
    R = len(pofs)
    index.phi = phi = [0] * R
    index.mu = mu = basis[:]
    index.mask_path = taken = {}
    loop = 0

    for b in reversed(index.order):  # by level, farthest first
        ins = ingoing[b]
        if len(ins) == 1:
            continue
        outs = outgoing[b]
        k = len(incident[b]) - len(in_classes[b])
        if (len(outs) - 1) * (len(ins) - 1) <= _heavy_cost(k, len(ins)) \
                or not dense(len(outs), k):
            loop += 1
            tops = outs[:0:-1]  # descending r: the larger r wins ties
            for t in ins[1:]:
                inc_low = incident[basis[t]]
                reach, wit = 0, b
                for r in tops:
                    p = phi[r]
                    if p > reach:
                        for c in pofs[r]:
                            if c in inc_low:
                                break
                        else:
                            reach, wit = p, mu[r]
                phi[t] = len(pofs[t]) + reach
                mu[t] = wit
            continue
        queries = blocked_masks(index, theta, b, k)
        lo, hi = ins[1], ins[-1] + 1  # b's nonempty ingoing records
        if queries is None:  # only b's empty pof reaches: b itself
            taken[b] = "blocked"
            phi[lo:hi] = map(len, pofs[lo:hi])
            mu[lo:hi] = [b] * (hi - lo)
            continue
        queries = queries[1:]
        distinct = list(set(queries))
        found, taken[b] = disjoint_max([(m, phi[r] * R + r) for r, m in zip(
            outs, class_masks(index, outs, k))], distinct, k)
        best = dict(zip(distinct, found))
        wit = {q: mu[key % R] for q, key in best.items()}
        phi[lo:hi] = [len(p) + best[q] // R
                      for p, q in zip(pofs[lo:hi], queries)]
        mu[lo:hi] = map(wit.__getitem__, queries)
    found = list(taken.values())
    index.paths["phi"] = {"loop": loop, **{
        path: found.count(path) for path in ("blocked", "scan", "transform")}}
