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
upward edges (see ``medianecc.cubes``). At a heavy vertex (more pairs of
nonempty records than ``_transform_cost(k, #in)``) with dense pofs
(``local_masks``), one subset-max transform over b's local class bits
replaces that pair loop: every pof inside the complement of t's blocked
mask is unblocked, so one table read answers t.

An index whose ``arrays`` slot is set (large inputs with wide levels and
few pairs, see ``medianecc.flat_labels``) is swept on numpy arrays
instead, with the same labels and ties.
"""
from __future__ import annotations

from .cubes import CubeIndex
from .opposites import pof_masks, subset_max
from .theta import ThetaDecomposition


def _transform_cost(k: int, n_in: int) -> int:
    """Python steps of the transform at a vertex with k local classes and
    n_in ingoing records: k probes per ingoing record for its blocked mask,
    2^k table slots and k passes over them in ``subset_max``. The pair loop
    takes at least one step per pair, so more pairs than this make a vertex
    heavy. On the benchmark inputs that cut is as fast as all-transform on
    Q10 and Q11 and as all-loop on small-batch (all-transform: +60 %)."""
    return ((k + 1) << k) + k * n_in


def local_masks(index: CubeIndex, incident: list, outs: list, ins: list):
    """``(out_masks, in_masks)`` at a dense vertex (``pof_masks``) with
    outgoing and ingoing records ``outs`` and ``ins`` (each led by its
    empty pof), else None: each outgoing pof's mask over the local
    classes, and for each nonempty ingoing record the mask of those
    incident to its basis."""
    dense = pof_masks([index.pof[r] for r in outs])
    if dense is None:
        return None
    bit, mask = dense
    basis, bits = index.basis, list(bit.items())
    in_masks = []
    for t in ins[1:]:
        inc = incident[basis[t]]
        m = 0
        for c, b in bits:
            if c in inc:
                m |= b
        in_masks.append(m)
    return list(mask.values()), in_masks


def compute_phi(index: CubeIndex, theta: ThetaDecomposition) -> None:
    """Allocate and fill phi/mu for every record. At each vertex b the
    empty outgoing pof (phi 0, witness b) lets an ingoing record with no
    unblocked pof reach b itself, at distance |X|; a heavy vertex keys its
    outgoing record r as phi(r) * R + r over R records. An index with
    record arrays takes ``flat_labels.compute_phi``."""
    if index.arrays is not None:
        from . import flat_labels
        return flat_labels.compute_phi(index)
    incident, in_classes = theta.incident, theta.in_classes
    pofs, basis = index.pof, index.basis
    ingoing, outgoing = index.ingoing, index.outgoing
    R = len(pofs)
    index.phi = phi = [0] * R
    index.mu = mu = basis[:]

    for b in reversed(index.order):  # by level, farthest first
        ins = ingoing[b]
        if len(ins) == 1:
            continue
        outs = outgoing[b]
        k = len(incident[b]) - len(in_classes[b])
        masks = None  # light
        if (len(outs) - 1) * (len(ins) - 1) > _transform_cost(k, len(ins)):
            masks = local_masks(index, incident, outs, ins)
        if masks is None:
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
        out_masks, in_masks = masks
        best = [-1] * (1 << k)
        for r, m in zip(outs, out_masks):
            best[m] = phi[r] * R + r
        subset_max(best, k)
        full = len(best) - 1
        for t, m in zip(ins[1:], in_masks):
            reach, r = divmod(best[full ^ m], R)
            phi[t] = len(pofs[t]) + reach
            mu[t] = mu[r]
