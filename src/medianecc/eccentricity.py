"""Bent-path labels psi(u, X) and assembly of all eccentricities.

phi covers targets v lying above u. For everything else the shortest
(u, v)-path bends at the basepoint median m: it goes down from u to m, then
up to v. psi(u, X) is the largest such d(u, v) over targets whose walk
toward u makes its final hypercube jump through the cube (basis u-, classes
X, anti-basis u). The eccentricity of u is then the maximum over both label
families on the records around u.

The sweep visits vertices from the nearest level to the farthest and pairs
each outgoing record with the ingoing records of its basis that its pof
does not block; ties go to the opposite's phi, then to the smallest
ingoing record id. Each vertex takes the path phi took there
(``index.mask_path``; counted in ``index.paths["psi"]``), keyed so that
the same ties win. ``eccentricities`` takes the report's extremes from
the per-vertex maxima of either path; an index with record arrays runs
the sweep and those maxima in ``medianecc.flat_labels``.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import labels
from .cubes import CubeIndex
from .opposites import class_masks, subset_max
from .theta import ThetaDecomposition


@dataclass(frozen=True)
class EccReport:
    """Per-vertex eccentricities with farthest witnesses and the extremes."""

    ecc: list
    witness: list
    diameter: int
    radius: int
    diametral_pair: tuple
    center_vertex: int


def compute_psi(index: CubeIndex, theta: ThetaDecomposition) -> None:
    """Allocate psi / psi_witness and fill them for every nonempty-pof
    record (an empty pof keeps -1, -1).

    Vertices are visited by level from v0, so the labels ingoing at a
    vertex u- are final when its outgoing records (classes X) are
    labelled. Two candidate families:

    * the bend sits at u- itself: |X| plus the best upward reach at u-
      among pofs disjoint from X, i.e. phi of the record's opposite (the
      opposite may be empty, which covers the degenerate target v = u-);
    * the bend sits strictly below: |X| + psi(u-, X-) for each nonempty
      ingoing pof X- of u- whose own cube basis touches no class of X
      (otherwise u- would not be the final jump-off point toward u).

    Every record starts at the first family. A vertex that takes a mask
    path keys ingoing record t as psi(t) * R + (R - 1 - t).

    Requires compute_phi and compute_opposites. An index with record
    arrays takes ``flat_labels.compute_psi``.
    """
    if index.opp is None:
        raise RuntimeError("compute_opposites must run before compute_psi")
    if index.records is not None:
        from . import flat_labels
        return flat_labels.compute_psi(index)
    incident, in_classes = theta.incident, theta.in_classes
    pofs, phi, mu, opp = index.pof, index.phi, index.mu, index.opp
    basis, ingoing, outgoing = index.basis, index.ingoing, index.outgoing
    R = len(pofs)
    index.psi = psi = [-1] * R
    index.psi_witness = psiw = [-1] * R
    for r, X in enumerate(pofs):  # start at the opposite's phi
        if X:
            o = opp[r]
            psi[r], psiw[r] = len(X) + phi[o], mu[o]
    loop = 0

    for b in index.order:  # by level, nearest first
        outs = outgoing[b]
        if len(outs) == 1:
            continue
        ins = ingoing[b]
        path = index.mask_path.get(b)
        if path is None:
            loop += 1
            lows = ins[1:]  # ascending t: the first wins ties
            for r in outs[1:]:
                X = pofs[r]
                reach, wit = psi[r] - len(X), psiw[r]
                for t in lows:
                    p = psi[t]
                    if p > reach:
                        inc_lower = incident[basis[t]]
                        for c in X:
                            if c in inc_lower:
                                break
                        else:
                            reach, wit = p, psiw[t]
                psi[r] = len(X) + reach
                psiw[r] = wit
            continue
        if path == "blocked":  # every ingoing psi is blocked
            continue
        k = len(incident[b]) - len(in_classes[b])
        queries = labels.blocked_masks(index, theta, b, k)
        masks = class_masks(index, outs, k)
        top = {}  # the best key of each distinct blocked mask
        for t, q in zip(ins[1:], queries[1:]):
            top[q] = max(top.get(q, -1), psi[t] * R + (R - 1 - t))
        nonempty = list(zip(outs[1:], masks[1:]))
        if path == "scan":  # best keys first: a later equal psi does not win
            ranked = sorted(top.items(), key=lambda e: -e[1])
            offers = ((r, key) for q, key in ranked
                      for r in [r for r, m in nonempty if not m & q])
        else:
            table = subset_max(top.items(), k)
            offers = ((r, table[-1 - m]) for r, m in nonempty)
        for r, key in offers:
            p, t = divmod(key, R)  # p = -1 when no t fits
            if len(pofs[r]) + p > psi[r]:
                psi[r] = len(pofs[r]) + p
                psiw[r] = psiw[R - 1 - t]
    index.paths["psi"] = {**index.paths["phi"], "loop": loop}


def eccentricities(index: CubeIndex) -> EccReport:
    """Assemble every vertex's eccentricity, and the extremes, from labels.

    The witness is the smallest vertex id among the records attaining the
    maximum. Requires compute_psi. An index with record arrays takes its
    eccentricities and witnesses from ``flat_labels.eccentricities``.
    """
    if index.psi is None:
        raise RuntimeError("compute_psi must run before eccentricities")
    if index.records is not None:
        from . import flat_labels
        ecc, wit = flat_labels.eccentricities(index)
    else:
        phi, mu = index.phi, index.mu
        psi, psiw = index.psi, index.psi_witness
        outgoing, ingoing = index.outgoing, index.ingoing
        ecc = [0] * index.n
        wit = [0] * index.n
        for u in range(index.n):
            best = 0
            bw = u  # the empty outgoing cube: distance 0 to u itself
            for r in outgoing[u]:
                val = phi[r]
                if val > best or (val == best and mu[r] < bw):
                    best = val
                    bw = mu[r]
            for r in ingoing[u]:  # empty-pof records keep psi = -1
                val = psi[r]
                if val > best or (val == best and psiw[r] < bw):
                    best = val
                    bw = psiw[r]
            ecc[u] = best
            wit[u] = bw

    diameter, radius = max(ecc), min(ecc)
    u_star = ecc.index(diameter)
    return EccReport(ecc=ecc, witness=wit, diameter=diameter, radius=radius,
                     diametral_pair=(u_star, wit[u_star]),
                     center_vertex=ecc.index(radius))
