"""Bent-path labels psi(u, X) and assembly of all eccentricities.

phi covers targets v lying above u. For everything else the shortest
(u, v)-path bends at the basepoint median m: it goes down from u to m, then
up to v. psi(u, X) is the largest such d(u, v) over targets whose walk
toward u makes its final hypercube jump through the cube (basis u-, classes
X, anti-basis u). The eccentricity of u is then the maximum over both label
families on the records around u.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cubes import CubeIndex
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
    """Fill psi / psi_witness for every nonempty-pof record, in place.

    Forward sweep (anti-bases nearest to v0 first), so the labels of the
    record's basis u- are final when read. Two candidate families:

    * the bend sits at u- itself: |X| plus the best upward reach at u-
      among pofs disjoint from X, i.e. phi of the record's opposite (the
      opposite may be empty, which covers the degenerate target v = u-);
    * the bend sits strictly below: |X| + psi(u-, X-) for each nonempty
      ingoing pof X- of u- whose own cube basis touches no class of X
      (otherwise u- would not be the final jump-off point toward u).

    Requires compute_phi and compute_opposites.
    """
    if index.opp is None:
        raise RuntimeError("compute_opposites must run before compute_psi")
    incident = theta.incident
    pofs, phi, mu = index.pof, index.phi, index.mu
    psi, psiw = index.psi, index.psi_witness
    basis, ingoing, opp = index.basis, index.ingoing, index.opp

    for r in range(len(pofs)):
        X = pofs[r]
        if not X:
            continue
        low = basis[r]
        o = opp[r]
        size = len(X)
        best = size + phi[o]
        wit = mu[o]
        for t in ingoing[low]:
            if not pofs[t]:
                continue
            inc_lower = incident[basis[t]]
            blocked = False
            for c in X:
                if c in inc_lower:
                    blocked = True
                    break
            if blocked:
                continue
            cand = size + psi[t]
            if cand > best:
                best = cand
                wit = psiw[t]
        psi[r] = best
        psiw[r] = wit


def eccentricities(index: CubeIndex) -> EccReport:
    """Assemble every vertex's eccentricity from the computed labels.

    The witness is the smallest vertex id among the records attaining the
    maximum.
    """
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

    diameter = max(ecc)
    radius = min(ecc)
    u_star = ecc.index(diameter)
    center = ecc.index(radius)
    return EccReport(ecc=ecc, witness=wit, diameter=diameter, radius=radius,
                     diametral_pair=(u_star, wit[u_star]),
                     center_vertex=center)
