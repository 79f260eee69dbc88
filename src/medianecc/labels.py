"""Upward reach labels phi(u, L) on hypercube records.

For a vertex u and a pof L outgoing from u, phi(u, L) is the largest
distance d(u, v) over vertices v that lie "above" u (u between v0 and v)
whose ladder set at u is exactly L; mu(u, L) is a vertex attaining it.
The ladder set of (u, v) collects the separating classes that have an edge
at u, i.e. the possible first steps of shortest (u, v)-paths.
"""
from __future__ import annotations

from .cubes import CubeIndex
from .theta import ThetaDecomposition


def compute_phi(index: CubeIndex, theta: ThetaDecomposition) -> None:
    """Fill phi/mu for every record, in place.

    Records are swept from the farthest anti-basis to the nearest, so every
    contribution into a record lands before that record itself is read:

    * a record still at 0 when reached is "peripheral"; its best target is
      its own anti-basis, at distance |L|;
    * each record then extends the records hanging below its basis b: for a
      nonempty subset X of b's ingoing classes whose cube has basis b-,
      the value |X| + phi(u, L) carries over unless some class of L still
      touches b- (then the ladder set at b- would grow past X).

    Ties keep the earlier witness; empty-pof records stay at 0 / self.
    """
    incident = theta.incident
    pofs, phi, mu = index.pof, index.phi, index.mu
    basis, ingoing = index.basis, index.ingoing

    for r in range(len(pofs) - 1, -1, -1):
        L = pofs[r]
        if not L:
            continue
        if phi[r] == 0:
            phi[r] = len(L)  # mu[r] already holds the record's anti-basis
        reach = phi[r]
        wit = mu[r]
        for t in ingoing[basis[r]]:
            X = pofs[t]
            if not X:
                continue
            inc_low = incident[basis[t]]
            blocked = False
            for c in L:
                if c in inc_low:
                    blocked = True
                    break
            if not blocked:
                cand = len(X) + reach
                if cand > phi[t]:
                    phi[t] = cand
                    mu[t] = wit
