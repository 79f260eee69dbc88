"""End-to-end driver: theta -> cubes -> phi -> opposites -> psi -> ecc."""
from __future__ import annotations

import time
from dataclasses import dataclass

from .cubes import CubeIndex, enumerate_cubes, sweep_pairs
from .eccentricity import EccReport, compute_psi, eccentricities
from .graph import Graph
from .labels import compute_phi
from .opposites import compute_opposites
from .theta import ThetaDecomposition, compute_theta


@dataclass
class PipelineResult:
    theta: ThetaDecomposition
    index: CubeIndex
    report: EccReport
    timings: dict

    @property
    def total_time(self) -> float:
        return sum(self.timings.values())

    @property
    def counters(self) -> dict:
        """What the run did: ``records``, ``levels`` from v0, the sweep
        ``pairs`` (``cubes.sweep_pairs``) and which ``sweeps`` ran, "array"
        (``medianecc.flat_labels``) or "scalar"; scalar sweeps add the
        vertices per path of ``opposites``, ``phi`` and ``psi``, the last
        two with "blocked" vertices, where every class blocks every nonempty
        ingoing cube. psi takes phi's mask paths (``CubeIndex.mask_path``),
        so their "blocked", "scan" and "transform" counts are equal. Reading
        them builds no view of theta or of the index."""
        t = self.theta.arrays
        levels = max(self.theta.dist0) if t is None else int(t.level.max())
        return {"records": len(self.index), "levels": levels + 1,
                "pairs": sweep_pairs(self.index),
                "sweeps": "scalar" if self.index.records is None else "array",
                **self.index.paths}


def run_pipeline(g: Graph, v0: int = 0) -> PipelineResult:
    """Run every stage, recording its wall time in seconds under the
    ``timings`` keys "theta", "cubes", "phi", "opposites", "psi", "ecc"."""
    timings = {}

    def timed(stage, fn, *args):
        t = time.perf_counter()
        out = fn(*args)
        timings[stage] = time.perf_counter() - t
        return out

    theta = timed("theta", compute_theta, g, v0)
    index = timed("cubes", enumerate_cubes, g, theta)
    timed("phi", compute_phi, index, theta)
    timed("opposites", compute_opposites, index)
    timed("psi", compute_psi, index, theta)
    report = timed("ecc", eccentricities, index)
    return PipelineResult(theta=theta, index=index, report=report,
                          timings=timings)
