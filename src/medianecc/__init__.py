"""Exact diameter, radius and eccentricities for median graphs.

The label pipeline (theta classes -> hypercube records -> upward labels ->
opposites -> bent labels) runs in time linear in the vertex count for any
fixed dimension, and refuses every input that is not a median graph with
``NonMedianGraphError``. The generators and named fixtures live in
``medianecc.generators``, the 2-sweep and 4-sweep diameter heuristics in
``medianecc.heuristics``, all-pairs distances in ``medianecc.oracle``,
which needs scipy, a test dependency, and is not imported here.
"""
from .cubes import CubeIndex, enumerate_cubes
from .eccentricity import EccReport, compute_psi, eccentricities
from .graph import (Graph, GraphFormatError, GraphValidationError, bfs,
                    build_graph, load_graph, save_graph)
from .labels import compute_phi
from .opposites import compute_opposites
from .pipeline import PipelineResult, run_pipeline
from .theta import NonMedianGraphError, ThetaDecomposition, compute_theta

__version__ = "0.1.0"

__all__ = [
    "CubeIndex", "EccReport", "Graph", "GraphFormatError",
    "GraphValidationError", "NonMedianGraphError", "PipelineResult",
    "ThetaDecomposition", "bfs", "build_graph", "compute_opposites",
    "compute_phi", "compute_psi", "compute_theta", "eccentricities",
    "enumerate_cubes", "load_graph", "run_pipeline", "save_graph",
]
