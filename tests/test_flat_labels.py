"""The array label stages (``medianecc.flat_labels``) give the scalar
stages' labels, witnesses and reports, and the rule sends the inputs it
names to each path.

``flat.compute_theta``, ``flat_labels.walk`` and ``flat_labels.build`` are
called directly, so the edge cut and the rule that pick a path are
bypassed: on small graphs the scalar run walks theta's lists and leaves
``index.records`` None, and the array run walks theta's arrays and sets it
before the label stages.
"""
from __future__ import annotations

import random
import tracemalloc
from array import array

import numpy as np
import pytest

from medianecc import (CubeIndex, build_graph, compute_opposites, compute_phi,
                       compute_psi, compute_theta, eccentricities,
                       enumerate_cubes, run_pipeline)
from medianecc import flat, flat_labels, opposites
from medianecc.cubes import sweep_pairs
from medianecc.generators import (cartesian_product, gen_grid,
                                  gen_hypercube, gen_tree,
                                  peripheral_expansion)

LABELS = ("phi", "mu", "opp", "psi", "psi_witness")
EXPANSIONS = 300


def labelled(g, v0, arrays):
    """The labelled index and report, walked on flat theta's arrays and
    swept on record arrays, or all scalar."""
    if arrays:
        theta = flat.compute_theta(g, v0)
        index = CubeIndex(g.n)
        index.records = flat_labels.walk(theta)
        assert flat_labels.links(index.records)
        flat_labels.build(index.records)
    else:
        theta = compute_theta(g, v0)
        index = enumerate_cubes(g, theta)
    compute_phi(index, theta)
    compute_opposites(index)
    compute_psi(index, theta)
    return index, eccentricities(index)


def fill_dense_masks(scalar, a):
    """Check that the scalar stages filled class masks only where one of
    them reads them: at the vertices where phi took the scan or the
    transform, and where the opposites take the complement or the
    subset-max table. Then fill them, by ``class_masks``, at every dense
    vertex of the record arrays ``a``, so that the two stores compare."""
    filled = scalar.mask or [0] * len(scalar)
    for b, outs in enumerate(scalar.outgoing):
        if len(outs) > 1 and filled[outs[1]]:
            p, s = len(outs), len(scalar.pof[outs[-1]])
            complement = p == 1 << s and \
                sum(scalar.phi[r] for r in outs) == s << (s - 1)
            table = p > opposites.RANKED_POFS and s > 1 and \
                opposites.dense(p, int(a.outdeg[b]))
            assert scalar.mask_path.get(b) in ("scan", "transform") or \
                complement or table, b
    for b in np.flatnonzero(flat_labels._dense(a)).tolist():
        opposites.class_masks(scalar, scalar.outgoing[b], int(a.outdeg[b]))


def assert_same(g, v0=0):
    """Whether the array path took some sparse opposites vertex, after
    checking that it agrees with the scalar path, class masks included:
    filled at every dense vertex (``fill_dense_masks``), 0 elsewhere."""
    index, report = labelled(g, v0, arrays=True)
    scalar, scalar_report = labelled(g, v0, arrays=False)
    for name in LABELS:
        assert list(getattr(index, name)) == getattr(scalar, name), name
    assert report == scalar_report
    a = index.records
    fill_dense_masks(scalar, a)
    assert a.mask.tolist() == list(scalar.mask or [0] * len(scalar))
    return bool((~flat_labels._dense(a) & (a.out_ptr[1:] - a.out_ptr[:-1]
                                           > 2)).any())


def test_small_corpus_from_four_basepoints(small_corpus):
    rng = random.Random(15)
    for name, g in small_corpus:
        for v0 in sorted({0, g.n // 2, g.n - 1, rng.randrange(g.n)}):
            assert_same(g, v0)


@pytest.mark.parametrize("k", [1, 2, 5, 17])
def test_grids(k):
    for g in (gen_grid(1, k), gen_grid(3, k), gen_grid(k, k)):
        for v0 in sorted({0, g.n // 2, g.n - 1}):
            assert_same(g, v0)


def test_trees_and_tree_products():
    for seed, n in enumerate((1, 2, 9, 60, 400)):
        g = gen_tree(n, seed)
        for v0 in sorted({0, n // 2, n - 1}):
            assert_same(g, v0)
    for seed in range(4):
        g = cartesian_product(gen_tree(8 + seed, seed), gen_tree(11, seed + 7))
        assert_same(g, 0)
        assert_same(g, g.n - 1 - seed)


def test_hypercubes():
    for k in range(1, 7):
        assert_same(gen_hypercube(k), 0)
        assert_same(gen_hypercube(k), (1 << k) - 1)


def test_star_times_edge_takes_the_sparse_opposites():
    # K_{1,m} x K_2: the two hubs have m + 1 classes and few pofs each
    for m in (3, 40, 300):
        g = cartesian_product(build_graph(m + 1, [(0, v)
                                                  for v in range(1, m + 1)]),
                              gen_grid(1, 2))
        for v0 in (0, 1, 2, g.n - 1):
            assert assert_same(g, v0) == (m > 3), (m, v0)


def test_peripheral_expansions():
    rng = random.Random(2026)
    for seed in range(EXPANSIONS):
        g = peripheral_expansion(gen_tree(rng.randrange(1, 5), seed), seed,
                                 rng.randrange(1, 40), max_n=200)
        assert_same(g, rng.randrange(g.n))


def test_dense_masks_match_the_scalar_store():
    # one dense rule and one mask layout on both paths: at every dense
    # vertex the masks agree and give each out-class its own bit
    for g in (gen_hypercube(5), gen_grid(6, 7), cartesian_product(
            gen_hypercube(3), gen_tree(9, 4))):
        index, _ = labelled(g, 0, arrays=True)
        scalar, _ = labelled(g, 0, arrays=False)
        a = index.records
        fill_dense_masks(scalar, a)
        dense = flat_labels._dense(a)
        assert dense.any()
        for b in np.flatnonzero(dense).tolist():
            outs = scalar.outgoing[b]
            k = int(a.outdeg[b])
            assert [a.mask[r] for r in outs] == [scalar.mask[r]
                                                 for r in outs]
            assert sorted(scalar.mask[r] for r in outs[1:k + 1]) == \
                [1 << i for i in range(k)]


def test_sweep_pairs_counts_the_pairs(small_corpus):
    for name, g in small_corpus:
        index = enumerate_cubes(g, compute_theta(g))
        assert sweep_pairs(index) == sum(
            (len(out) - 1) * (len(ins) - 1)
            for out, ins in zip(index.outgoing, index.ingoing)), name


def test_rule_sends_wide_light_inputs_to_arrays():
    grid = run_pipeline(gen_grid(120, 120))
    counters = grid.counters
    assert counters == {"records": len(grid.index), "levels": 239,
                        "pairs": sweep_pairs(grid.index), "sweeps": "array"}
    assert all(type(getattr(grid.index, name)) is array for name in LABELS)
    # a ladder is two vertices wide; Q12 has 29.6 pairs per record
    for g in (gen_grid(2, 9000), gen_hypercube(12)):
        result = run_pipeline(g)
        assert result.counters["sweeps"] == "scalar"
        assert result.index.records is None
        assert all(type(getattr(result.index, name)) is list
                   for name in LABELS)
    assert run_pipeline(gen_grid(5, 5)).counters["sweeps"] == "scalar"


def test_stage_memory_per_record():
    # tracemalloc peak of the four array stages on a 200 x 200 grid: 38.3
    # bytes per record measured, the bound is that plus 25 %
    run_pipeline(gen_grid(100, 100))  # first-use allocations
    g = gen_grid(200, 200)
    theta = compute_theta(g)
    index = enumerate_cubes(g, theta)
    assert index.records is not None
    tracemalloc.start()
    try:
        compute_phi(index, theta)
        compute_opposites(index)
        compute_psi(index, theta)
        eccentricities(index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(index) < 48, peak / len(index)


def test_stages_need_their_inputs():
    g = gen_grid(3, 3)
    theta = compute_theta(g)
    index = enumerate_cubes(g, theta)
    assert all(getattr(index, name) is None for name in LABELS)
    with pytest.raises(RuntimeError, match="compute_phi"):
        compute_opposites(index)
    compute_phi(index, theta)
    with pytest.raises(RuntimeError, match="compute_opposites"):
        compute_psi(index, theta)
    compute_opposites(index)
    with pytest.raises(RuntimeError, match="compute_psi"):
        eccentricities(index)
