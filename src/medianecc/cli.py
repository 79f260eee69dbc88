"""Command-line front end.

Subcommands: gen, check, theta, cubes, phi, diam, ecc, sweep. The
benchmark lives in ``perfbench/`` at the repository root.
Exit codes: 0 success, 1 validation / input failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cubes import enumerate_cubes
from .generators import (FIXTURE_NAMES, cartesian_product, fixture, gen_grid,
                         gen_hypercube, gen_tree, peripheral_expansion)
from .graph import (Graph, GraphFormatError, GraphValidationError, bfs,
                    load_graph, save_graph)
from .heuristics import sweep2, sweep4
from .labels import compute_phi
from .pipeline import run_pipeline
from .theta import NonMedianGraphError, compute_theta


def _read_graph(path: str) -> Graph:
    return load_graph(Path(path).read_text(encoding="utf-8"))


def _cmd_gen(args) -> int:
    kind = args.kind
    if kind == "tree":
        g = gen_tree(args.n, args.seed)
    elif kind == "grid":
        g = gen_grid(args.p, args.q)
    elif kind == "cube":
        g = gen_hypercube(args.k)
    elif kind == "product":
        g = cartesian_product(gen_tree(args.n, args.seed),
                              gen_tree(args.q, args.seed + 1))
    elif kind == "expand":
        g = peripheral_expansion(gen_tree(1, args.seed), args.seed,
                                 args.steps, max_n=args.max_n)
    elif kind == "fixture":
        if args.name is None:
            print("gen --kind fixture requires --name", file=sys.stderr)
            return 2
        g = fixture(args.name)
    else:  # pragma: no cover - argparse restricts choices
        return 2
    Path(args.out).write_text(save_graph(g), encoding="utf-8")
    print(f"wrote {args.out} n={g.n} m={g.m}")
    return 0


def _cmd_check(args) -> int:
    g = _read_graph(args.file)
    # theta and the cube walk with its link check accept exactly the
    # median graphs. A connected graph is bipartite iff no edge joins two
    # vertices of one BFS level, which theta checks first; so only a
    # refusal needs a search of its own.
    try:
        theta = compute_theta(g, args.v0)
    except NonMedianGraphError as exc:
        dist = bfs(g, 0)
        bip = all(dist[u] != dist[v] for u, v in g.edges)
        print(f"bipartite {'true' if bip else 'false'}")
        print(f"median false\nrefused: {exc}")
        return 0
    print("bipartite true")
    print(f"euler_check {2 * g.n - g.m - theta.q}")
    try:
        enumerate_cubes(g, theta)
    except NonMedianGraphError as exc:
        print(f"median false\nrefused: {exc}")
    else:
        print("median true")
    return 0


def _cmd_theta(args) -> int:
    g = _read_graph(args.file)
    theta = compute_theta(g, args.v0)
    sizes = [0] * theta.q
    for c in theta.edge_class:
        sizes[c] += 1
    print(f"q {theta.q}")
    print(f"class_sizes {','.join(str(s) for s in sizes)}")
    print(f"euler_check {2 * g.n - g.m - theta.q}")
    return 0


def _cmd_cubes(args) -> int:
    g = _read_graph(args.file)
    theta = compute_theta(g, args.v0)
    index = enumerate_cubes(g, theta)
    beta = index.beta_histogram()
    total = len(index)
    weighted = sum((1 << i) * b for i, b in enumerate(beta))
    distinct = len(index.distinct_pofs())
    bound = (1 << index.dimension) * g.n
    print(f"d {index.dimension}")
    print(f"records {total}")
    print(f"beta {','.join(str(b) for b in beta)}")
    print(f"distinct_pofs {distinct} n {g.n} "
          f"{'ok' if distinct == g.n else 'MISMATCH'}")
    print(f"weighted_sum {weighted} records {total} "
          f"{'ok' if weighted == total else 'MISMATCH'}")
    print(f"records {total} bound {bound} "
          f"{'ok' if total <= bound else 'MISMATCH'}")
    return 0


def _cmd_phi(args) -> int:
    g = _read_graph(args.file)
    theta = compute_theta(g, args.v0)
    index = enumerate_cubes(g, theta)
    compute_phi(index, theta)
    if args.dump:
        for rid in range(len(index)):
            pof = ",".join(str(c) for c in index.pof[rid]) or "-"
            print(f"{index.basis[rid]} {pof} {index.phi[rid]} "
                  f"{index.mu[rid]}")
    else:
        print(f"records {len(index)}")
    return 0


def _cmd_diam(args) -> int:
    g = _read_graph(args.file)
    rep = run_pipeline(g, v0=args.v0).report
    a, b = rep.diametral_pair
    print(f"diameter {rep.diameter} pair {a} {b}")
    return 0


def _cmd_ecc(args) -> int:
    g = _read_graph(args.file)
    result = run_pipeline(g, v0=args.v0)
    rep = result.report
    print(f"diameter {rep.diameter} radius {rep.radius}")
    print(f"center {rep.center_vertex}")
    print(f"diametral pair {rep.diametral_pair[0]} {rep.diametral_pair[1]}")
    if args.csv:
        lines = ["vertex,ecc,witness"]
        lines.extend(f"{v},{rep.ecc[v]},{rep.witness[v]}"
                     for v in range(g.n))
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def _cmd_sweep(args) -> int:
    g = _read_graph(args.file)
    res = sweep2(g, args.start) if args.k == 2 else sweep4(g, args.start)
    print(f"distance {res.distance} pair {res.a} {res.b}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medianecc",
        description="Diameter, radius and eccentricities of median graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_v0(p):
        p.add_argument("--v0", type=int, default=0,
                       help="basepoint vertex (default 0)")

    p = sub.add_parser("gen", help="generate a graph file")
    p.add_argument("--kind", required=True,
                   choices=["tree", "grid", "cube", "product", "expand",
                            "fixture"])
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=10, help="tree / product size")
    p.add_argument("--p", type=int, default=3, help="grid rows")
    p.add_argument("--q", type=int, default=3,
                   help="grid columns / second product factor size")
    p.add_argument("--k", type=int, default=3, help="hypercube dimension")
    p.add_argument("--steps", type=int, default=10,
                   help="expansion step count")
    p.add_argument("--max-n", type=int, default=100_000)
    p.add_argument("--name", choices=list(FIXTURE_NAMES))
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="median / bipartite / euler verdicts")
    p.add_argument("file")
    add_v0(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("theta", help="theta classes summary")
    p.add_argument("file")
    add_v0(p)
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("cubes", help="hypercube census and identities")
    p.add_argument("file")
    add_v0(p)
    p.set_defaults(func=_cmd_cubes)

    p = sub.add_parser("phi", help="upward reach labels")
    p.add_argument("file")
    add_v0(p)
    p.add_argument("--dump", action="store_true",
                   help="one line per cube: basis pof phi mu")
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("diam", help="diameter and a diametral pair")
    p.add_argument("file")
    add_v0(p)
    p.set_defaults(func=_cmd_diam)

    p = sub.add_parser("ecc", help="all eccentricities")
    p.add_argument("file")
    add_v0(p)
    p.add_argument("--csv", help="write vertex,ecc,witness rows here")
    p.set_defaults(func=_cmd_ecc)

    p = sub.add_parser("sweep", help="2-sweep / 4-sweep lower bound")
    p.add_argument("file")
    p.add_argument("--k", type=int, choices=[2, 4], default=2)
    p.add_argument("--start", type=int, default=0,
                   help="first vertex of the sweep (default 0)")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, GraphValidationError, NonMedianGraphError,
            ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
