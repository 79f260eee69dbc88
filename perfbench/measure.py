"""Timed, traced and fresh-process passes over a workload, and the checks
that every report they return is exact.

The end-to-end run times whole passes with tracing off; the per-layer run
is a separate run whose traced passes never share a pass with a timed one.

Every time is reported in seconds at a reference host speed. The host is
shared, and its speed drifts by up to 1.8x in phases of several seconds,
which moves the median of a 30 s run by 25 % between runs. So each timed
region sits between two runs of a fixed calibration kernel, and its wall
time is scaled by ``CAL_REF_S`` over their mean. The kernel is
benchmark-owned pure Python (tuples, a dict, a list), so a change to the
program never changes it; with the host at its reference speed the factor
is 1. The raw wall-time medians and the factors are printed alongside.
"""
from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from medianecc import (compute_opposites, compute_phi, compute_psi,
                       compute_theta, eccentricities, enumerate_cubes,
                       load_graph, run_pipeline)

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150
# Set-up is repeated for this long, and at least this often, and the median
# reported, so that the 30 ms hypercube and the 1 s small batch are both
# measured over enough repetitions to be steady.
SETUP_SECONDS = 2.0
SETUP_MIN_REPEATS = 3
# Calibration kernel size, and its time on the 2-vCPU Xeon host the
# benchmark was defined on, in a quiet phase.
CAL_N = 60_000
CAL_REF_S = 0.028

# Stage spans of the traced pass, in run_pipeline's order; the first one is
# the parse and validation in load_graph.
STAGES = ("graph.load_s", "theta.time_s", "cubes.time_s", "labels.phi_s",
          "opposites.time_s", "eccentricity.psi_s", "eccentricity.assemble_s")
COUNTERS = ("theta.classes", "theta.squares", "theta.levels",
            "cubes.records", "cubes.dim", "labels.sweep_steps")


def calibrate() -> float:
    """Wall time of the fixed calibration kernel."""
    t = time.perf_counter()
    table: dict = {}
    keys: list = []
    for i in range(CAL_N):
        key = (i, i ^ 0x5BD1)
        table[key] = len(keys)
        keys.append(key)
    total = 0
    for i in range(0, CAL_N, 3):
        total += table[keys[i * 7919 % CAL_N]]
    return time.perf_counter() - t


def scaled(fn) -> tuple:
    """``fn()``'s result, its wall time, and the factor that scales that
    wall time to the reference speed."""
    before = calibrate()
    t = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t
    return out, wall, 2 * CAL_REF_S / (before + calibrate())


def check(report, exp) -> bool:
    """Exact eccentricities, a farthest vertex as each witness, and the
    extremes with the pipeline's smallest-id tie-breaks."""
    try:
        ecc = np.asarray(report.ecc, dtype=np.int64)
        wit = np.asarray(report.witness, dtype=np.int64)
        n = len(exp.ecc)
        if ecc.shape != (n,) or wit.shape != (n,):
            return False
        if not np.array_equal(ecc, exp.ecc):
            return False
        if wit.min() < 0 or wit.max() >= n:
            return False
        if not np.array_equal(exp.witness_dist(wit), exp.ecc):
            return False
        far, center = int(exp.ecc.argmax()), int(exp.ecc.argmin())
        return (report.diameter == exp.ecc[far]
                and report.radius == exp.ecc[center]
                and report.center_vertex == center
                and tuple(report.diametral_pair) == (far, int(wit[far])))
    except (TypeError, ValueError, AttributeError):
        return False


class Tally:
    """Reports attempted and failed, over every pass of the run."""

    def __init__(self, expected: list):
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def add(self, reports: list) -> None:
        for k, (report, exp) in enumerate(zip(reports, self.expected,
                                              strict=True)):
            self.attempted += 1
            if isinstance(report, Exception) or not check(report, exp):
                self.failed += 1
                print(f"graph {k}: report failed verification: "
                      f"{report!r:.200}", file=sys.stderr)


def plain_pass(texts: list) -> list:
    """load_graph + run_pipeline over every text, as a user calls them."""
    reports = []
    for text in texts:
        try:
            reports.append(run_pipeline(load_graph(text)).report)
        except Exception as exc:  # counted as a failed report
            reports.append(exc)
    return reports


def traced_pass(texts: list, spans: list, counters: dict | None) -> list:
    """The stages of run_pipeline called one by one, each inside a span.

    A span row is the eight clock readings around the seven stage calls of
    one graph. When ``counters`` is given they are read from the returned
    objects after the graph's last span has closed.
    """
    reports = []
    clock = time.perf_counter
    for text in texts:
        try:
            t0 = clock()
            g = load_graph(text)
            t1 = clock()
            theta = compute_theta(g)
            t2 = clock()
            index = enumerate_cubes(g, theta)
            t3 = clock()
            compute_phi(index, theta)
            t4 = clock()
            compute_opposites(index)
            t5 = clock()
            compute_psi(index, theta)
            t6 = clock()
            report = eccentricities(index)
            t7 = clock()
        except Exception as exc:  # counted as a failed report
            reports.append(exc)
            continue
        spans.append((t0, t1, t2, t3, t4, t5, t6, t7))
        reports.append(report)
        if counters is not None:
            add_counters(counters, theta, index)
    return reports


def add_counters(c: dict, theta, index) -> None:
    c["theta.classes"] += theta.q
    c["theta.squares"] += sum(k * (k - 1) // 2
                              for k in map(len, theta.in_classes))
    c["theta.levels"] += max(theta.dist0) + 1
    c["cubes.records"] += len(index)
    c["cubes.dim"] = max(c["cubes.dim"], index.dimension)
    pof, basis, ingoing = index.pof, index.basis, index.ingoing
    c["labels.sweep_steps"] += sum(len(ingoing[basis[r]])
                                   for r in range(len(pof)) if pof[r])


def repeat_for(seconds: float, one_round, at_least: int = 1) -> None:
    """Run rounds until the next one would end past ``seconds``, and at
    least ``at_least`` of them."""
    start = time.perf_counter()
    rounds = 0
    while True:
        t = time.perf_counter()
        one_round()
        rounds += 1
        now = time.perf_counter()
        if rounds >= at_least and now + (now - t) - start > seconds:
            return


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def peak_rss(texts: list, tally: Tally) -> float:
    """Peak RSS in MB of one pass in a fresh process; its reports are
    verified like any other."""
    src = HERE.parent / "src"
    proc = subprocess.run(
        [sys.executable, str(HERE / "rss_child.py"), str(src)],
        input=json.dumps(texts), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    reports = [RuntimeError(d["error"]) if "error" in d
               else argparse.Namespace(**d) for d in lines[:-1]]
    tally.add(reports)
    return lines[-1]["peak_kb"] / 1024.0


def end_to_end(name: str, seed: int, seconds: float) -> tuple:
    setups, made = [], []

    def set_up():
        out, wall, factor = scaled(lambda: workloads.make(name, seed))
        made[:] = out
        setups.append(wall * factor)

    repeat_for(SETUP_SECONDS, set_up, SETUP_MIN_REPEATS)
    graphs, texts = made
    tally = Tally(workloads.expect(name, graphs))
    del graphs, made[:]

    walls, factors = [], []

    def one_round():
        # Each pass starts from a collected heap, so the previous pass's
        # garbage is never collected inside this one's timing.
        gc.collect()
        reports, wall, factor = scaled(lambda: plain_pass(texts))
        walls.append(wall)
        factors.append(factor)
        tally.add(reports)

    repeat_for(seconds, one_round)
    rss = peak_rss(texts, tally)

    q1, report_s, q3 = quartiles([w * f for w, f in zip(walls, factors)])
    setup_s = statistics.median(setups)
    verified = (tally.attempted - tally.failed) / tally.attempted
    print(f"report_s      {report_s:.4f} s   median of {len(walls)} passes "
          f"of {len(texts)} graphs, quartiles {q1:.4f}..{q3:.4f}; raw wall "
          f"median {statistics.median(walls):.4f} s, speed factor "
          f"{min(factors):.3f}..{max(factors):.3f}")
    print(f"peak_rss_mb   {rss:.1f} MB  one pass in a fresh process")
    print(f"setup_s       {setup_s:.4f} s   median of {len(setups)} set-ups")
    print(f"failed_frac   {tally.failed / tally.attempted:.4f}      "
          f"{tally.failed} of {tally.attempted} reports")
    return tally, {
        "report_s": (report_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup_s, "s"),
        "verified_frac": (verified, "ratio"),
    }


def per_layer(name: str, seed: int, seconds: float) -> tuple:
    graphs, texts = workloads.make(name, seed)
    tally = Tally(workloads.expect(name, graphs))
    del graphs

    plain_s = []
    traced = []  # per traced pass: its span rows and its speed factor
    counters = dict.fromkeys(COUNTERS, 0)

    def one_round():
        gc.collect()
        reports, wall, factor = scaled(lambda: plain_pass(texts))
        plain_s.append(wall * factor)
        tally.add(reports)
        gc.collect()
        spans = []
        first = not traced
        reports, _, factor = scaled(
            lambda: traced_pass(texts, spans, counters if first else None))
        traced.append((spans, factor))
        tally.add(reports)

    repeat_for(seconds, one_round)

    per_pass = [[factor * sum(row[i + 1] - row[i] for row in spans)
                 for i in range(len(STAGES))] for spans, factor in traced]
    stage_s = [statistics.median(p[i] for p in per_pass)
               for i in range(len(STAGES))]
    overhead = (statistics.median(sum(p) for p in per_pass)
                - statistics.median(plain_s))
    records = counters["cubes.records"]

    metrics = {s: (v, "s") for s, v in zip(STAGES, stage_s)}
    metrics.update({c: (counters[c], "count") for c in COUNTERS})
    metrics["cubes.ns_per_record"] = (stage_s[2] / records * 1e9, "ns")
    metrics["opposites.ns_per_record"] = (stage_s[4] / records * 1e9, "ns")
    metrics["trace.overhead_s"] = (overhead, "s")

    total = sum(stage_s)
    print(f"{len(traced)} traced and {len(plain_s)} plain passes of "
          f"{len(texts)} graphs")
    for s, v in zip(STAGES, stage_s):
        print(f"{s:26s} {v:.4f} s  {v / total:6.1%}")
    return tally, metrics
