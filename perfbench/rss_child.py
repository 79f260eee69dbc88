"""One untimed pass of a workload in a fresh process, for its peak memory.

Usage: python3 rss_child.py <src directory>  (edge-list texts as a JSON list
on stdin). Writes one JSON line per report, or ``{"error": ...}`` when the
pipeline raised, then a last line ``{"peak_kb": ...}`` holding the
process's peak resident set size.
"""
import json
import sys


def peak_kb() -> int:
    """VmHWM of this process image. ``resource.getrusage``'s ru_maxrss is
    not used: Linux carries the parent's high-water mark into it across
    fork and exec, so it would report the benchmark's own memory."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    from medianecc import load_graph, run_pipeline

    texts = json.load(sys.stdin)
    out = sys.stdout
    for text in texts:
        try:
            r = run_pipeline(load_graph(text)).report
        except Exception as exc:  # reported to the parent as a failed graph
            out.write(json.dumps({"error": repr(exc)}) + "\n")
            continue
        out.write(json.dumps({
            "ecc": r.ecc, "witness": r.witness, "diameter": r.diameter,
            "radius": r.radius, "diametral_pair": r.diametral_pair,
            "center_vertex": r.center_vertex}) + "\n")
    out.write(json.dumps({"peak_kb": peak_kb()}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
