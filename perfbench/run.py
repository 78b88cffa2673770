#!/usr/bin/env python3
"""Benchmark entry point.

Builds the perfbench binary (perfbench/CMakeLists.txt, which compiles the
library from ../src) into .bench_build/ at the repository root, runs one
workload, checks its answers and prints every metric by name with its unit.
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, and the run also writes a Chrome
trace-event file under .bench_build/traces/ from which the per-layer self
times are computed.

Usage:
    python3 perfbench/run.py --workload paper-bfs --seed 1 --seconds 30 --trace 0
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170
SELF_TIME_LAYERS = ("graph", "bfs", "enterprise", "serve")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


_child = None  # the running build step or perfbench binary


def _stop_child():
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()


def _on_signal(signum, _frame):
    _stop_child()
    sys.exit(128 + signum)


def run_child(cmd, stdout, timeout=None):
    """Runs `cmd` in its own process group and returns (exit code, stdout).

    On a timeout, or a SIGTERM/SIGINT to this script, the whole group is
    killed and waited for, so no build step or binary outlives the run.
    """
    global _child
    _child = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                              text=True, start_new_session=True)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop_child()
        raise
    return _child.returncode, out


def build():
    """Configures (once) and builds the binary; returns False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: library sources missing at", ROOT / "src")
        return False
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j4"])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        code, _ = run_child(cmd, stdout=sys.stderr)
        if code != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            return False
    return BINARY.is_file()


def self_times(trace_path):
    """Per-layer self time shares from a Chrome trace-event file.

    A span's self time is its duration minus that of its child spans (args
    parent links); each layer's share is its self time over all self time.
    """
    with open(trace_path) as f:
        trace = json.load(f)
    spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    for e in spans:
        for key in ("name", "cat", "ts", "dur", "pid", "tid"):
            if key not in e:
                raise ValueError(f"trace event without {key}: {e}")
    children = {}
    for e in spans:
        parent = e["args"]["parent"]
        if parent:
            children[parent] = children.get(parent, 0.0) + e["dur"]
    per_layer = {}
    for e in spans:
        own = e["dur"] - children.get(e["args"]["id"], 0.0)
        per_layer[e["cat"]] = per_layer.get(e["cat"], 0.0) + own
    total = sum(per_layer.values())
    shares = {layer: (per_layer.get(layer, 0.0) / total if total else 0.0)
              for layer in SELF_TIME_LAYERS}
    return shares, len(spans)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("perfbench: unknown workload", args.workload)
        return 2
    if not build():
        return 2

    cmd = [str(BINARY), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    trace_path = None
    if args.trace:
        trace_path = BUILD_DIR / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace-out={trace_path}")
    try:
        code, stdout = run_child(cmd, stdout=subprocess.PIPE,
                                 timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s")
        return 2
    lines = stdout.strip().splitlines()
    if code not in (0, 1) or not lines:
        log(f"perfbench: binary exited with {code}")
        return 2
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if trace_path is not None:
        shares, spans = self_times(trace_path)
        for layer, share in shares.items():
            metrics[f"{layer}.self_frac"] = {"value": share, "unit": "frac"}
        log(f"trace: {spans} spans in {trace_path}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    selected = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"perfbench: metric {m['name']} missing or not in {m['unit']}")
            return 2
        selected[m["name"]] = got

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations, {failed} failed "
          f"(failed_frac {failed / attempted:.6f}), samples "
          f"{json.dumps(result['samples'])}")
    for name, m in selected.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": attempted,
                      "failed": failed, "metrics": selected}))
    return 0 if result["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
