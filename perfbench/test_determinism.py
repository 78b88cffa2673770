#!/usr/bin/env python3
"""Simulated-clock determinism test of the benchmark.

The simulated clock is the reproduction's output, so a diff in it is exact,
never noise. For each workload this runs the perfbench binary twice with one seed,
once untraced and once traced, and requires bit-identical simulated values:
sim_gteps_hmean, the per-level queue-gen, expand and comm ms, the gpusim
transaction counts, the superstep (level) counts and the edge counts. The
traced run must also write a trace file that loads as Chrome trace-event
JSON.

paper-bfs and programs run their first pass only; serve-live runs until the
requests sent before its first update batch, which all run on snapshot
generation 0, have completed.

Usage: python3 perfbench/test_determinism.py [--seed N]
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark entry point, for build() and paths)

SEED = 7


def drive(workload, trace):
    cmd = [str(run.BINARY), f"--workload={workload}", f"--seed={SEED}",
           "--seconds=0", f"--trace={trace}"]
    trace_path = run.BUILD_DIR / "traces" / f"determinism-{workload}.json"
    if trace:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace-out={trace_path}")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise AssertionError(f"{workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1]), trace_path


class SimulatedClockIsDeterministic(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench binary did not build")

    def check(self, workload):
        first, _ = drive(workload, trace=0)
        second, trace_path = drive(workload, trace=1)
        self.assertTrue(first["correct"] and second["correct"])
        self.assertEqual(first["failed"], 0)
        self.assertGreater(len(first["sim"]), 1)
        self.assertGreater(first["sim"]["sim_gteps_hmean"], 0)
        # Parsed from %.17g text, so equality here is bit equality.
        self.assertEqual(first["sim"], second["sim"])
        shares, spans = run.self_times(trace_path)
        self.assertGreater(spans, 0)
        self.assertLessEqual(sum(shares.values()), 1.0 + 1e-9)

    def test_paper_bfs(self):
        self.check("paper-bfs")

    def test_programs(self):
        self.check("programs")

    def test_serve_live(self):
        self.check("serve-live")


if __name__ == "__main__":
    if "--seed" in sys.argv:
        i = sys.argv.index("--seed")
        SEED = int(sys.argv[i + 1])
        del sys.argv[i:i + 2]
    unittest.main()
