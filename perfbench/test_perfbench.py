#!/usr/bin/env python3
"""Smoke test of the study benchmark.

    python3 perfbench/test_perfbench.py

Runs every workload at its smoke size, untraced and traced, through
BENCHMARK.json's command. Checks that each run passes every correctness check
and prints exactly the metric names and units BENCHMARK.json declares, and
that the benchmark refuses to run without the simulator sources. Run from the
repository root; the first run builds the benchmark.
"""
import json
import shutil
import subprocess
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# The metric names the benchmark is specified to print; BENCHMARK.json must
# declare all of them.
REQUIRED_END_TO_END = {"wall_s", "setup_s", "sim_rate", "peak_rss_mb",
                       "results_s", "output_mb"}
KINDS = ["new_block", "announcement", "get_block", "block_response",
         "transactions"]
REQUIRED_PER_LAYER = (
    {"core.run_s", "core.teardown_s", "sim.events", "sim.events_per_s",
     "sim.callback_s", "sim.engine_s", "sim.heap_high_water",
     "sim.slots_allocated", "net.dropped", "eth.tx.received",
     "eth.block.imported", "eth.peer_links", "eth.known_entries",
     "chain.blocks", "chain.orphans", "chain.txpool.size",
     "miner.blocks_found", "workload.submitted", "measure.block_arrivals",
     "measure.tx_arrivals", "measure.dataset_write_s",
     "measure.dataset_read_s", "analysis.dissemination.hops_s",
     "analysis.dissemination.first_delivery_s",
     "analysis.dissemination.waste_s", "analysis.dissemination.redundancy_s",
     "analysis.latency_stages_s", "obs.recorder_s", "obs.write_s",
     "obs.read_s", "obs.edges", "obs.tx_stages", "obs.violations",
     "trace.overhead"}
    | {f"net.msgs.{k}" for k in KINDS} | {f"net.bytes.{k}" for k in KINDS})


def run_benchmark(workload, trace, cwd=ROOT, smoke=True):
    command = BENCH["command"] + ["--workload", workload, "--seed", "1",
                                  "--seconds", "1", "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class BenchmarkSmokeTest(unittest.TestCase):
    def check_run(self, workload, trace, declared):
        done = run_benchmark(workload, trace)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertNotIn("CHECK FAILED", done.stdout)
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(units, {m["name"]: m["unit"] for m in declared})
        return result["metrics"]

    def test_declared_metrics_cover_the_specified_ones(self):
        self.assertLessEqual(REQUIRED_END_TO_END,
                             {m["name"] for m in BENCH["end_to_end"]})
        self.assertLessEqual(REQUIRED_PER_LAYER,
                             {m["name"] for m in BENCH["per_layer"]})

    def test_every_workload_untraced(self):
        for workload in (w["name"] for w in BENCH["workloads"]):
            with self.subTest(workload=workload):
                metrics = self.check_run(workload, 0, BENCH["end_to_end"])
                for name, metric in metrics.items():
                    self.assertGreater(metric["value"], 0, name)

    def test_every_workload_traced(self):
        for workload in (w["name"] for w in BENCH["workloads"]):
            with self.subTest(workload=workload):
                metrics = self.check_run(workload, 1, BENCH["per_layer"])
                self.assertGreater(metrics["sim.events"]["value"], 0)
                self.assertEqual(metrics["obs.violations"]["value"], 0)

    def test_refuses_to_run_without_sources(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(ROOT / path, bare / path)
        done = run_benchmark(BENCH["workloads"][0]["name"], 0, cwd=bare,
                             smoke=False)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
