#!/usr/bin/env python3
"""The verdict-path benchmark's own tests.

Run from the root of a checkout:

    python3 verdictbench/test_bench.py

They build the benchmark like run.py does, then check that a minimal-size
run of every workload prints every metric of BENCHMARK.json with its unit,
that a seed always yields the same job stream, that a wrong known answer
is caught, and that the command fails cleanly without the product sources.
Scratch files go under the build directory.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # keep the benchmark directory free of caches
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own entry point)

ROOT = run.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)
BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build(run.build_dir())


def scratch(name):
    path = os.path.join(os.path.dirname(run.build_dir()), "tests", name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def bench(workload, trace, *extra, seed=1):
    """Runs a one-second smoke run; returns (exit code, stdout lines)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def stream(workload, seed):
    return subprocess.run([BINARY, "stream", "--workload", workload, "--seed",
                           str(seed), "--root", ROOT, "--smoke"],
                          check=True, capture_output=True, text=True).stdout


class SmokeRuns(unittest.TestCase):
    def check_metrics(self, trace, expected):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            with self.subTest(workload=workload, trace=trace):
                code, lines = bench(workload, trace)
                self.assertEqual(code, 0, "\n".join(lines))
                result = json.loads(lines[-1])
                self.assertEqual(sorted(result),
                                 ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                printed = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                self.assertEqual(printed, {m["name"]: m["unit"]
                                           for m in expected})
                for name in printed:
                    self.assertIsInstance(result["metrics"][name]["value"],
                                          (int, float))
                    # The human-readable report names each metric too.
                    self.assertTrue(any(l.startswith("# %s = " % name)
                                        for l in lines), name)
                self.assertTrue(any(l.startswith("# provenance: git_sha=")
                                    for l in lines))
                if workload == "serve-edits":
                    # The measured cache outcome of every request kind.
                    for kind in ("base", "comment", "weight", "peel",
                                 "resubmit"):
                        self.assertTrue(any(l.startswith("# edit %s: " % kind)
                                            for l in lines), kind)

    def test_end_to_end_metrics_printed(self):
        self.check_metrics(0, SPEC["end_to_end"])

    def test_per_layer_metrics_printed(self):
        self.check_metrics(1, SPEC["per_layer"])


class Streams(unittest.TestCase):
    def test_same_seed_same_stream(self):
        for workload in ("paxos-deep", "corpus-mix", "serve-edits"):
            with self.subTest(workload=workload):
                first = stream(workload, 7)
                self.assertTrue(first)
                self.assertEqual(first, stream(workload, 7))
                self.assertNotEqual(first, stream(workload, 8))


class KnownAnswers(unittest.TestCase):
    def test_wrong_known_answer_is_detected(self):
        with open(os.path.join(HERE, "known_answers.txt")) as f:
            pinned = f.read()
        key = "chang_roberts n=3 sketch | "
        self.assertIn(key, pinned)
        # Corrupt one pinned count of a job the corpus-mix smoke run uses.
        wrong = re.sub(r"(%s.*configs=)(\d+)" % re.escape(key),
                       lambda m: m.group(1) + str(int(m.group(2)) + 1),
                       pinned)
        path = os.path.join(scratch("answers"), "known_answers.txt")
        with open(path, "w") as f:
            f.write(wrong)
        code, lines = bench("corpus-mix", 0, "--answers", path)
        self.assertNotEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertTrue(any("MISMATCH chang_roberts n=3 sketch" in l
                            for l in lines))
        self.assertTrue(any(re.search(r"wrong_verdicts=[1-9]", l)
                            for l in lines))


class Standalone(unittest.TestCase):
    def test_fails_without_product_sources(self):
        bare = scratch("bare")
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(bare, path))
        proc = subprocess.run(SPEC["command"] + [
            "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
            "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
            text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
