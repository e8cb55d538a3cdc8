"""Self-test of the benchmark: every workload at its tiny size.

Run from the root of a checkout:  python3 perfbench/selftest.py
(or  python3 -m pytest perfbench/selftest.py).  It checks the output
schema against BENCHMARK.json, that a corrupted frozen value and a CLI flag
the package rejects are each counted as a failed job instead of crashing the
run, that a seed reproduces its job list, and that the benchmark refuses to
run without the package source.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class OutputSchema(unittest.TestCase):
    def check(self, trace, section):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench(workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                out = last_json(proc)
                self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                self.assertIs(out["correct"], True)
                self.assertGreaterEqual(out["attempted"], 1)
                self.assertEqual(out["failed"], 0)
                want = {m["name"]: m["unit"] for m in SPEC[section]}
                got = {name: m["unit"] for name, m in out["metrics"].items()}
                self.assertEqual(got, want)
                for m in out["metrics"].values():
                    self.assertIsInstance(m["value"], (int, float))
                self.assertIn("jobs_failed 0 share", proc.stdout)

    def test_end_to_end(self):
        self.check(0, "end_to_end")

    def test_per_layer(self):
        self.check(1, "per_layer")

    def test_workload_names_match(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))


def copy_bench(tmp, with_source=True):
    """Copies BENCHMARK.json and perfbench/ into tmp, and links src/ unless told not to."""
    tmp = Path(tmp)
    shutil.copy(ROOT / "BENCHMARK.json", tmp)
    shutil.copytree(HERE, tmp / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_source:
        (tmp / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return tmp / "perfbench"


class FailedJobs(unittest.TestCase):
    """A job that fails is counted, and the run still reports its timings."""

    def check_failed(self, proc, keys):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        out = last_json(proc)
        self.assertIs(out["correct"], False)
        self.assertEqual(out["failed"], len(keys))
        self.assertEqual({m["name"] for m in SPEC["end_to_end"]}, set(out["metrics"]))
        for m in out["metrics"].values():
            self.assertGreater(m["value"], 0)
        for key in keys:
            self.assertIn(f"# FAILED {key}", proc.stdout)

    def test_corrupted_expectation(self):
        key = "sp2-sign-flip/p13"
        with tempfile.TemporaryDirectory() as tmp:
            bench = copy_bench(tmp)
            frozen = json.loads((bench / "expected.json").read_text())
            frozen["jobs"][key]["partition"] = "0" * 64
            (bench / "expected.json").write_text(json.dumps(frozen))
            proc = run_bench("sp2-sign-flip", 0, cwd=tmp)
        self.check_failed(proc, [key])

    def test_cli_flag_rejected(self):
        # argparse raises SystemExit on an unknown flag; that must fail the job only.
        with tempfile.TemporaryDirectory() as tmp:
            bench = copy_bench(tmp)
            source = (bench / "workloads.py").read_text()
            argv = '["--no-header", "--out", str(out)]'
            self.assertIn(argv, source)
            (bench / "workloads.py").write_text(
                source.replace(argv, '["--no-such-flag", "--no-header", "--out", str(out)]'))
            proc = run_bench("small-many", 0, cwd=tmp)
        cli = [j.key for j in workloads.build("small-many", 7, "tiny") if "/cli-" in j.key]
        self.assertTrue(cli)
        self.check_failed(proc, cli)


class Seeds(unittest.TestCase):
    def test_same_seed_same_jobs(self):
        for workload in workloads.WORKLOADS:
            a = [(j.key, j.inputs) for j in workloads.build(workload, 5)]
            b = [(j.key, j.inputs) for j in workloads.build(workload, 5)]
            self.assertEqual(a, b)

    def test_seed_changes_inputs(self):
        self.assertNotEqual([j.inputs for j in workloads.build("sp4-oracles", 1)],
                            [j.inputs for j in workloads.build("sp4-oracles", 2)])
        self.assertNotEqual([j.key for j in workloads.build("small-many", 1)],
                            [j.key for j in workloads.build("small-many", 2)])


class WithoutSource(unittest.TestCase):
    def test_refuses_to_run(self):
        with tempfile.TemporaryDirectory() as tmp:
            copy_bench(tmp, with_source=False)
            proc = run_bench("small-many", 0, cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
