"""Benchmark of the reidemeister pipeline: a workload, repeated for a set time.

Run from the root of a checkout:
    python3 perfbench/run.py --workload sp2-sign-flip --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Each repetition runs the workload's whole job list in a fresh process
(perfbench/worker.py) against the package in ./src, checking every result
against perfbench/expected.json.  Repetitions start until --seconds have
passed.  With --trace 0 the last line reports the end-to-end metrics as
medians over the repetitions; with --trace 1 untraced and traced
repetitions alternate and the last line reports the per-layer metrics of
the traced ones, plus the tracing overhead.  Metric names and units are
listed in BENCHMARK.json.  Lines before the last one are for people: the
environment, every metric and the slowest layers.  A run record, and with
tracing the spans, go to .bench_out/.  "--workload all" runs each workload
in turn; its last line prefixes each metric with the workload name.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

TIME_LIMIT_S = 170  # no repetition may start that would end past this
END_TO_END = {"wall_s": "s", "setup_s": "s", "query_s": "s", "peak_rss_mb": "MB"}
# Modules of src/reidemeister with a line count of their own; any other
# module still counts in src.lines_total.
MODULES = ("__init__", "automorphisms", "certify", "cli", "errors", "generators", "group",
           "kernels", "kernels.py_fallback", "modring")


def _non_blank(path: Path) -> int:
    return sum(1 for line in path.read_text().splitlines() if line.strip())


def source_metrics(src: Path) -> dict:
    """Non-blank lines per module of src/reidemeister, and generated C lines."""
    pkg = src / "reidemeister"
    lines = {}
    for path in pkg.rglob("*.py"):
        parts = path.relative_to(pkg).with_suffix("").parts
        lines[".".join(p for p in parts if p != "__init__") or "__init__"] = _non_blank(path)
    m = {f"src.lines_{module}": lines.get(module, 0) for module in MODULES}
    m["src.lines_total"] = sum(lines.values())
    m["src.cython_lines"] = sum(_non_blank(path) for path in pkg.rglob("*.pyx"))
    m["src.generated_c_lines"] = sum(len(path.read_text().splitlines())
                                     for path in pkg.rglob("*.c"))
    return m


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str:
    # The ceiling keeps git from taking the commit of a repository above root.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not available)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def run_worker(args, workload, traced, rep, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--size", args.size, "--out-dir", str(args.out_dir)]
    if traced:
        cmd.append("--trace")
    # str/bytes hashing, and so dict probe lengths, depend on the hash seed;
    # the n-th repetition of every run uses the same one.
    env = dict(os.environ, PYTHONHASHSEED=str(rep + 1))
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit status {proc.returncode}")
    return json.loads(lines[-1])


def repeat(args, workload, budget_s):
    """Untraced (and with --trace 1, alternating traced) repetitions."""
    started = time.perf_counter()
    plain, traced, durations = [], [], []
    while True:
        elapsed = time.perf_counter() - started
        need_traced = bool(args.trace) and len(traced) < len(plain)
        if elapsed >= args.seconds and plain and not need_traced:
            break
        if durations and elapsed + 1.5 * max(durations) > budget_s:
            break
        t0 = time.perf_counter()
        done = traced if need_traced else plain
        done.append(run_worker(args, workload, need_traced, len(done),
                               timeout=budget_s - elapsed))
        durations.append(time.perf_counter() - t0)
    return plain, traced


def median(reps, key):
    return statistics.median(r[key] for r in reps)


def unit_of(name):
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def ranking(traced, key):
    """Layer names by median seconds, largest first (job and stage regions left out)."""
    names = {n for r in traced for n in r[key]}
    ranked = [(n, statistics.median(r[key].get(n, 0.0) for r in traced))
              for n in names if n != "job" and not n.startswith("stage:")]
    return sorted(ranked, key=lambda t: -t[1])


def run_workload(args, workload, budget_s):
    """Runs one workload and prints its report lines.

    Returns (correct, attempted, failed, metrics) with metrics mapping
    name -> (value, unit).
    """
    root = Path.cwd()
    src = root / "src"
    jobs = workloads.build(workload, args.seed, args.size)
    plain, traced = repeat(args, workload, budget_s)

    reps = plain + traced
    outcomes = [o for r in reps for o in r["jobs"]]
    failed = sum(not o["ok"] for o in outcomes)
    same_jobs = all([o["key"] for o in r["jobs"]] == [j.key for j in jobs] for r in reps)
    correct = failed == 0 and same_jobs

    env = dict(plain[0]["env"], nproc=os.cpu_count(), commit=git_commit(root),
               source_sha256=source_digest(src), seed=args.seed, workload=workload,
               size=args.size)
    e2e = {name: median(plain, name) for name in END_TO_END}
    if args.trace:
        metrics = {n: (statistics.median(r["layers"][n] for r in traced), unit_of(n))
                   for n in traced[0]["layers"]}
        metrics.update((n, (v, "lines")) for n, v in source_metrics(src).items())
        metrics["trace.overhead_s"] = (median(traced, "wall_s") - e2e["wall_s"], "s")
    else:
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END.items()}

    print(f"# workload {workload} seed {args.seed} size {args.size}: "
          f"{len(plain)} untraced and {len(traced)} traced repetitions")
    print("# env " + json.dumps(env))
    print(f"# job list ({len(jobs)} jobs): "
          + json.dumps([[j.key, j.inputs] for j in jobs]))
    for name, unit in END_TO_END.items():
        values = [r[name] for r in plain]
        print(f"{name} {e2e[name]:.6g} {unit} (median of {len(values)}, "
              f"min {min(values):.6g}, max {max(values):.6g})")
    print(f"jobs_failed {failed / len(outcomes):.6g} share ({failed} of {len(outcomes)} jobs)")
    for o in outcomes:
        if not o["ok"]:
            print(f"# FAILED {o['key']}: " + json.dumps(
                {k: o.get(k) for k in ("observed", "expected", "error")}))
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.10g} {unit}")
        entry = ranking(traced, "entry_s")
        print("# time in entry points called by the jobs: "
              + ", ".join(f"{n} {s:.3f} s" for n, s in entry[:6]))
        by_self = ranking(traced, "self_s")
        print("# self time by layer: " + ", ".join(f"{n} {s:.3f} s" for n, s in by_self[:8]))
        print(f"# dominant layer: {by_self[0][0]} by self time, "
              f"{entry[0][0]} by time in an entry point")
        absent = traced[0]["absent"]
        if absent:
            print("# absent from the package (reported as 0): " + ", ".join(absent))

    record = {"env": env, "correct": correct, "attempted": len(outcomes), "failed": failed,
              "end_to_end": e2e, "metrics": {n: v for n, (v, _) in metrics.items()},
              "repetitions": [{k: v for k, v in r.items() if k != "jobs"} for r in reps],
              "failures": [o for o in outcomes if not o["ok"]]}
    name = f"run-{workload}-seed{args.seed}-trace{args.trace}.json"
    (args.out_dir / name).write_text(json.dumps(record, indent=1))
    return correct, len(outcomes), failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full", choices=workloads.SIZES,
                    help="tiny runs every job on small groups, for the self-test")
    args = ap.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "reidemeister" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {src / 'reidemeister'}; "
                         "run from the root of a reidemeister checkout")
    args.out_dir = Path.cwd() / ".bench_out"
    args.out_dir.mkdir(exist_ok=True)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in names:
        ok, n, bad, m = run_workload(args, workload, TIME_LIMIT_S)
        correct, attempted, failed = correct and ok, attempted + n, failed + bad
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update((prefix + k, v) for k, v in m.items())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": u}
                                  for n, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()
