"""One repetition of a benchmark workload, in a fresh process.

Run by run.py as
    python3 perfbench/worker.py --workload W --seed N [--trace] [--size S] --out-dir DIR
from the root of a checkout; imports ``reidemeister`` from ./src, runs the
workload's jobs, checks each against the values frozen in expected.json and
prints one JSON object with timings, RSS and job outcomes as its last line.  With
--trace it also wraps the package's functions (see tracer.py), writes the
spans to DIR and reports per-layer figures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Context:
    """What a job sees: stage markers, shared state and a scratch directory."""

    def __init__(self, tracer, scratch):
        self.tracer = tracer
        self.scratch = scratch
        self.shared = {}
        self.rss_after = {}  # stage -> ru_maxrss (MB) when it first completed

    @contextlib.contextmanager
    def stage(self, name):
        with self.tracer.region("stage:" + name) if self.tracer else contextlib.nullcontext():
            yield
        self.rss_after.setdefault(name, max_rss_mb())


def run_jobs(rd, jobs, expected, ctx):
    """Runs jobs in order; returns one outcome dict per job."""
    outcomes = []
    for job in jobs:
        if ctx.tracer:
            ctx.tracer.job = job.key
        outcome = {"key": job.key, "inputs": job.inputs}
        try:
            with ctx.tracer.region("job") if ctx.tracer else contextlib.nullcontext():
                observed, closed_form = job.run(rd, ctx)
        except (Exception, SystemExit):  # argparse in cli.main exits on a bad flag
            outcome.update(ok=False, error=traceback.format_exc(limit=3))
        else:
            want = {**expected.get(job.key, {}), **closed_form}
            outcome.update(ok=observed == want, observed=observed)
            if observed != want:
                outcome["expected"] = want
        outcomes.append(outcome)
    if ctx.tracer:
        ctx.tracer.job = None
    return outcomes


def entry_point_times(spans):
    """Inclusive seconds per package function called directly by a job stage."""
    out = {}
    for name, start, end, parent, _ in spans:
        if parent is not None and spans[parent][0].startswith("stage:") \
                and not name.startswith("stage:"):
            out[name] = out.get(name, 0.0) + end - start
    return out


def layer_metrics(tr, rss_after):
    """Per-layer figures of a traced repetition, named as in BENCHMARK.json."""
    def stat(name, i):
        return tr.stats.get(name, [0, 0.0, 0.0])[i]

    calls = lambda name: stat(name, 0)  # noqa: E731
    total = lambda name: stat(name, 1)  # noqa: E731
    self_s = lambda name: stat(name, 2)  # noqa: E731
    c = tr.counters
    lookups = calls("group.action_table")
    hits = lookups - calls("kernels.action_table")
    m = {
        "kernels.closure_s": total("kernels.closure"),
        "kernels.closure_calls": calls("kernels.closure"),
        "kernels.closure_elements": c["kernels.closure_elements"],
        "group.generate_group_self_s": self_s("group.generate_group"),
        "modring.canonical_key_calls": calls("modring.canonical_key"),
        "modring.canonical_key_s": total("modring.canonical_key"),
        "kernels.action_table_calls": calls("kernels.action_table"),
        "kernels.action_table_rows": c["kernels.action_table_rows"],
        "kernels.action_table_s": total("kernels.action_table"),
        "group.action_table_calls": lookups,
        "group.action_table_hit_ratio": hits / lookups if lookups else 0.0,
        "group.twisted_classes_calls": calls("group.twisted_classes"),
        "group.twisted_classes_elements": c["group.twisted_classes_elements"],
        "group.twisted_classes_self_s": self_s("group.twisted_classes"),
        "group.lex_order_s": total("group.lex_order"),
        "automorphisms.sign_flip_self_s": self_s("automorphisms.sign_flip"),
        "automorphisms.validate_calls": calls("automorphisms.validate"),
        "automorphisms.validate_pairs": c["automorphisms.validate_pairs"],
        "automorphisms.validate_s": total("automorphisms.validate"),
        "automorphisms.inner_s": total("automorphisms.inner"),
        "automorphisms.character_twist_s": total("automorphisms.character_twist"),
        "group.mul_ids_calls": calls("group.mul_ids"),
        "group.mul_ids_s": total("group.mul_ids"),
        "group.inverse_id_calls": calls("group.inverse_id"),
        "group.inverse_id_s": total("group.inverse_id"),
        "modring.mat_inverse_calls": calls("modring.mat_inverse"),
        "modring.mat_inverse_s": total("modring.mat_inverse"),
        "generators.standard_generators_s": total("generators.standard_generators"),
        "cli.main_calls": calls("cli.main"),
        "cli.main_self_s": self_s("cli.main"),
    }
    for name, *_ in tracing.TARGETS:
        if name.startswith("certify."):
            m[name + "_self_s"] = self_s(name)
    for stage in workloads.STAGES:
        m[f"rss.after_{stage}_mb"] = rss_after.get(stage, 0.0)
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=workloads.SIZES)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out-dir", type=Path, required=True)
    args = ap.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import reidemeister as rd
    import reidemeister.cli  # noqa: F401  (the CLI jobs call rd.cli.main)
    import_s = time.perf_counter() - t0
    if not Path(rd.__file__).resolve().is_relative_to(src):
        sys.exit(f"reidemeister imported from {rd.__file__}, not from {src}")

    # Always on: one timer around generate_group, wherever it is bound.
    setup = tracing.Tracer()
    setup.install([("generate_group", "reidemeister.group", "generate_group", True, None)])
    tr = tracing.Tracer() if args.trace else None
    absent = tr.install() if tr else []

    expected = json.loads(EXPECTED.read_text())["jobs"]
    jobs = workloads.build(args.workload, args.seed, args.size)
    scratch = args.out_dir / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    ctx = Context(tr, scratch)

    start = time.perf_counter()
    outcomes = run_jobs(rd, jobs, expected, ctx)
    wall_s = time.perf_counter() - start
    peak_rss_mb = max_rss_mb()
    shutil.rmtree(scratch)

    generate_s = setup.stats.get("generate_group", [0, 0.0, 0.0])[1]
    result = {
        "env": {"version": getattr(rd, "__version__", "unknown"),
                "kernel_backend": getattr(rd, "KERNEL_BACKEND", "none"),
                "numpy": sys.modules["numpy"].__version__,
                "python": platform.python_version()},
        "jobs": outcomes,
        "import_s": import_s,
        "wall_s": wall_s,
        "setup_s": import_s + generate_s,
        "query_s": wall_s - generate_s,
        "peak_rss_mb": peak_rss_mb,
        "rss_after_mb": ctx.rss_after,
    }
    if tr:
        result["layers"] = layer_metrics(tr, ctx.rss_after)
        result["absent"] = absent
        result["self_s"] = {name: rec[2] for name, rec in tr.stats.items()}
        result["entry_s"] = entry_point_times(tr.spans)
        trace_file = args.out_dir / f"trace-{args.workload}-seed{args.seed}-{os.getpid()}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "span_fields": ["name", "start_s", "end_s", "parent", "job"],
            "spans": tr.spans, "stats": tr.stats, "counters": tr.counters,
            "absent": absent}))
        result["trace_file"] = str(trace_file)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
