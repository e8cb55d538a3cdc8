"""Writes perfbench/expected.json: the frozen outputs every benchmark job is checked against.

Run from the root of a checkout:  python3 perfbench/freeze.py
It runs every job of every workload at both sizes, for a few seeds, and
refuses to write if a job disagrees with its closed form (|G| = sp_order,
R(sign flip) = p or p + 4) or gives different outputs for different seeds.
Re-freezing changes what the benchmark calls correct; do it only when a
deliberate change of outputs has been reviewed.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402
from worker import Context  # noqa: E402

SEEDS = (0, 1, 2)


def main():
    import reidemeister as rd
    import reidemeister.cli  # noqa: F401

    scratch = Path.cwd() / ".bench_out" / "freeze"
    scratch.mkdir(parents=True, exist_ok=True)
    frozen = {}
    for workload in workloads.WORKLOADS:
        for size in workloads.SIZES:
            for seed in SEEDS:
                ctx = Context(None, scratch)
                for job in workloads.build(workload, seed, size):
                    observed, closed_form = job.run(rd, ctx)
                    for name, value in closed_form.items():
                        if observed.get(name) != value:
                            sys.exit(f"{job.key}: {name} = {observed.get(name)!r}, "
                                     f"closed form gives {value!r}")
                    rest = {k: v for k, v in observed.items() if k not in closed_form}
                    if frozen.setdefault(job.key, rest) != rest:
                        sys.exit(f"{job.key}: outputs differ between runs")
                print(f"{workload} {size} seed {seed}: ok", file=sys.stderr)
    scratch.rmdir()
    out = {"frozen_with": {"version": rd.__version__, "kernel_backend": rd.KERNEL_BACKEND},
           "jobs": dict(sorted(frozen.items()))}
    (HERE / "expected.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
