"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload rcz-sharded-flat-1nn --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  A workload's last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report with the environment
fingerprint.  Without ``--workload`` every workload runs in turn.  The exit
code is 0 only when every answer and every acked row checked out.
"""

from __future__ import annotations

import os

# One BLAS thread, set before NumPy loads: the only parallelism measured is
# the program's own shard workers.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The library reads these at run time; the workloads set what they need.
for _var in ("REPRO_FAULT_PLAN", "REPRO_EXECUTOR", "REPRO_WORKERS"):
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str] | None = None) -> int:
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    records = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", default="all", choices=["all", *sorted(WORKLOADS)],
        help="one workload, or all of them in turn (the default)",
    )
    parser.add_argument("--seed", type=int, default=records["default_seed"])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # Temporary files stay inside the checkout.
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    tempfile.tempdir = str(scratch)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        result = harness.run(name, args.seed, args.seconds, bool(args.trace), ROOT)
        print(f"workload {name} seed {args.seed}")
        for line in harness.render(result):
            print(line)
        result.pop("report")
        print(json.dumps(result), flush=True)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
