"""Run the benchmark workloads over several seeds and record their medians.

    python3 scripts/bench.py --label change --out BENCH_10.json --seeds 1,2,3 --seconds 20

For every workload named in BENCHMARK.json and every seed, this runs
``perfbench/run.py --trace 0`` of the checkout given by ``--repo`` (default:
the checkout holding this script), one run at a time.  It then stores under
the ``--label`` key of the ``--out`` JSON file (other keys are kept):

    {"revision": "<git describe --always --dirty of that checkout>",
     "seeds": [1, 2, 3], "seconds": 20.0,
     "workloads": {"<workload>": {"attempted": <sum over seeds>,
                                  "failed": <sum over seeds>,
                                  "metrics": {"<end-to-end metric>": <median>}}}}

Metric names and units are those of BENCHMARK.json's ``end_to_end`` list.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE_REPO = Path(__file__).resolve().parent.parent


def run_workload(repo: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one ``perfbench/run.py`` run, parsed."""
    proc = subprocess.run(
        [sys.executable, str(repo / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=repo, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def revision(repo: Path) -> str:
    proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                          cwd=repo, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key in the --out file")
    parser.add_argument("--out", required=True, help="JSON file to update")
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--repo", type=Path, default=HERE_REPO,
                        help="checkout whose perfbench/run.py is run")
    args = parser.parse_args(argv)
    repo = args.repo.resolve()
    seeds = [int(s) for s in args.seeds.split(",")]
    spec = json.loads((repo / "BENCHMARK.json").read_text())

    workloads = {}
    for w in spec["workloads"]:
        runs = [run_workload(repo, w["name"], s, args.seconds) for s in seeds]
        workloads[w["name"]] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {
                m["name"]: statistics.median(
                    r["metrics"][m["name"]]["value"] for r in runs)
                for m in spec["end_to_end"]
                if all(m["name"] in r["metrics"] for r in runs)
            },
        }

    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {}
    record[args.label] = {"revision": revision(repo), "seeds": seeds,
                          "seconds": args.seconds, "workloads": workloads}
    out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
