"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload traces --seeds 1-10

For every end-to-end metric it prints the median of the runs and the
distance between their first and third quartiles (statistics.quantiles with
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json.  The runs go one after another, and the raw results are
written to perfbench/out/spread-<workload>-<seeds>.json.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="an inclusive range such as 1-10")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    for seed in seed_list(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {values}", flush=True)

    out = HERE / "out" / f"spread-{args.workload}-{args.seeds}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: all correct={all(r['correct'] for r in results)}, "
          f"failed shares {sorted(shares)}")
    print(f"{'metric':14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = quantiles(values, n=4)
        print(f"{name:14} {median(values):12.6g} {q1:12.6g} {q3:12.6g} "
              f"{(q3 - q1) / med:8.2%} {bound:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
