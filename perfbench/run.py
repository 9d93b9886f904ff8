"""dworklab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload traces --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ./src.  The run
repeats whole rounds of the workload's operations for about `--seconds`
(it starts no round that would end later, but runs at least one), checks every output (the first round against references made apart
from the library, every later round against the first), and prints as its
last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (setup_s, wall_s,
op_p50_s, peak_rss_mib).  With `--trace 1` untraced and traced rounds
alternate, the spans of the traced rounds are written to
perfbench/out/trace-<workload>-<seed>.jsonl, and the metrics are the
per-layer ones derived from those spans.  `--smoke` runs every workload at
a tiny size with all its checks.  See README.md.
"""

import argparse
import json
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from spans import Recorder

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("traces", "towers", "witnesses")

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mib": "MiB"}

PER_LAYER = {
    "counting.count_projective_fast.s": "s",
    "counting.count_projective_fast.calls": "count",
    "counting.count_projective_fast.sys_s": "s",
    "counting.count_projective_fast.page_faults": "count",
    "counting.torus_tuples_per_s": "1/s",
    "counting.weil_bound_ok.s": "s",
    "counting.field_make.s": "s",
    "counting.tower_counts.s": "s",
    "counting.tower_counts.calls": "count",
    "counting.tower_counts.sys_s": "s",
    "counting.tower_counts.maxrss_mib": "MiB",
    "counting.naive_candidates_per_s": "1/s",
    "hodge.construct_repeat_witness.s": "s",
    "hodge.construct_repeat_witness.calls": "count",
    "hodge.scan_contains.s": "s",
    "hodge.scan_contains.calls": "count",
    "hodge.repeated_class_representatives.s": "s",
    "hodge.repeated_class_representatives.calls": "count",
    "hodge.classes_scanned_per_s": "1/s",
    "hodge.repeated_ht_scan.s": "s",
    "hodge.repeated_ht_scan.calls": "count",
    "hodge.reports": "count",
    "hodge.reports_per_s": "1/s",
    "bench.check.s": "s",
    "bench.trace_overhead_s": "s",
    "bench.spans": "count",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one round per kind")
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up (import, inputs), print 'ready' and exit; used to time set-up")
    return ap.parse_args(argv)


def import_library():
    if not (SRC / "dworklab" / "__init__.py").is_file():
        raise SystemExit(f"error: no library source at {SRC / 'dworklab'}; "
                         "run from a checkout that holds src/dworklab")
    sys.path.insert(0, str(SRC))
    import dworklab
    if Path(dworklab.__file__).resolve().parent != SRC / "dworklab":
        raise SystemExit(f"error: imported dworklab from {dworklab.__file__}, not from {SRC}")
    import workloads
    return workloads


def time_setup(args, probes: int) -> float:
    """Median time from starting a fresh interpreter to its first timed operation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(probes):
        started = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - started)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up probe failed ({proc.returncode}): {line!r}")
    return median(samples)


@dataclass
class Round:
    wall: float
    op_times: list[float]  # of the operations that did not fail
    outputs: list  # None for a failed operation
    errors: list[str]


def run_round(workloads, ops, rec) -> Round:
    """One pass over every operation, each from cleared library caches."""
    rnd = Round(0.0, [], [], [])
    with rec.span("bench.round"):
        started = time.perf_counter()
        for op in ops:
            workloads.clear_caches()
            op_started = time.perf_counter()
            try:
                with rec.span("bench.op"):
                    out = op.run(rec, *op.args)
            except Exception as exc:  # a failed operation is counted, not fatal
                rnd.outputs.append(None)
                where = f"{op.run.__name__}{op.args}"[:160]
                rnd.errors.append(f"{where}: {type(exc).__name__}: {exc}")
                continue
            rnd.op_times.append(time.perf_counter() - op_started)
            rnd.outputs.append(out)
        rnd.wall = time.perf_counter() - started
    return rnd


def layer_metrics(spans_by_round, overhead, check_spans):
    """Per-layer metrics from the spans of each traced round (medians over rounds)."""
    def med(name, key):
        return median(sum(s.get(key, 0) for s in spans if s["name"] == name)
                      for spans in spans_by_round)

    def secs(name):
        return median(sum(s["end"] - s["start"] for s in spans if s["name"] == name)
                      for spans in spans_by_round)

    def calls(name):
        return sum(1 for s in spans_by_round[0] if s["name"] == name)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    fast, tower = "counting.count_projective_fast", "counting.tower_counts"
    scans = ("hodge.scan_contains", "hodge.repeated_class_representatives")
    scan_s = median(sum(s["end"] - s["start"] for s in spans if s["name"] in scans)
                    for spans in spans_by_round)
    tower_rss = [s["maxrss_mib"] for spans in spans_by_round for s in spans if s["name"] == tower]
    values = {
        f"{fast}.s": secs(fast),
        f"{fast}.calls": calls(fast),
        f"{fast}.sys_s": med(fast, "sys_s"),
        f"{fast}.page_faults": med(fast, "minflt"),
        "counting.torus_tuples_per_s": rate(med(fast, "torus_tuples"), secs(fast)),
        "counting.weil_bound_ok.s": secs("counting.weil_bound_ok"),
        "counting.field_make.s": secs("counting.field_make"),
        f"{tower}.s": secs(tower),
        f"{tower}.calls": calls(tower),
        f"{tower}.sys_s": med(tower, "sys_s"),
        f"{tower}.maxrss_mib": max(tower_rss, default=0.0),
        "counting.naive_candidates_per_s": rate(med(tower, "candidates"), secs(tower)),
        "hodge.classes_scanned_per_s": rate(sum(med(n, "classes") for n in scans), scan_s),
        "hodge.reports": med("hodge.repeated_ht_scan", "reports"),
        "hodge.reports_per_s": rate(med("hodge.repeated_ht_scan", "reports"),
                                    secs("hodge.repeated_ht_scan")),
        "bench.check.s": sum(s["end"] - s["start"] for s in check_spans),
        "bench.trace_overhead_s": overhead,
        "bench.spans": len(spans_by_round[0]),
    }
    for name in ("hodge.construct_repeat_witness", "hodge.repeated_ht_scan") + scans:
        values[f"{name}.s"] = secs(name)
        values[f"{name}.calls"] = calls(name)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_library()

    ops, size = workloads.make(args.workload, args.seed, args.smoke)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    setup_s = None if args.trace else time_setup(args, size["probes"])
    off, on = Recorder(False), Recorder(True)
    checker = on if args.trace else off
    runs = []  # (round, its spans, or None when untraced); traced runs alternate
    first = None  # outputs of the first round, which the references check
    failures = []
    started = time.perf_counter()
    while True:
        tracing = args.trace == 1 and len(runs) % 2 == 1
        first_span = len(on.spans)
        rnd = run_round(workloads, ops, on if tracing else off)
        runs.append((rnd, on.spans[first_span:] if tracing else None))
        if len(runs) == 1:
            # the peak of one batch in a fresh process; later rounds reuse a
            # heap whose high-water mark creeps up for a few rounds
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        with checker.span("bench.check"):
            digests = [None if out is None else workloads.digest(op, out)
                       for op, out in zip(ops, rnd.outputs)]
            if first is None:
                first, first_digests = rnd.outputs, digests
            elif digests != first_digests:
                failures.append("a later round's outputs differ from the first round's")
            rnd.outputs = None  # keep memory flat across rounds
        # stop when one more round (a pair, when tracing) would end past the time
        left = args.seconds - (time.perf_counter() - started)
        if len(runs) % (1 + args.trace) == 0 and (args.smoke or left < rnd.wall * (1 + args.trace)):
            break

    with checker.span("bench.check"):
        failures += workloads.check(args.workload, args.seed, ops, first, size)

    untraced = [r for r, spans in runs if spans is None]
    attempted = len(ops) * len(runs)
    failed = sum(len(r.errors) for r, _ in runs)
    for message in sorted(set(e for r, _ in runs for e in r.errors)):
        print(f"failed operation: {message}", file=sys.stderr)
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    print("round walls (s, * traced): " + " ".join(
        f"{r.wall:.3f}{'' if spans is None else '*'}" for r, spans in runs), file=sys.stderr)

    if args.trace:
        traced = [(r, spans) for r, spans in runs if spans is not None]
        overhead = median(r.wall for r, _ in traced) - median(r.wall for r in untraced)
        on.write(HERE / "out" / f"trace-{args.workload}-{args.seed}.jsonl")
        checks = [s for s in on.spans if s["name"] == "bench.check"]
        values = layer_metrics([spans for _, spans in traced], overhead, checks)
        units = PER_LAYER
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": median(r.wall for r in untraced),
            "op_p50_s": median(t for r in untraced for t in r.op_times),
            "peak_rss_mib": peak_rss_mib,
        }
        units = END_TO_END
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
