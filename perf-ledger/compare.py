#!/usr/bin/env python3
"""Collect and compare perf-ledger run sets (standard library only).

  compare.py collect OUT.jsonl [--runs N] [--first-seed S] [--trace 0|1]
      Runs every workload of BENCHMARK.json N times, each round with another
      seed and the workloads interleaved, through BENCHMARK.json's own
      command for its run_seconds, and appends one JSON line per run to
      OUT.jsonl.

  compare.py compare A.jsonl [B.jsonl]
      Per workload and metric: median, quartiles and spread of A, where the
      quartiles are statistics.quantiles(values, n=4) and the spread is
      (q3 - q1) / median -- the driver's definition. With B, also the shift
      of B's median against A's and a verdict per end-to-end metric:
        worse       B's median is worse than A's by more than the bound
        unresolved  either set spreads wider than the bound
        ok          neither
      Sets whose runs differ in length or in the benchmark's constants are
      refused: they do not measure the same thing.

Run it from anywhere; it works from the root of the checkout it lives in.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, trace):
    seconds = bench["run_seconds"]
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall_s = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "exit": proc.returncode, "wall_s": round(wall_s, 3),
        "provenance": None, "notes": [], "result": None,
    }
    for line in lines[:-1]:
        if line.startswith("provenance "):
            record["provenance"] = json.loads(line[len("provenance "):])
        elif line.startswith("# "):
            record["notes"].append(line[2:])
    if lines:
        try:
            record["result"] = json.loads(lines[-1])
        except json.JSONDecodeError:
            record["notes"].append("unparsed last line: " + lines[-1])
    return record


def collect(args):
    bench = benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    failures = 0
    with open(args.out, "a") as out:
        for i in range(args.runs):
            for workload in workloads:
                seed = args.first_seed + i
                rec = run_once(bench, workload, seed, args.trace)
                out.write(json.dumps(rec) + "\n")
                out.flush()
                ok = rec["exit"] == 0 and rec["result"] and rec["result"]["correct"]
                failures += 0 if ok else 1
                print(f"{workload} seed {seed}: exit {rec['exit']}, {rec['wall_s']} s",
                      file=sys.stderr)
    return 1 if failures else 0


def load(path, settings):
    """{workload: {metric: ([values], unit)}} over the runs that succeeded.

    Adds each run's length and constants to `settings`.
    """
    table = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            consts = (rec["provenance"] or {}).get("consts")
            settings.add((rec["seconds"], json.dumps(consts, sort_keys=True)))
            if rec["exit"] != 0 or not rec["result"] or not rec["result"]["correct"]:
                print(f"{path}: skipping failed run {rec['workload']} seed {rec['seed']}",
                      file=sys.stderr)
                continue
            metrics = table.setdefault(rec["workload"], {})
            for name, m in rec["result"]["metrics"].items():
                metrics.setdefault(name, ([], m["unit"]))[0].append(m["value"])
    return table


def summary(values):
    """(median, q1, q3, spread); spread is None when it cannot be formed."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, ((q3 - q1) / abs(med) if med else None)


def fmt(x):
    return "-" if x is None else f"{x:.4g}"


def compare(args):
    bench = benchmark()
    gated = {m["name"]: m for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    settings = set()
    a = load(args.a, settings)
    b = load(args.b, settings) if args.b else None
    if len(settings) > 1:
        sys.exit("refusing to compare: the runs differ in seconds or constants:\n  "
                 + "\n  ".join(f"{sec} s, {consts}" for sec, consts in sorted(settings)))
    worse = unresolved = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in a:
            continue
        print(f"\n== {workload} ({len(next(iter(a[workload].values()))[0])} runs in A"
              + (f", {len(next(iter(b[workload].values()))[0])} in B" if b and workload in b else "")
              + ")")
        head = f"{'metric':34} {'unit':6} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>8}"
        if b:
            head += f" | {'B median':>11} {'B spread':>8} {'shift':>8} {'bound':>6} verdict"
        print(head)
        for name, (values, unit) in a[workload].items():
            med, q1, q3, spread = summary(values)
            row = f"{name:34} {unit:6} {fmt(med):>11} {fmt(q1):>11} {fmt(q3):>11} {fmt(spread):>8}"
            if b and name in b.get(workload, {}):
                bmed, _, _, bspread = summary(b[workload][name][0])
                # Positive shift = B is worse, whichever direction is better.
                shift = None
                if med:
                    shift = (bmed - med) / abs(med)
                    if better.get(name) == "higher":
                        shift = -shift
                row += f" | {fmt(bmed):>11} {fmt(bspread):>8} {fmt(shift):>8}"
                if name in gated:
                    bound = gated[name]["bound"]
                    wide = any(s is not None and s > bound for s in (spread, bspread))
                    if shift is not None and shift > bound:
                        verdict = "worse"
                        worse += 1
                    elif wide:
                        verdict = "unresolved"
                        unresolved += 1
                    else:
                        verdict = "ok"
                    row += f" {bound:>6} {verdict}"
            print(row)
    if b:
        print(f"\n{worse} worse, {unresolved} unresolved")
    return 1 if worse else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--first-seed", type=int, default=1)
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c.set_defaults(fn=collect)
    d = sub.add_parser("compare")
    d.add_argument("a")
    d.add_argument("b", nargs="?")
    d.set_defaults(fn=compare)
    args = p.parse_args()
    sys.exit(args.fn(args))


if __name__ == "__main__":
    main()
