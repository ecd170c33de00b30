"""Run the benchmark over many seeds and record the figures as a baseline.

    python3 perfbench/baseline.py --tag baseline --seeds 1-10 --seconds 30

For each workload this runs `run.py --trace 0` once per seed, one after
another, and reports each end-to-end metric's median, quartiles and spread
(quartile distance over the median, from statistics.quantiles(n=4)),
flagging any spread above a third of the bound in BENCHMARK.json. It then
makes two traced runs on the first seed and checks that the Sinkhorn
iteration and call counts of every pair both runs completed repeat
exactly. The result goes to perfbench/results/BENCH_<tag>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
COUNT_SPANS = ("transport.sinkhorn.kmeans", "transport.sinkhorn.match")


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int, out_dir: Path) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out_dir)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    record = json.loads((out_dir / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "record": record}


def _summary(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def _span_counts(record: dict) -> dict:
    """Per request: the (name, iterations) sequence of its Sinkhorn spans."""
    out = {}
    for span in record["spans"]:
        if span["name"] in COUNT_SPANS:
            out.setdefault(span["request"], []).append((span["name"], span["iterations"]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--workloads", default="", help="comma list; default all in BENCHMARK.json")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    out_dir = BENCH_DIR / "out" / args.tag
    out_dir.mkdir(parents=True, exist_ok=True)

    report = {"tag": args.tag, "seconds": seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for workload in workloads:
        runs = []
        for seed in seeds:
            run = _run(workload, seed, seconds, 0, out_dir)
            runs.append(run)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in run["result"]["metrics"].items()), flush=True)
        entry = {
            "environment": runs[0]["record"]["environment"],
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "end_to_end": {},
        }
        for name in runs[0]["result"]["metrics"]:
            summary = _summary([r["result"]["metrics"][name]["value"] for r in runs])
            summary["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            entry["end_to_end"][name] = summary
            bound = bounds.get(name)
            flag = ""
            if bound is not None and summary["spread"] > bound / 3:
                flag, steady = "  ABOVE bound/3", False
            print(f"  {name:<18} median {summary['median']:.6g} {summary['unit']}  "
                  f"spread {summary['spread']:.3f}  bound {bound}{flag}", flush=True)
        traced = [_run(workload, seeds[0], seconds, 1, out_dir) for _ in range(2)]
        entry["per_layer"] = {
            name: {"value": traced[0]["result"]["metrics"][name]["value"],
                   "unit": traced[0]["result"]["metrics"][name]["unit"]}
            for name in traced[0]["result"]["metrics"]
        }
        a, b = (_span_counts(t["record"]) for t in traced)
        common = sorted(set(a) & set(b))
        repeat = bool(common) and all(a[k] == b[k] for k in common)
        entry["traced_counts_repeat"] = {"pairs_compared": len(common), "identical": repeat}
        print(f"  traced Sinkhorn counts repeat on {len(common)} pairs: {repeat}", flush=True)
        steady = steady and repeat
        entry["correct"] = entry["correct"] and all(t["result"]["correct"] for t in traced)
        report["workloads"][workload] = entry

    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    path = results / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    return 0 if steady and all(e["correct"] for e in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
