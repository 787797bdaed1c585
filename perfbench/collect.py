"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/collect.py --seeds 0-9 [--workloads a,b] [--trace-seed 0]
                                 [--out results.json] [--markdown results.md]

Each run is `perfbench/run.py` in its own interpreter, one at a time, with
`run_seconds` from BENCHMARK.json.  For every workload and end-to-end
metric the summary gives the median over seeds and the spread, the
distance between the first and third quartile as a share of the median
(`statistics.quantiles(values, n=4)`); the same for the unscaled wall
times and the reference kernel time from each run's `detail` line.  With `--trace-seed` one traced run
per workload adds the per-layer table and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WALL = ("wall_op_p50_s", "wall_op_tail_s", "wall_throughput_ops_s", "kernel_s_median")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("detail "):
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len("detail "):])
    return result


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"))
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", type=Path, default=None)
    ap.add_argument("--markdown", type=Path, default=None)
    args = ap.parse_args(argv)

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {
        "run_seconds": seconds,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "workloads": {},
    }
    md = []
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            r = run_once(name, seed, seconds, 0)
            runs.append(r)
            d = r["detail"]
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()
            ) + f" ok={r['correct']} ops={r['attempted']} passes={d['passes']} sha={d['outputs_sha256'][:12]}",
                flush=True)
        summary = {m: spread([r["metrics"][m]["value"] for r in runs]) for m in bounds}
        wall = {k: spread([r["detail"][k] for r in runs]) for k in WALL}
        entry = {
            "detail": {k: runs[0]["detail"][k] for k in ("field", "inputs", "op_mix", "ops_per_pass", "tail_percentile")},
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "runs": [{"seed": s, "metrics": {k: v["value"] for k, v in r["metrics"].items()},
                      "attempted": r["attempted"], "failed": r["failed"], "passes": r["detail"]["passes"],
                      "outputs_sha256": r["detail"]["outputs_sha256"],
                      "wall": {k: r["detail"][k] for k in WALL}} for s, r in zip(args.seeds, runs)],
            "summary": summary,
            "wall_summary": wall,
        }
        md.append(f"### {name}\n\n{entry['detail']['inputs']}; GF({entry['detail']['field']}); "
                  f"{entry['detail']['op_mix']}; {entry['detail']['ops_per_pass']} ops per pass; "
                  f"op_tail_s is p{entry['detail']['tail_percentile']}.  Failed {entry['failed']} of "
                  f"{entry['attempted']} ops over seeds {args.seeds[0]}-{args.seeds[-1]}.\n")
        md.append("| metric | unit | median | q1 | q3 | spread | bound |\n|---|---|---|---|---|---|---|")
        for m, s in summary.items():
            unit = runs[0]["metrics"][m]["unit"]
            md.append(f"| {m} | {unit} | {s['median']:.6g} | {s['q1']:.6g} | {s['q3']:.6g} | "
                      f"{s['spread']:.3f} | {bounds[m]} |")
        md.append("\nUnscaled, from the `detail` lines (no bound):\n")
        md.append("| value | median | q1 | q3 | spread |\n|---|---|---|---|---|")
        for k, s in wall.items():
            md.append(f"| {k} | {s['median']:.6g} | {s['q1']:.6g} | {s['q3']:.6g} | {s['spread']:.3f} |")
        if args.trace_seed is not None:
            t = run_once(name, args.trace_seed, seconds, 1)
            entry["trace"] = {"seed": args.trace_seed, "spans": t["detail"]["spans"],
                              "traced_passes": t["detail"]["traced_passes"],
                              "metrics": {k: v["value"] for k, v in t["metrics"].items()}}
            n = t["detail"]["traced_passes"]
            md.append(f"\nPer-layer, medians over {n} traced pass{'es' if n > 1 else ''}, seed "
                      f"{args.trace_seed} ({t['detail']['spans']} spans in a pass):\n")
            md.append("| metric | value | unit |\n|---|---|---|")
            for k, v in t["metrics"].items():
                md.append(f"| {k} | {v['value']:.6g} | {v['unit']} |")
        md.append("")
        report["workloads"][name] = entry
        for m, s in summary.items():
            print(f"  {m:18s} median {s['median']:.6g} spread {s['spread']:.3f} (bound {bounds[m]})", flush=True)
        for k, s in wall.items():
            print(f"  {k:22s} median {s['median']:.6g} spread {s['spread']:.3f}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if args.markdown:
        args.markdown.write_text("\n".join(md) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
