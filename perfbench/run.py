"""Seeded end-to-end and per-layer benchmark of tatevec.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src`.
One client in a closed loop, one process, no threads: each op starts when
the previous one has returned.  A run repeats whole rounds over the
workload's ops while the next round still fits in `--seconds` (at least
one round).  With `--trace 0` a round is one untraced pass; with
`--trace 1` every op of the pass runs untraced and then traced, back to
back, so drift of the machine's speed cancels in the tracing overhead.

Every op's wall time is scaled to the reference speed (`speed.py`): the
benchmark's own fixed kernel is timed right before and after each op, so
a change in the shared machine's speed cancels.  The op metrics are in
these reference seconds, and the `detail` line gives the unscaled wall
times beside them; setup_s is wall time.

The first pass checks every result; later passes must reproduce the first
pass's output digests.  An input's op time is its median over the passes,
and throughput is the ops of all untraced passes over the summed time of
those ops, so a program that fits more passes in a run is sampled no
differently, only more often.  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  A
per-layer value is its median over the traced passes; the spans of the
last traced pass are written to `.perfbench-work/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
from spans import PER_LAYER, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
IMPORT_REPEATS = 7


def measure_setup_s() -> float:
    """Median wall time of a fresh interpreter that imports tatevec.

    One unmeasured import first compiles the bytecode, which users pay once.
    The import runs in a fresh process, and its time did not follow the
    reference kernel's, so it is not scaled.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-c", "import tatevec; print(tatevec.__file__)"]
    first = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True, timeout=60)
    if not Path(first.stdout.strip()).resolve().is_relative_to(SRC):
        raise RuntimeError(f"fresh interpreter imported tatevec from {first.stdout.strip()}, not {SRC}")
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, check=True, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Pass:
    """One pass over the ops: op times, outcomes and output digests.

    The ops are timed on a `speed.Timeline` shared by every pass of a run;
    `durations` are their times at the reference speed, `walls` their wall
    times.  With a tracer, the tracer is installed around each op; `finish`
    folds its spans into the per-layer values `layers`.
    """

    def __init__(self, timeline: speed.Timeline, tracer=None):
        self.timeline = timeline
        self.slots: list[int] = []  # each op's place on the timeline
        self.digests: list[str | None] = []
        self.errors: list[str] = []
        self.tracer = tracer
        self.layers: dict = {}

    def run(self, i, op, reference=None):
        """Time op i, then check its result, or with `reference` compare its digest."""
        call = op.call
        if self.tracer is not None:
            self.tracer.op = i
            self.tracer.install()
            call = lambda: self.tracer.span("op", op.call)
        t0 = perf_counter()
        try:
            result, error = call(), None
        except Exception as e:  # a failed op is counted, and the run goes on
            result, error = None, f"{type(e).__name__}: {e}"
        wall = perf_counter() - t0
        if self.tracer is not None:
            self.tracer.uninstall()
        self.slots.append(self.timeline.record(wall))
        digest = None
        if error is None:
            digest = op.digest(result)
            if reference is None:
                error = op.check(result)
            elif digest != reference[i]:
                error = "output differs from the first pass"
        self.digests.append(digest)
        if error is not None:
            self.errors.append(f"op {i} ({op.kind}): {error}")

    def finish(self, ops: int) -> "Pass":
        if self.tracer is not None:
            self.layers = self.tracer.per_layer(ops)
        return self

    @property
    def durations(self) -> list[float]:
        return [self.timeline.scaled(j) for j in self.slots]

    @property
    def walls(self) -> list[float]:
        return [self.timeline.walls[j] for j in self.slots]

    @property
    def busy_s(self) -> float:
        return sum(self.durations)


def tail_percentile(ops_per_pass: int) -> int:
    """Highest whole percentile with at least ten of a pass's ops beyond it."""
    return max(0, math.floor(100 * (ops_per_pass - 10) / ops_per_pass))


def nearest_rank(sorted_values: list[float], pct: int) -> float:
    k = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def run_rounds(ops, seconds: float, traced: bool) -> tuple[list[Pass], list[Pass]]:
    """Whole rounds while the next one still fits in `seconds`; at least one.

    Returns the untraced and the traced passes.  A traced round runs each
    op untraced and then traced, back to back, so the two passes see the
    machine at the same speed.  Only the last traced pass keeps its tracer,
    so memory holds one pass of spans.
    """
    start = perf_counter()
    timeline = speed.Timeline()
    plain: list[Pass] = []
    spanned: list[Pass] = []
    round_s = 0.0
    while not plain or perf_counter() - start + round_s <= seconds:
        t0 = perf_counter()
        reference = plain[0].digests if plain else None
        untraced = Pass(timeline)
        traced_pass = Pass(timeline, Tracer()) if traced else None
        for i, op in enumerate(ops):
            untraced.run(i, op, reference)
            if traced_pass is not None:
                traced_pass.run(i, op, reference or untraced.digests)
        plain.append(untraced.finish(len(ops)))
        if traced_pass is not None:
            if spanned:
                spanned[-1].tracer = None
            spanned.append(traced_pass.finish(len(ops)))
        round_s = perf_counter() - t0
    return plain, spanned


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "tatevec" / "__init__.py").is_file():
        print(f"perfbench: no tatevec sources under {SRC}", file=sys.stderr)
        return 2
    setup_s = None if args.trace else measure_setup_s()
    sys.path.insert(0, str(SRC))
    import workloads  # imports tatevec from SRC

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workdir = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ops = wl.build(args.seed, workdir)
        start = perf_counter()
        passes, traced = run_rounds(ops, args.seconds, bool(args.trace))
        wall_s = perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = passes + traced
    errors = [e for p in runs for e in p.errors]
    attempted = sum(len(p.slots) for p in runs)
    scaled, walls = [p.durations for p in passes], [p.walls for p in passes]
    per_input = sorted(statistics.median(d[i] for d in scaled) for i in range(len(ops)))
    wall_per_input = sorted(statistics.median(w[i] for w in walls) for i in range(len(ops)))
    pct = tail_percentile(len(ops))
    outputs_sha256 = hashlib.sha256("".join(d or "-" for d in passes[0].digests).encode()).hexdigest()
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "field": wl.field,
        "inputs": wl.inputs,
        "op_mix": wl.op_mix,
        "ops_per_pass": len(ops),
        "passes": len(passes),
        "wall_s": wall_s,
        "tail_percentile": pct,
        "ref_s": speed.REF_S,
        "kernel_s_median": statistics.median(passes[0].timeline.kernels),
        "wall_op_p50_s": statistics.median(wall_per_input),
        "wall_op_tail_s": nearest_rank(wall_per_input, pct),
        "wall_throughput_ops_s": len(passes) * len(ops) / sum(map(sum, walls)),
        "outputs_sha256": outputs_sha256,
        "errors": errors[:20],
    }
    if not traced:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_s": (statistics.median(per_input), "s"),
            "op_tail_s": (nearest_rank(per_input, pct), "s"),
            "throughput_ops_s": (len(passes) * len(ops) / sum(map(sum, scaled)), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        # traced pass i ran alongside untraced pass i
        pairs = [(t.busy_s, u.busy_s) for t, u in zip(traced, passes)]
        values = {name: statistics.median(p.layers[name] for p in traced) for name in traced[0].layers}
        values["trace.overhead_s"] = statistics.median(t - u for t, u in pairs)
        values["trace.overhead_pct"] = statistics.median(100.0 * (t - u) / u for t, u in pairs)
        metrics = {name: (values[name], unit) for name, (unit, _) in PER_LAYER.items()}
        tracer = traced[-1].tracer
        spans_path = WORK / f"spans-{wl.name}-{args.seed}.tsv"
        tracer.write(spans_path)
        detail["traced_passes"] = len(traced)
        detail["spans"] = len(tracer.spans)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        for name, (value, unit) in metrics.items():
            print(f"{name:45s} {value:16.6f} {unit}")
    for e in errors[:20]:
        print(f"perfbench: FAILED {e}", file=sys.stderr)
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
