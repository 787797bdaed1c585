"""Tests of the benchmark itself: run them with `python3 -m pytest perfbench`.

The counters a traced pass reports (calls, elimination work, calls per op)
must repeat exactly for the same seed, so that later changes can cite them
as counts; output digests must repeat too.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402

import tatevec.exactla  # noqa: E402

OPS_PER_WORKLOAD = 6
COUNTERS = [
    name
    for name in PER_LAYER
    if name.endswith((".calls", ".per_op", ".per_call", ".work", ".calls_in_complement"))
]


def _ops(name: str, seed: int, tmp_path: Path):
    workdir = tmp_path / f"{name}-{seed}"
    workdir.mkdir(parents=True)
    return workloads.WORKLOADS[name].build(seed, workdir)[:OPS_PER_WORKLOAD]


def _traced_counters(ops) -> tuple[dict, list]:
    plain, (traced,) = run.run_rounds(ops, 0, traced=True)  # one round
    assert plain[0].errors == [] and traced.errors == []
    assert traced.digests == plain[0].digests
    return {k: traced.layers[k] for k in COUNTERS}, traced.digests


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counters_and_digests_repeat_exactly(name, tmp_path):
    first, first_digests = _traced_counters(_ops(name, 7, tmp_path / "a"))
    second, second_digests = _traced_counters(_ops(name, 7, tmp_path / "b"))
    assert first == second
    assert first_digests == second_digests
    assert first["exactla.rref.calls"] > 0 and first["exactla.rref.work"] > 0


def test_other_seed_gives_other_inputs_of_the_same_sizes(tmp_path):
    a = _ops("grid-small-mixed", 1, tmp_path / "a")
    b = _ops("grid-small-mixed", 2, tmp_path / "b")
    outputs = [(op_a.call()[1], op_b.call()[1]) for op_a, op_b in zip(a, b)]
    assert any(out_a != out_b for out_a, out_b in outputs)
    for op, (out_a, out_b) in zip(a, outputs):
        if op.kind == "decompose":
            dims_a, dims_b = (json.loads(out)["tate"]["c"]["dims"] for out in (out_a, out_b))
            assert dims_a == dims_b


def _timeline(monkeypatch, kernels, walls):
    times = iter(kernels)
    monkeypatch.setattr(speed, "kernel_s", lambda: next(times))
    timeline = speed.Timeline()
    slots = [timeline.record(w) for w in walls]
    return [timeline.scaled(j) for j in slots]


def test_timeline_cancels_the_machine_speed(monkeypatch):
    R = speed.REF_S
    walls = [0.1, 0.3, 0.2, 0.1]
    assert _timeline(monkeypatch, [R] * 5, walls) == pytest.approx(walls)
    # the same work on a machine at half speed
    assert _timeline(monkeypatch, [2 * R] * 5, [2 * w for w in walls]) == pytest.approx(walls)
    # one kernel call slowed by an interruption does not move any op
    assert _timeline(monkeypatch, [R, R, 10 * R, R, R], walls) == pytest.approx(walls)


def test_kernel_is_fixed_and_leaves_the_collector_on():
    assert speed.kernel() == speed.kernel()
    assert speed.kernel_s() > 0
    import gc

    assert gc.isenabled()


def test_uninstall_restores_every_binding():
    import tatevec.bidirected

    before = (tatevec.exactla.rref, tatevec.bidirected.rank, tatevec.exactla.Matrix.__matmul__)
    tracer = Tracer()
    tracer.install()
    assert tatevec.bidirected.rank is not before[1]
    tracer.uninstall()
    assert (tatevec.exactla.rref, tatevec.bidirected.rank, tatevec.exactla.Matrix.__matmul__) == before


def test_pinned_draws_refuse_a_draw_of_another_shape():
    draws = workloads.PinnedDraws(np.random.default_rng(0), {0: np.array([1, 2, 3])})
    with pytest.raises(RuntimeError):
        draws.integers(0, 9, size=4)
    unused = workloads.PinnedDraws(np.random.default_rng(0), {1: 5})
    unused.integers(0, 9)
    with pytest.raises(RuntimeError):
        unused.done()


def _run(cwd: Path, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "filtered-split", "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_every_metric(trace):
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == want


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
