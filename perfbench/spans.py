"""Spans and counters recorded around the public functions of each layer.

`Tracer.install` wraps every public function of the tatevec layer modules
(and `Matrix.__matmul__`) and rebinds each reference to it inside the
package, so calls between modules are recorded too.  Spans stay in memory
as [name, start, end, parent, op] records; `per_layer` folds them into the
per-layer metrics and `write` dumps them when the run ends.  Nothing in the
program itself changes; `uninstall` restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "serialize", "bidirected", "exactla", "spaces", "tensor", "duality", "splitting")

# metric name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "exactla.rref.calls": ("count", "lower"),
    "exactla.rref.work": ("count", "lower"),
    "exactla.rref.self_s": ("s", "lower"),
    "exactla.rref.calls_in_complement": ("count", "lower"),
    "exactla.complement_basis.calls": ("count", "lower"),
    "exactla.complement_basis.rref_per_call": ("count", "lower"),
    "exactla.complement_basis.total_s": ("s", "lower"),
    "exactla.inverse.calls": ("count", "lower"),
    "exactla.solve_linear.calls": ("count", "lower"),
    "exactla.matmul.calls": ("count", "lower"),
    "exactla.matmul.self_s": ("s", "lower"),
    "exactla.kron.self_s": ("s", "lower"),
    "exactla.self_s": ("s", "lower"),
    "bidirected.validate_grid.per_op": ("count", "lower"),
    "bidirected.check_split.per_op": ("count", "lower"),
    "bidirected.split_grid.total_s": ("s", "lower"),
    "bidirected.grid_decomposition.total_s": ("s", "lower"),
    "bidirected.kappa_check.total_s": ("s", "lower"),
    "bidirected.dual_grid.total_s": ("s", "lower"),
    "bidirected.self_s": ("s", "lower"),
    "serialize.parse.self_s": ("s", "lower"),
    "serialize.emit.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "spaces.materialize.self_s": ("s", "lower"),
    "tensor.self_s": ("s", "lower"),
    "splitting.split_filtered_ses.total_s": ("s", "lower"),
    "splitting.topological_complement.total_s": ("s", "lower"),
    "duality.self_dual_decompose.total_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.rref_work = 0  # exact sum of rows * cols * rank over rref calls
        self._stack: list[int] = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        rec = [name, 0.0, 0.0, parent, self.op]
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec: list):
        rec[END] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn):
        """Call fn() inside a span named `name` (used for the op root)."""
        rec = self._open(name)
        try:
            return fn()
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        if name == "exactla.rref":

            @functools.wraps(fn)
            def wrapper(M, *args, **kwargs):
                rec = self._open(name)
                try:
                    out = fn(M, *args, **kwargs)
                finally:
                    self._close(rec)
                self.rref_work += M.rows * M.cols * len(out[1])
                return out

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec = self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(rec)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        from tatevec.exactla import Matrix

        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"tatevec.{layer}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "tatevec" or name.startswith("tatevec.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        matmul = Matrix.__matmul__
        self._restore.append((Matrix, "__matmul__", matmul))
        Matrix.__matmul__ = self._wrap("exactla.matmul", matmul)

    def uninstall(self):
        while self._restore:
            owner, attr, obj = self._restore.pop()
            setattr(owner, attr, obj)

    # -- results -----------------------------------------------------------

    def per_layer(self, ops: int) -> dict:
        """Fold the spans of one traced pass of `ops` ops into the metrics.

        Gives every metric of PER_LAYER but the trace.* ones, which compare
        traced with untraced passes and are the runner's to compute.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)  # outermost span of each name only
        rref_in_complement = 0
        for i, rec in enumerate(spans):
            name = rec[NAME]
            dur = rec[END] - rec[START]
            calls[name] += 1
            self_s[name] += dur - child[i]
            outermost, in_complement = True, False
            p = rec[PARENT]
            while p >= 0:
                pname = spans[p][NAME]
                outermost = outermost and pname != name
                in_complement = in_complement or pname == "exactla.complement_basis"
                p = spans[p][PARENT]
            if outermost:
                total_s[name] += dur
            if name == "exactla.rref" and in_complement:
                rref_in_complement += 1

        def layer_self(prefix: str, keep=lambda name: True) -> float:
            return sum(v for k, v in self_s.items() if k.startswith(prefix) and keep(k))

        n_complement = calls["exactla.complement_basis"]
        m = {
            "exactla.rref.calls": calls["exactla.rref"],
            "exactla.rref.work": self.rref_work,
            "exactla.rref.self_s": self_s["exactla.rref"],
            "exactla.rref.calls_in_complement": rref_in_complement,
            "exactla.complement_basis.calls": n_complement,
            "exactla.complement_basis.rref_per_call": rref_in_complement / n_complement if n_complement else 0.0,
            "exactla.complement_basis.total_s": total_s["exactla.complement_basis"],
            "exactla.inverse.calls": calls["exactla.inverse"],
            "exactla.solve_linear.calls": calls["exactla.solve_linear"],
            "exactla.matmul.calls": calls["exactla.matmul"],
            "exactla.matmul.self_s": self_s["exactla.matmul"],
            "exactla.kron.self_s": self_s["exactla.kron"],
            "exactla.self_s": layer_self("exactla."),
            "bidirected.validate_grid.per_op": calls["bidirected.validate_grid"] / ops,
            "bidirected.check_split.per_op": calls["bidirected.check_split"] / ops,
            "bidirected.split_grid.total_s": total_s["bidirected.split_grid"],
            "bidirected.grid_decomposition.total_s": total_s["bidirected.grid_decomposition"],
            "bidirected.kappa_check.total_s": total_s["bidirected.kappa_check"],
            "bidirected.dual_grid.total_s": total_s["bidirected.dual_grid"],
            "bidirected.self_s": layer_self("bidirected."),
            "serialize.parse.self_s": layer_self("serialize.parse_"),
            "serialize.emit.self_s": layer_self("serialize.", lambda k: not k.startswith("serialize.parse_")),
            "cli.self_s": layer_self("cli."),
            "spaces.materialize.self_s": self_s["spaces.materialize"],
            "tensor.self_s": layer_self("tensor."),
            "splitting.split_filtered_ses.total_s": total_s["splitting.split_filtered_ses"],
            "splitting.topological_complement.total_s": total_s["splitting.topological_complement"],
            "duality.self_dual_decompose.total_s": total_s["duality.self_dual_decompose"],
        }
        assert list(m) == [name for name in PER_LAYER if not name.startswith("trace.")]
        return m

    def write(self, path):
        """Dump the spans as tab-separated name, start, end, parent, op."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(f"{rec[NAME]}\t{rec[START]:.9f}\t{rec[END]:.9f}\t{rec[PARENT]}\t{rec[OP]}\n")
