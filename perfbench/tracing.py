"""Traced pass: spans around the entry points of each hamlearn layer.

Every wrapped name is patched where its caller looks it up (names bound by
``from ... import`` are patched in the importing module) and put back
afterwards; nothing inside ``src/`` changes. Spans (name, start, end, parent,
instance) are kept in memory and written once at the end; self times are
derived from them. A name that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import weakref
from array import array
from pathlib import Path

import numpy as np

# (module, attribute path, span name); several targets may share a span name
TARGETS = (
    ("hamlearn.harness", "run_experiment", "harness.suite"),
    ("hamlearn.harness", "_run_row", "harness.row"),
    ("hamlearn.harness", "solve_hamiltonian", "optimizer.solve"),
    ("hamlearn.optimizer", "bfgs_minimize", "optimizer.bfgs"),
    ("hamlearn.objective", "ReconstructionObjective.value", "objective.value"),
    ("hamlearn.objective", "ReconstructionObjective.gradient", "objective.gradient"),
    ("hamlearn.objective", "ReconstructionObjective.diagnostics", "objective.diagnostics"),
    ("hamlearn.linalg", "trace_product", "linalg.trace_product"),
    ("hamlearn.harness", "basis_generic", "operators.draw"),
    ("hamlearn.harness", "basis_two_local", "operators.draw"),
    ("hamlearn.harness", "eigenstate_measurements", "operators.draw"),
    ("hamlearn.metrics", "report", "metrics.report"),
)

SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "instance")
_W = len(SPAN_FIELDS)


def _resolve(module_name: str, path: str):
    """(owner, attribute) for a dotted path, or None when it no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Span recorder for one single-threaded traced pass."""

    def __init__(self):
        self.span_names: list = []
        self._name_ids: dict = {}
        self.spans = array("q")
        self._stack: list = []
        self.instance = -1
        self.instance_offset = 0
        self.stops = {"target": 0, "iter_cap": 0, "other": 0}
        self.iterations = 0
        self.target_iterations = 0
        self.forward_passes = 0
        self._last_x = weakref.WeakKeyDictionary()
        self._patched: list = []  # (owner, attribute, original)
        self.absent: list = []  # span names none of whose targets exist

    # -- span recording --------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str, before=None, after=None):
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(spans) // _W
            spans.extend((name_id, clock(), 0, stack[-1] if stack else -1, self.instance))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx * _W + 2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- per-layer hooks -------------------------------------------------
    def _enter_row(self, args, kwargs):
        row_id = args[1] if len(args) > 1 else kwargs.get("row_id", 0)
        self.instance = self.instance_offset + int(row_id)

    def _count_forward(self, args, kwargs):
        """A call whose x differs from the previous call on the same objective."""
        obj = args[0]
        x = args[1] if len(args) > 1 else kwargs.get("x")
        key = np.asarray(x, dtype=float).tobytes()
        if self._last_x.get(obj) != key:
            self.forward_passes += 1
            self._last_x[obj] = key

    def _classify_bfgs(self, args, kwargs, outcome):
        """Stop reason of one BFGS run, from its returned BfgsOutcome."""
        cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
        f_target = kwargs.get("f_target", args[4] if len(args) > 4 else None)
        its = int(outcome.iterations)
        self.iterations += its
        if f_target is not None and outcome.f < f_target:
            self.stops["target"] += 1
            self.target_iterations += its
        elif cfg is not None and its >= cfg.max_iters:
            self.stops["iter_cap"] += 1
        else:
            self.stops["other"] += 1

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        hooks = {
            "harness.row": (self._enter_row, None),
            "optimizer.bfgs": (None, self._classify_bfgs),
            "objective.value": (self._count_forward, None),
            "objective.gradient": (self._count_forward, None),
            "objective.diagnostics": (self._count_forward, None),
        }
        found = set()
        for module_name, path, name in TARGETS:
            target = _resolve(module_name, path)
            if target is None:
                continue
            owner, attr = target
            original = inspect.getattr_static(owner, attr)
            before, after = hooks.get(name, (None, None))
            setattr(owner, attr, self._wrap(original, name, before, after))
            self._patched.append((owner, attr, original))
            found.add(name)
        self.absent = sorted({name for _, _, name in TARGETS} - found)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """Every patched name is the original object again."""
        return all(inspect.getattr_static(o, a) is orig for o, a, orig in self._patched)

    # -- results ---------------------------------------------------------
    def _table(self) -> np.ndarray:
        return np.frombuffer(self.spans.tobytes(), dtype=np.int64).reshape(-1, _W)

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times; names of absent spans are left out."""
        t = self._table()
        name, parent = t[:, 0], t[:, 3]
        dur = (t[:, 2] - t[:, 1]).astype(float)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(t))
        k = len(self.span_names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=dur - covered, minlength=k) / 1e9

        def c(span):
            return int(calls[self._name_ids[span]]) if span in self._name_ids else 0

        def s(span):
            return float(self_s[self._name_ids[span]]) if span in self._name_ids else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        runs, its = c("optimizer.bfgs"), self.iterations
        obj_calls = c("objective.value") + c("objective.gradient") + c("objective.diagnostics")
        out = {
            ("harness.rows", "count"): (c("harness.row"), ["harness.row"]),
            ("harness.self_s", "s"): (s("harness.suite") + s("harness.row"), ["harness.suite", "harness.row"]),
            ("optimizer.bfgs_runs", "count"): (runs, ["optimizer.bfgs"]),
            ("optimizer.iterations", "count"): (its, ["optimizer.bfgs"]),
            ("optimizer.useful_run_ratio", "ratio"): (ratio(self.stops["target"], runs), ["optimizer.bfgs"]),
            ("optimizer.useful_iter_ratio", "ratio"): (ratio(self.target_iterations, its), ["optimizer.bfgs"]),
            ("optimizer.evals_per_iter", "evals/iter"): (
                ratio(c("objective.value"), its), ["optimizer.bfgs", "objective.value"]),
            ("optimizer.stop.target", "count"): (self.stops["target"], ["optimizer.bfgs"]),
            ("optimizer.stop.iter_cap", "count"): (self.stops["iter_cap"], ["optimizer.bfgs"]),
            ("optimizer.stop.other", "count"): (self.stops["other"], ["optimizer.bfgs"]),
            ("optimizer.solve_s", "s"): (s("optimizer.solve"), ["optimizer.solve"]),
            ("optimizer.bfgs_s", "s"): (s("optimizer.bfgs"), ["optimizer.bfgs"]),
            ("objective.forward_passes", "count"): (
                self.forward_passes, ["objective.value", "objective.gradient", "objective.diagnostics"]),
            ("objective.cache_hit_ratio", "ratio"): (
                ratio(obj_calls - self.forward_passes, obj_calls),
                ["objective.value", "objective.gradient", "objective.diagnostics"]),
        }
        for method in ("value", "gradient", "diagnostics"):
            span = f"objective.{method}"
            out[(f"{span}_calls", "count")] = (c(span), [span])
            out[(f"{span}_s", "s")] = (s(span), [span])
        for span, label in (
            ("linalg.trace_product", "linalg.trace_product"),
            ("operators.draw", "operators.draw"),
            ("metrics.report", "metrics.report"),
        ):
            out[(f"{label}_calls", "count")] = (c(span), [span])
            out[(f"{label}_s", "s")] = (s(span), [span])
        absent = set(self.absent)
        return {
            key: value
            for key, (value, needs) in out.items()
            if not any(n in absent for n in needs)
        }

    def write(self, directory: Path, stem: str, meta: dict) -> Path:
        """Write the spans once, as an (n, 5) int64 array plus a JSON sidecar."""
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{stem}.npy"
        np.save(path, self._table())
        sidecar = {"fields": SPAN_FIELDS, "names": self.span_names, "absent": self.absent, **meta}
        (directory / f"{stem}.json").write_text(json.dumps(sidecar, indent=1) + "\n")
        return path
