"""hamlearn benchmark: time to solution on seeded suites, traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``. With
``--trace 0`` the untraced window over the seed's instances and a timed
fixed reference suite give the end-to-end metrics; with ``--trace 1`` the
window is followed by a traced pass over the same inputs, which gives the
per-layer metrics. The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. See
``perfbench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported, here and in every child process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads as wls  # noqa: E402
from tracing import Tracer  # noqa: E402

GUARD_S = 170.0  # abort the whole run past this, without a result
UNTRACED_GRACE_S = {0: 100.0, 1: 40.0}  # hard cap after --seconds, by --trace
SETUP_REPEATS = 15
PREFIX_SHARE = 4  # trace.overhead on the parallel workload: 1/4 of its rows, serially
OUT_DIR = HERE / "out"

SETUP_PROBE = (
    "import json, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import hamlearn\n"
    "hamlearn.harness.ExperimentConfig.from_dict(json.loads(sys.argv[2]))\n"
    "print(time.perf_counter())\n"
)

# (name, unit) of the end-to-end metrics in BENCHMARK.json, in its order
END_TO_END = (
    ("setup_s", "s"),
    ("ref_suite_cpu_s", "s"),
    ("ref_fidelity_min", "ratio"),
    ("peak_rss_mb", "MB"),
)


def import_program():
    """hamlearn from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import hamlearn.harness as harness
    except ImportError as exc:
        raise SystemExit(f"cannot import hamlearn from {SRC}: {exc}")
    if Path(harness.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"hamlearn was imported from {harness.__file__}, not from {SRC}")
    return harness


class Guard:
    """Kills the run (and a running child) if it outlives GUARD_S."""

    def __init__(self, seconds: float):
        self.child = None
        self._timer = threading.Timer(seconds, self._abort)
        self._timer.daemon = True

    def _abort(self):
        print(f"perfbench: run exceeded {GUARD_S:.0f} s, aborting", file=sys.stderr, flush=True)
        if self.child is not None:
            self.child.kill()
            self.child.wait()
        os._exit(3)

    def __enter__(self):
        self._timer.start()
        return self

    def __exit__(self, *exc):
        self._timer.cancel()


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(workers: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": len(os.sched_getaffinity(0)),
        "workers": workers,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
    }


def measure_setup(cfg: dict, guard: Guard) -> list:
    """Seconds from launching a fresh interpreter to hamlearn imported and the config built."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        guard.child = subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), json.dumps(cfg)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        out, err = guard.child.communicate()
        code, guard.child = guard.child.returncode, None
        if code != 0:
            raise SystemExit(f"setup probe failed ({code}): {err.strip()}")
        times.append(float(out.strip().splitlines()[-1]) - t0)
    return times


def rows_without_wall(call) -> list:
    return [{k: v for k, v in row.items() if k != "wall_ms"} for row in call.rows]


def prefix_matches(prefix, suite) -> bool:
    """The first rows of `suite`, rerun as `prefix`, came out the same."""
    if prefix.error is not None:
        return suite.error is not None  # a raise in the prefix must raise in the suite
    if suite.error is not None:
        return True  # the suite raised past the prefix: no rows to compare
    return rows_without_wall(prefix) == rows_without_wall(suite)[: prefix.num_instances]


def traced_pass(harness, wl, window, deadline_s: float):
    """Rerun the window's finished calls, serially, under the tracer."""
    tracer = Tracer()
    traced = []
    tracer.install()
    try:
        with wls.hard_cap(deadline_s):
            for call in window.calls:
                tracer.instance_offset = call.index * call.num_instances
                again = wls.Call(call.index, call.seed, call.num_instances)
                traced.append(wls.run_call(harness, wl, again, threads=1))
    except wls.Deadline:
        pass
    finally:
        tracer.uninstall()
    return tracer, traced


def reference(ref) -> dict:
    """Time to solution of the fixed reference suite, keyed (name, unit)."""
    rows = [r for c in ref.calls for r in c.rows]
    out = {
        ("ref_suite_s", "s"): ref.wall_s,
        ("ref_suite_cpu_s", "s"): sum(c.cpu_s for c in ref.calls),
        ("ref_iterations", "count"): sum(r["iterations"] for r in rows),
    }
    solved = [r["abs_fidelity"] for r in rows if r["converged"]]
    if solved:
        out[("ref_fidelity_min", "ratio")] = min(solved)
    return out


def end_to_end(window, peak_rss: float) -> dict:
    """End-to-end metrics of the untraced window, keyed (name, unit)."""
    calls = window.calls
    attempted = sum(c.num_instances for c in calls)
    rows = [r for c in calls for r in c.rows]
    solved = [r for r in rows if r["converged"]]
    good = [r for r in solved if r["abs_fidelity"] >= wls.FIDELITY_FLOOR]
    failed = sum(len(wls.failures(c)) for c in calls)
    wall = [r["wall_ms"] / 1000.0 for r in rows]
    out = {
        ("instances_per_s", "1/s"): len(good) / sum(c.wall_s for c in calls),
        ("cpu_s_per_instance", "s"): sum(c.cpu_s for c in calls) / attempted,
        ("fail_rate", "ratio"): failed / attempted,
        ("peak_rss_mb", "MB"): peak_rss,
    }
    if rows:
        out[("instance_s_p50", "s")] = statistics.median(wall)
        out[("instance_s_samples", "count")] = len(wall)
        out[("iterations_per_instance", "count")] = sum(r["iterations"] for r in rows) / len(rows)
    finished = [c for c in calls if c.error is None]
    iterations = sum(r["iterations"] for c in finished for r in c.rows)
    if iterations:
        # CPU time per BFGS iteration, pooled over the finished calls: it
        # weighs the long instances that carry most iterations, and unlike
        # wall time it does not swing with how the thread pool happens to
        # share the interpreter lock.
        out[("cpu_ms_per_iter", "ms")] = 1000.0 * sum(c.cpu_s for c in finished) / iterations
    if solved:
        out[("fidelity_min", "ratio")] = min(r["abs_fidelity"] for r in solved)
    return out


def per_layer(tracer, window, traced_rows, untraced_rows) -> dict:
    """Per-layer metrics of the traced pass, keyed (name, unit).

    `traced_rows` and `untraced_rows` are the same instances, both solved on
    one worker; their summed row wall times give the tracer's cost.
    """
    calls = window.calls
    out = tracer.layer_metrics()
    out[("harness.cpu_util", "ratio")] = sum(c.cpu_s for c in calls) / (window.wall_s * window.workers)
    traced_ms = sum(r["wall_ms"] for r in traced_rows)
    untraced_ms = sum(r["wall_ms"] for r in untraced_rows)
    if traced_ms > 0 and untraced_ms > 0:
        out[("trace.overhead", "ratio")] = traced_ms / untraced_ms
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    harness = import_program()
    wl = wls.WORKLOADS[args.workload]
    workers = len(os.sched_getaffinity(0)) if wl.parallel else 1
    t_start = time.perf_counter()

    with Guard(GUARD_S) as guard:
        cap = args.seconds + UNTRACED_GRACE_S[args.trace]
        n = wls.instance_count(wl, args.seconds)
        window = wls.measure(harness, wl, args.seed, n, cap, workers)
        calls = window.calls
        if not calls:
            raise SystemExit("no harness call finished inside the hard cap")
        eps = harness.ExperimentConfig.from_dict(wls.config_dict(wl, 0, 1)).solve.eps
        checks = {
            "fidelity_bar": wls.quality_ok(calls),
            "converged_means_f_below_eps": wls.converged_ok(calls, eps),
        }
        if not args.trace:
            # timed after the window, which warms the interpreter and caches
            ref = wls.measure(harness, wl, wls.REF_SEED, wl.ref_instances, GUARD_S, workers)
            if ref.cut:
                raise SystemExit("the reference suite did not finish")
            checks["ref_fidelity_bar"] = wls.quality_ok(ref.calls)
            checks["ref_converged_means_f_below_eps"] = wls.converged_ok(ref.calls, eps)
        e2e = end_to_end(window, wls.peak_rss_mb())
        if not args.trace:
            e2e.update(reference(ref))
        report = {"end_to_end": {name: value for (name, _), value in e2e.items()}}
        if args.trace:
            if wl.parallel:
                # the tracer's cost is measured on one worker: an untraced
                # serial rerun of the suite's first rows (same master seed)
                prefix = wls.Call(0, calls[0].seed, max(1, calls[0].num_instances // PREFIX_SHARE))
                prefix = wls.run_call(harness, wl, prefix, threads=1)
                checks["serial_prefix_rows_equal"] = prefix_matches(prefix, calls[0])
            remaining = GUARD_S - 10.0 - (time.perf_counter() - t_start)
            tracer, traced = traced_pass(harness, wl, window, remaining)
            checks["names_restored"] = tracer.restored()
            same = all(
                t.error == c.error and rows_without_wall(t) == rows_without_wall(c)
                for t, c in zip(traced, calls)
            )
            # a serial pass cut at its deadline is compared on the calls it finished
            checks["traced_rows_equal"] = same and (len(traced) == len(calls) or not wl.parallel)
            traced_rows = [r for t in traced for r in t.rows]
            if wl.parallel:
                untraced_rows = prefix.rows
                traced_rows = traced_rows[: len(untraced_rows)]
            else:
                untraced_rows = [r for c in calls[: len(traced)] for r in c.rows]
            shown = per_layer(tracer, window, traced_rows, untraced_rows)
            result_metrics = dict(shown)
            tracer.write(OUT_DIR, f"spans_{wl.name}", {
                "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                "traced_calls": len(traced),
            })
            report["absent_spans"] = tracer.absent
        else:
            times = measure_setup(wls.config_dict(wl, wls.instance_seed(wl, args.seed, 0), 1), guard)
            e2e[("setup_s", "s")] = statistics.median(times)
            report["setup_runs_s"] = times
            shown = e2e
            result_metrics = {key: e2e[key] for key in END_TO_END if key in e2e}

    attempted = sum(c.num_instances for c in calls)
    failures = [
        {"call": c.index, "row": k, "reason": why} for c in calls for k, why in wls.failures(c)
    ]
    if not args.trace:
        attempted += sum(c.num_instances for c in ref.calls)
        failures += [
            {"ref_call": c.index, "row": k, "reason": why} for c in ref.calls for k, why in wls.failures(c)
        ]
    report.update({
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "calls": len(calls), "cut": window.cut, "window_s": window.wall_s,
        "checks": checks, "failures": failures, "environment": environment(window.workers),
    })
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
          f"workers {window.workers}  instances {attempted}  failed {len(failures)}")
    for (name, unit), value in shown.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    print("report " + json.dumps(report))
    result = {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": unit} for (name, unit), v in result_metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
