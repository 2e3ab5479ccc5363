"""Workload table and the untraced measurement window.

A workload is a fixed number of instances per second of ``--seconds``,
derived from the workload seed, so runs of two versions of the program on
the same seed and length solve the same instances. Its reference suite is
the same workload at the fixed seed REF_SEED, so every run times the same
work whatever its seed. Serial workloads call
``hamlearn.harness.run_experiment`` once per instance, so one exception costs
one instance; the parallel workload makes one suite call whose rows the
harness spreads over its worker pool.
"""

from __future__ import annotations

import math
import resource
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

MAX_RESTARTS = 150
FIDELITY_FLOOR = 0.998
# The suite-level bar of the repository's acceptance test for generic n=4:
# at least 18 of 20 instances above the floor, and the median above it.
FIDELITY_SHARE = 0.9
REF_SEED = 190306569  # the paper's arXiv number, 1903.06569


@dataclass(frozen=True)
class Workload:
    name: str
    stream: int  # keeps the instance streams of workloads run with one seed apart
    preset: str
    n_qubits: int
    m_terms: Optional[int]
    parallel: bool  # one suite call with nproc workers, else one call per instance
    per_s: float  # instances per second of --seconds
    ref_instances: int  # size of the fixed reference suite


# Why each workload exists is told in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        # many short d=16 instances in one suite call: call overhead and the pool dominate
        Workload("generic_d16_par", 1, "generic", 4, 3, True, 0.5, 40),
        # instances from the same distribution, one harness call each: bypasses the pool
        Workload("generic_d16", 4, "generic", 4, 3, False, 0.5, 40),
        # not in BENCHMARK.json: single instances can outlast a whole run
        Workload("local_full_d16", 2, "local_full", 4, None, False, 0.5, 4),  # restarts dominate
        Workload("generic_d64", 3, "generic", 6, 6, False, 0.1, 2),  # d^3 BLAS work dominates
        # tiny versions for the benchmark's own smoke test
        Workload("smoke_par", 101, "generic", 2, 2, True, 4.0, 4),
        Workload("smoke_serial", 102, "local_full", 2, None, False, 4.0, 4),
    )
}


def instance_seed(wl: Workload, seed: int, index: int) -> int:
    """Master seed of instance `index` (the whole suite for `parallel`)."""
    seq = np.random.SeedSequence(seed, spawn_key=(wl.stream, index))
    return int(seq.generate_state(1)[0])


def config_dict(wl: Workload, seed: int, num_instances: int) -> dict:
    cfg = {
        "preset": wl.preset,
        "n_qubits": wl.n_qubits,
        "num_instances": num_instances,
        "seed": seed,
        "eigen_index_policy": "random",
        "solve": {"max_restarts": MAX_RESTARTS},
    }
    if wl.m_terms is not None:
        cfg["m_terms"] = wl.m_terms
    return cfg


def instance_count(wl: Workload, seconds: float) -> int:
    return max(2, math.ceil(wl.per_s * seconds))


class Deadline(BaseException):
    """Raised in the main thread when a measurement's hard cap passes.

    A BaseException, so the per-instance ``except Exception`` isolation does
    not swallow it.
    """


@contextmanager
def hard_cap(seconds: float):
    """Interrupt the main thread with Deadline after `seconds`."""

    def on_alarm(signum, frame):
        raise Deadline

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 1e-3))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def cpu_seconds() -> float:
    """User plus system CPU of this process (all threads) and its children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


@dataclass
class Call:
    """One harness call: rows on success, the exception text when it raised."""

    index: int
    seed: int
    num_instances: int
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rows: list = field(default_factory=list)
    error: Optional[str] = None


def run_call(harness, wl: Workload, call: Call, threads: int) -> Call:
    cfg = harness.ExperimentConfig.from_dict(config_dict(wl, call.seed, call.num_instances))
    c0, t0 = cpu_seconds(), time.perf_counter()
    try:
        call.rows = [r.to_json() for r in harness.run_experiment(cfg, threads=threads)]
    except Exception as exc:  # fault isolation: one failure costs this call only
        call.error = f"{type(exc).__name__}: {exc}"
    call.wall_s = time.perf_counter() - t0
    call.cpu_s = cpu_seconds() - c0
    return call


@dataclass
class Window:
    """Result of the untraced measurement: finished harness calls, in order."""

    workers: int
    calls: list
    wall_s: float
    cut: bool  # a call was still running at the hard cap and was dropped


def measure(harness, wl: Workload, seed: int, n: int, cap_s: float, workers: int) -> Window:
    """Untraced window over `n` instances of the seed.

    Parallel: one suite call. Serial: one call per instance of the seed's
    sequence; a call still running `cap_s` after the start is interrupted,
    and it and the instances after it are dropped.
    """
    if wl.parallel:
        t0 = time.perf_counter()
        call = run_call(harness, wl, Call(0, instance_seed(wl, seed, 0), n), workers)
        return Window(workers, [call], time.perf_counter() - t0, False)
    t0 = time.perf_counter()
    calls, cut = [], False
    try:
        with hard_cap(cap_s):
            for i in range(n):
                calls.append(run_call(harness, wl, Call(i, instance_seed(wl, seed, i), 1), 1))
    except Deadline:
        cut = True
    return Window(1, calls, time.perf_counter() - t0, cut)


def quality_ok(calls) -> bool:
    """The fidelity bar of the repository's acceptance test, over attempted instances.

    A converged instance below the floor is an expected outcome of the
    method, not a wrong output: the objective can fall below ``eps`` at a
    Hamiltonian other than the true one when the data nearly allow both.
    Such instances are failures (``fail_rate``), and the suite is wrong only
    when too many of them, or of any other failure, occur.
    """
    # a raised or unconverged instance counts as fidelity 0
    fids = [r["abs_fidelity"] if r["converged"] else 0.0 for c in calls for r in c.rows]
    fids += [0.0] * sum(c.num_instances for c in calls if c.error is not None)
    if not fids:
        return False
    good = sum(f >= FIDELITY_FLOOR for f in fids)
    return good >= FIDELITY_SHARE * len(fids) and float(np.median(fids)) >= FIDELITY_FLOOR


def converged_ok(calls, eps: float) -> bool:
    """Each row's `converged` flag is the solver's own test, f_final < eps."""
    return all(r["converged"] == (r["f_final"] < eps) for c in calls for r in c.rows)


def failures(call: Call) -> list:
    """(row id, reason) per failed instance: raised, not converged, or low fidelity."""
    if call.error is not None:
        return [(k, call.error) for k in range(call.num_instances)]
    out = []
    for row in call.rows:
        if not row["converged"]:
            out.append((row["instance_id"], "not converged"))
        elif row["abs_fidelity"] < FIDELITY_FLOOR:
            out.append((row["instance_id"], f"abs_fidelity {row['abs_fidelity']:.6f}"))
    return out
