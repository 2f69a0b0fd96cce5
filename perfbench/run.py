"""Seeded benchmark of adamsops: one workload per run.

    python3 perfbench/run.py --workload matrix-cold --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  With `--trace 0` the run measures the end-to-end metrics with
tracing off.  With `--trace 1` it runs the workload twice from the same
state, untraced and then traced, and reports the per-layer metrics.  Human-
readable lines go first; the last line of standard output is one JSON
object.  See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Set-up is timed SETUP_SPAWNS times before the workload, after one untimed
# spawn that warms the file cache, and once every SETUP_EVERY_S seconds
# during it; the median is reported.  Start-up time drifts with the host
# over seconds, so samples spread over the run give a steadier median.
SETUP_SPAWNS = 4
SETUP_EVERY_S = 1.5
# Operations move to the next CPU this often; see CpuRotation.
CPU_PERIOD_S = 0.25
# No 95 between 99 and 90: a workload near 200 operations per run would flip
# between the two from run to run.
TAIL_LADDER = (99.0, 90.0, 80.0, 50.0)
# In a traced run: the share of --seconds for the first untraced pass, and
# the number of spans after which the traced pass stops at the next operation.
UNTRACED_SHARE = 0.25
SPAN_BUDGET = 1_500_000

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, span names summed, quantity).
PER_LAYER = {
    "counts.mu_closed.calls": ("count", ["counts.mu_closed"], "calls"),
    "counts.mu_closed.self_ms": ("ms", ["counts.mu_closed"], "self_ms"),
    "counts.mu_closed.hit_ratio": ("ratio", [], "hit_ratio"),
    "counts.alpha_beta.calls": ("count", ["counts.alpha", "counts.beta"], "calls"),
    "counts.mu_enumerate.calls": ("count", ["counts.mu_enumerate"], "calls"),
    "counts.mu_enumerate.self_ms": ("ms", ["counts.mu_enumerate"], "self_ms"),
    "exactmath.binomial.calls": ("count", ["exactmath.binomial"], "calls"),
    "exactmath.binomial.self_ms": ("ms", ["exactmath.binomial"], "self_ms"),
    "exactmath.bernoulli_even.calls": ("count", ["exactmath.bernoulli_even"], "calls"),
    "ktheory.adams_matrix.calls": ("count", ["ktheory.adams_matrix"], "calls"),
    "ktheory.adams_matrix.self_ms": (
        "ms", ["ktheory.adams_matrix", "ktheory.g2_adams_matrix"], "self_ms"),
    "ktheory.closed.self_ms": (
        "ms",
        [
            "ktheory.unitary_adams_matrix",
            "ktheory.special_unitary_adams_matrix",
            "ktheory.symplectic_adams_matrix",
            "ktheory.spin_odd_adams_matrix",
            "ktheory.spin_even_adams_matrix",
            "ktheory.g2_closed_columns",
            "ktheory.g2_wedge_square_closed_column",
        ],
        "self_ms",
    ),
    "ktheory.pipeline.self_ms": ("ms", ["ktheory.pullback_adams_matrix"], "self_ms"),
    "ktheory.reduction_table.self_ms": ("ms", ["ktheory.reduction_table"], "self_ms"),
    "ktheory.compose.self_ms": ("ms", ["ktheory.compose"], "self_ms"),
    "ktheory.consistency_errors": ("count", [], "consistency_errors"),
    "eigen.eigenvector.self_ms": ("ms", ["eigen.eigenvector"], "self_ms"),
    "eigen.sinh_pow_coeff_poly.calls": ("count", ["eigen.sinh_pow_coeff_poly"], "calls"),
    "eigen.sinh_pow_coeff_poly.self_ms": ("ms", ["eigen.sinh_pow_coeff_poly"], "self_ms"),
    "eigen.char_poly.self_ms": ("ms", ["eigen.char_poly"], "self_ms"),
    "eigen.spectrum_check.self_ms": ("ms", ["eigen.spectrum_check"], "self_ms"),
    "eigen.eigenbasis_determinant.self_ms": ("ms", ["eigen.eigenbasis_determinant"], "self_ms"),
    "symoracle.adams_symbolic_coefficients.calls": (
        "count", ["symoracle.adams_symbolic_coefficients"], "calls"),
    "symoracle.adams_symbolic_coefficients.self_ms": (
        "ms", ["symoracle.adams_symbolic_coefficients"], "self_ms"),
    "cli.startup_ms": ("ms", [], "startup_ms"),
    "cli.main.self_ms": ("ms", ["cli.main"], "self_ms"),
    "cli.output_bytes": ("bytes", [], "output_bytes"),
    "trace.overhead_ratio": ("ratio", [], "overhead_ratio"),
}


def tail_percentile(latencies: list[float]) -> tuple[float, float, int]:
    """The highest ladder percentile with at least ten samples beyond it:
    (percentile, value by nearest rank, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in TAIL_LADDER:
        rank = max(1, math.ceil(q / 100 * n))
        if n - rank >= 10 or q == TAIL_LADDER[-1]:
            return q, ordered[rank - 1], n - rank
    raise AssertionError("unreachable")


class CpuRotation:
    """Moves this process to the next CPU it may run on every `period`
    seconds, between operations.

    On a shared host the CPUs of one machine can run at different speeds for
    minutes, and the scheduler keeps a lone busy process on one CPU for long
    stretches, so a run's figures depend on where it happened to land.
    Visiting every allowed CPU in turn gives each run the same share of each.
    Child processes inherit the CPU of the moment.
    """

    def __init__(self, period: float) -> None:
        try:
            self.cpus = sorted(os.sched_getaffinity(0))
            os.sched_setaffinity(0, set(self.cpus))
        except (AttributeError, OSError):  # no affinity control here: stay put
            self.cpus = []
        self.period = period
        self.turn = 0
        self.due = 0.0

    def next(self) -> None:
        if len(self.cpus) > 1:
            self.turn += 1
            os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})

    def tick(self) -> None:
        now = perf_counter()
        if now >= self.due:
            self.next()
            self.due = now + self.period

    def release(self) -> None:
        if self.cpus:
            os.sched_setaffinity(0, set(self.cpus))


def startup_times(spawns: int, cpus: CpuRotation) -> list[float]:
    """Wall times of fresh interpreters importing adamsops.cli, each started
    on the next CPU."""
    from workloads import python_env  # importable once main() has checked src/

    times = []
    for _ in range(spawns):
        cpus.next()
        t0 = perf_counter()
        # Pipes make the wait select on the child's exit; without them a
        # wait with a timeout polls in steps of up to 50 ms.
        subprocess.run(
            [sys.executable, "-c", "import adamsops.cli"],
            env=python_env(), cwd=ROOT, check=True, timeout=60, capture_output=True,
        )
        times.append(perf_counter() - t0)
    return times


class Pass:
    """The outcome of running a workload's operations in one process."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed = 0
        self.consistency_errors = 0
        self.output_bytes = 0
        self.problems: list[str] = []
        self.digest = hashlib.sha256()
        self.digested = 0


def run_pass(
    workload, seed: int, execute, stop, cpus: CpuRotation, tracer=None, digest_ops: int = 0,
    between=None, prepare: bool = True,
) -> Pass:
    """Run operations lap by lap until `stop(elapsed_seconds, ops_done)`,
    the seconds counted from the end of the workload's untimed `prepare`.

    Each operation is timed alone; its output is checked, digested and
    counted after the clock stops.  A failure -- an exception, a non-zero
    exit code or a wrong output -- is counted and the run goes on.
    `between(elapsed_seconds)`, if given, runs untimed before each operation.
    """
    from workloads import CliResult, K  # importable once main() has checked src/

    result = Pass()
    if prepare:
        workload.prepare(seed)
    started = perf_counter()
    for lap in workload.laps(seed):
        workload.start_lap()
        for op in lap:
            if stop(perf_counter() - started, len(result.latencies)):
                return result
            cpus.tick()
            if between is not None:
                between(perf_counter() - started)
            if tracer is not None:
                tracer.op_id = len(result.latencies)
            t0 = perf_counter()
            try:
                if tracer is None:
                    out = execute(op)
                else:
                    with tracer.span("bench.op"):
                        out = execute(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            result.latencies.append(perf_counter() - t0)
            if isinstance(out, Exception):
                problem = f"{op}: {type(out).__name__}: {str(out)[:200]}"
                result.consistency_errors += isinstance(out, K.ConsistencyError)
            else:
                try:
                    problem = workload.check(op, out)
                except Exception:  # the checker itself hit a malformed result
                    problem = f"{op}: check raised {traceback.format_exc(limit=1)[-200:]}"
                if isinstance(out, CliResult):
                    result.output_bytes += len(out.stdout.encode())
                    result.consistency_errors += out.code == 3
            if problem:
                result.failed += 1
                result.problems.append(problem)
            if len(result.latencies) <= digest_ops:
                result.digest.update(repr((op, out)).encode())
                result.digested += 1
    return result


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # kB on Linux


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, Pass]:
    cpus = CpuRotation(CPU_PERIOD_S)
    startup_times(1, cpus)
    setup = startup_times(SETUP_SPAWNS, cpus)
    due = [0.0]

    def spawn_now_and_then(elapsed: float) -> None:
        if elapsed >= due[0]:
            setup.extend(startup_times(1, cpus))
            due[0] = elapsed + SETUP_EVERY_S

    try:
        result = run_pass(
            workload, seed, workload.execute,
            stop=lambda elapsed, done: elapsed >= seconds, cpus=cpus,
            digest_ops=workload.digest_ops, between=spawn_now_and_then,
        )
    finally:
        cpus.release()
    if not result.latencies:
        raise SystemExit("no operation completed")
    q, tail, beyond = tail_percentile(result.latencies)
    n = len(result.latencies)
    values = {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": statistics.median(result.latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "throughput_ops_s": n / sum(result.latencies),
        "peak_rss_mb": peak_rss_mb(workload.children_rss),
    }
    print(f"workload {workload.name}  seed {seed}  ops {n}  failed {result.failed}")
    print(f"error_rate {result.failed / n:.6g}  ({result.failed}/{n})")
    print(f"latency_tail_ms is p{q:g} with {beyond} of {n} samples beyond it")
    print(f"output sha256 {result.digest.hexdigest()} over the first {result.digested} ops")
    print("setup spawns ms", " ".join(f"{t * 1e3:.1f}" for t in setup))
    for name, value in values.items():
        print(f"{name} {value:.6g} {END_TO_END[name]}")
    return values, result


def traced(workload, seed: int, seconds: float) -> tuple[dict, Pass]:
    """Untraced, traced, and untraced again, over the same operations from
    the same state; per-layer metrics come from the traced pass.  Tracing
    overhead is measured against both untraced passes, because the first
    pass of a process also pays for growing its heap."""
    from tracing import Tracer
    from workloads import cache_stats

    cpus = CpuRotation(CPU_PERIOD_S)
    tracer = Tracer()
    try:
        startup_times(1, cpus)
        startup_ms = statistics.median(startup_times(4 * SETUP_SPAWNS, cpus)) * 1e3
        execute = workload.execute_in_process
        budget = UNTRACED_SHARE * seconds
        plain = run_pass(workload, seed, execute, stop=lambda elapsed, count: elapsed >= budget, cpus=cpus)
        n = len(plain.latencies)

        workload.prepare(seed)  # before the wrappers go in: warm-up is not traced
        tracer.install()
        try:
            cache = tracer.originals.get("counts.mu_closed")
            cached = hasattr(cache, "cache_info")
            hits0, misses0 = cache_stats(cache) if cached else (0, 0)
            limit = seconds - 2 * budget
            result = run_pass(
                workload, seed, execute, tracer=tracer, cpus=cpus, prepare=False,
                stop=lambda elapsed, count: count >= n or elapsed >= limit or len(tracer) >= SPAN_BUDGET,
            )
            hits1, misses1 = cache_stats(cache) if cached else (0, 0)
        finally:
            tracer.uninstall()
        done = len(result.latencies)
        if not done:
            raise SystemExit("no operation completed")
        again = run_pass(workload, seed, execute, stop=lambda elapsed, count: count >= done, cpus=cpus)
    finally:
        cpus.release()
    untraced_s = (sum(plain.latencies[:done]) + sum(again.latencies)) / 2
    stem = OUT / f"spans-{workload.name}"
    tracer.write(stem)

    totals = tracer.totals()
    lookups = hits1 + misses1 - hits0 - misses0
    extra = {
        "hit_ratio": (hits1 - hits0) / lookups if lookups else 0.0,
        "consistency_errors": result.consistency_errors,
        "startup_ms": startup_ms,
        "output_bytes": result.output_bytes,
        "overhead_ratio": sum(result.latencies) / untraced_s,
    }
    values, skipped = {}, []
    for name, (unit, spans, quantity) in PER_LAYER.items():
        if quantity in extra:
            values[name] = extra[quantity]
            continue
        missing = [s for s in spans if s not in totals]
        if len(missing) == len(spans):
            skipped.append(name)
        picked = [totals.get(s, (0, 0.0)) for s in spans]
        values[name] = sum(c for c, _ in picked) if quantity == "calls" else sum(t for _, t in picked) * 1e3
    if not cached:
        skipped.append("counts.mu_closed.hit_ratio")

    print(f"workload {workload.name}  seed {seed}  traced ops {done} of {n} untraced  spans {len(tracer)}")
    print(f"spans written to {stem}.json and .bin")
    for target in tracer.skipped:
        print(f"skipped: {target} no longer exists")
    for name in skipped:
        print(f"skipped: {name} reads 0 because the functions it sums were not found")
    for name, value in values.items():
        print(f"{name} {value:.6g} {PER_LAYER[name][0]}")
    return values, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "adamsops" / "__init__.py").is_file():
        print(f"error: no library at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    if args.trace:
        values, result = traced(workload, args.seed, args.seconds)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        values, result = end_to_end(workload, args.seed, args.seconds)
        units = END_TO_END
    for problem in result.problems[:10]:
        print(f"failure: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": len(result.latencies),
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
