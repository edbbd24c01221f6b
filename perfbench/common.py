"""Pieces shared by the workloads: set-up timing, MD blocks, memory."""

from __future__ import annotations

import contextlib
import multiprocessing
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

from .stats import latency_summary


@dataclass
class Result:
    """What one workload run measured and checked."""

    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    attempted: int
    failed: int
    correct: bool
    report: list[str] = field(default_factory=list)
    tracer: object = None  # the traced run's Tracer, for the span export


def timed_setup(build, repeats: int, close=None):
    """Run ``build()`` ``repeats`` times; keep the last, return it and the median seconds.

    Set-up is repeated so that ``setup_s`` is a median, not one reading;
    ``close`` releases each discarded copy before the next is built.
    """
    seconds = []
    built = None
    for _ in range(repeats):
        if built is not None and close is not None:
            close(built)
        start = time.perf_counter()
        built = build()
        seconds.append(time.perf_counter() - start)
    return built, statistics.median(seconds)


def worker_peak_rss_mb() -> float:
    """Summed peak RSS of this process's live child processes (MB)."""
    total_kb = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def stop_child_processes(timeout: float = 5.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Engines close their worker pools themselves; this catches any left on an
    error path.  Shared-memory slabs also start multiprocessing's resource
    tracker, a helper process that would otherwise outlive this one until it
    notices the parent is gone, so it is stopped and reaped here too.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def differenced_block(tracer, read, totals):
    """A traced-block factory that adds each block's change of ``read()`` to ``totals``.

    Program counters keep accumulating in untraced blocks too; differencing
    them around traced blocks keeps the per-layer counts on the same steps
    as the spans.
    """

    @contextlib.contextmanager
    def block():
        before = read()
        with tracer.installed():
            yield
        totals[:] += read() - before

    return block


def run_md_blocks(sim, steps_per_block: int, seconds: float, trace_block=None):
    """Run ``sim`` in blocks of ``steps_per_block`` until ``seconds`` have passed.

    Returns per-block records ``(wall_s, report, traced)`` and the wall time
    of every untraced step.  With ``trace_block`` (a context manager
    factory), every second block runs inside it, so traced and untraced
    blocks interleave under the same conditions.

    Steps are timed from the start of one to the start of the next: the
    stepping loop begins every step with ``integrate_first_half()``, and
    wrapping that one call on the backend instance costs one clock read.
    """
    starts: list[float] = []
    first_half = sim.integrate_first_half

    def timed_first_half():
        starts.append(time.perf_counter())
        first_half()

    sim.integrate_first_half = timed_first_half
    blocks = []
    step_seconds: list[float] = []
    deadline = time.perf_counter() + seconds
    try:
        while time.perf_counter() < deadline or len(blocks) < 2:
            traced = trace_block is not None and len(blocks) % 2 == 1
            starts.clear()
            start = time.perf_counter()
            with trace_block() if traced else contextlib.nullcontext():
                report = sim.run(steps_per_block, sample_every=1)
            end = time.perf_counter()
            blocks.append((end - start, report, traced))
            if not traced:
                marks = starts + [end]
                step_seconds.extend(b - a for a, b in zip(marks[:-1], marks[1:]))
    finally:
        del sim.integrate_first_half
    return blocks, step_seconds


def summed_rate(blocks) -> float:
    """Summed work over summed seconds of ``(seconds, work)`` blocks."""
    return sum(work for _, work in blocks) / sum(seconds for seconds, _ in blocks)


def md_end_to_end(blocks, step_seconds, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    """End-to-end metrics of an MD workload from its untraced blocks.

    Throughput is all untraced steps over their summed wall time, not a
    median of block rates: this host's speed drifts between regimes lasting
    seconds, and a median of blocks jumps between them from run to run while
    the summed rate averages over them.
    """
    plain = [(wall, report.n_steps) for wall, report, traced in blocks if not traced]
    latency = latency_summary(step_seconds)
    steps_per_s = summed_rate(plain)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "steps_per_s": steps_per_s,
        # one MD step evaluates the whole system once
        "systems_per_s": steps_per_s,
        "latency_ms_p50": latency["p50_ms"],
        "latency_ms_p90": latency["p90_ms"],
        "latency_ms_p99": latency["p99_ms"],
    }


@dataclass
class TracedTotals:
    """Sums over the traced blocks of an MD run."""

    steps: int
    wall: float
    phases: dict[str, float]
    builds: int
    build_seconds: float

    @classmethod
    def of(cls, blocks) -> "TracedTotals":
        traced = [(wall, report) for wall, report, is_traced in blocks if is_traced]
        phases: dict[str, float] = {}
        for _, report in traced:
            for name, seconds in report.phase_seconds.items():
                phases[name] = phases.get(name, 0.0) + seconds
        return cls(
            steps=sum(r.n_steps for _, r in traced),
            wall=sum(w for w, _ in traced),
            phases=phases,
            builds=sum(r.neighbor_builds for _, r in traced),
            build_seconds=sum(r.neighbor_build_seconds for _, r in traced),
        )

    @property
    def overhead_ms_per_step(self) -> float:
        """Wall time the stepping loop spends outside its timed phases."""
        return 1e3 * (self.wall - sum(self.phases.values())) / self.steps


def traced_overhead_pct(blocks) -> float:
    """How much slower traced blocks ran than untraced ones, in percent."""
    plain = [(w, r.n_steps) for w, r, t in blocks if not t]
    traced = [(w, r.n_steps) for w, r, t in blocks if t]
    if not plain or not traced:
        return 0.0
    return 100.0 * (1.0 - summed_rate(traced) / summed_rate(plain))
