"""``serve_mixed``: the batched ``ServingEngine`` fed small copper clusters.

Three phases, one engine (fp64, compressed tables):

* **trickle** — open-loop Poisson energy one-shots at a fixed low rate, well
  under the throughput knee, so latency is set by the admission window.
  Each request is timed from when it was due to when the engine fulfilled
  it, so a stalled generator shows up as latency.  A rate near the knee
  was measured to swing its p50 by 2x between runs, too wide to gate on.
  The requests come in slices spread through the run, so that a slow spell
  of a shared host falls on one slice rather than on the whole phase.
* **flood** — energy one-shots submitted all at once: neighbour build,
  packing and ``evaluate_many`` share the work.
* **bursts** — short MD bursts submitted all at once: the same layers, but
  packing and neighbour builds run every step on the compute thread.

Flood and burst rounds alternate until the run's time is used, with the
output checks between them; a rate is the work of all untraced rounds of
one kind over their summed time.  Clusters are compact grid fragments, as
in ``benchmarks/bench_serving_throughput.py``: every atom has a neighbour
within the cutoff.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

import repro.serving.engine as serving_engine
from repro.deepmd import DeepPotential, DeepPotentialConfig
from repro.deepmd.model import BatchModelOutput
from repro.md.atoms import Atoms
from repro.md.box import Box
from repro.serving import ServingEngine, evaluate_serial, prepare_system, run_bursts_serial

from .common import Result, own_peak_rss_mb, summed_rate, timed_setup
from .stats import latency_summary, percentile
from .spans import Tracer, totals_by_name, union_length

N_TRICKLE = 1000  # enough for a p99 with ten samples beyond it
TRICKLE_RATE = 200.0  # requests/s, well under the flood rate
TRICKLE_SLICES = 4
CLUSTER_SIZES = np.arange(3, 17)
FLOOD_SYSTEMS = 1022  # 73 of each cluster size
N_BURSTS = 140  # 10 of each cluster size, so a round times several full batches
BURST_STEPS = 10
TIMESTEP_FS = 1.0
MIN_ROUND_SECONDS = 4.0
SETUP_REPEATS = 9
TIMEOUT_S = 60.0
PARITY_ATOL = 1.0e-10


def make_model() -> DeepPotential:
    config = DeepPotentialConfig(
        type_names=("Cu",),
        cutoff=4.5,
        cutoff_smooth=3.5,
        embedding_sizes=(6, 12),
        axis_neurons=4,
        fitting_sizes=(16, 16),
        max_neighbors=16,
        seed=9,
    )
    return DeepPotential(config)


def make_cluster(rng, n: int):
    """An ``n``-atom fragment of a jittered 2.4 A cubic grid in open space."""
    grid = np.stack(np.meshgrid(*[np.arange(3)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    positions = grid[:n] * 2.4 + rng.normal(scale=0.15, size=(n, 3)) + 2.0
    atoms = Atoms(positions=positions, types=np.zeros(n, dtype=np.int64), masses=np.full(n, 63.546))
    return atoms, Box.cubic(40.0, periodic=False)


def _clusters(rng, count: int):
    """``count`` clusters cycling evenly through the 3-16 atom sizes, in seeded order.

    Every round then carries the same total work, so round-to-round changes
    in throughput are the program's, not the input mix's.
    """
    sizes = rng.permutation(np.resize(CLUSTER_SIZES, count))
    return [make_cluster(rng, int(n)) for n in sizes]


def trickle_inputs(seed: int):
    """The trickle slices: each its arrival offsets (s, from the slice's start) and clusters."""
    rng = np.random.default_rng([seed, 0])
    gaps = rng.exponential(1.0 / TRICKLE_RATE, N_TRICKLE)
    systems = _clusters(rng, N_TRICKLE)
    edges = np.linspace(0, N_TRICKLE, TRICKLE_SLICES + 1).astype(int)
    return [(np.cumsum(gaps[a:b]), systems[a:b]) for a, b in zip(edges[:-1], edges[1:])]


def flood_inputs(seed: int, round_index: int):
    return _clusters(np.random.default_rng([seed, 1, round_index]), FLOOD_SYSTEMS)


def burst_inputs(seed: int, round_index: int):
    """``(atoms, box, n_steps, timestep_fs)`` bursts with thermal velocities."""
    rng = np.random.default_rng([seed, 2, round_index])
    bursts = []
    for atoms, box in _clusters(rng, N_BURSTS):
        atoms.initialize_velocities(300.0, rng=int(rng.integers(2**31)))
        bursts.append((atoms, box, BURST_STEPS, TIMESTEP_FS))
    return bursts


class FulfilLog:
    """When each request was fulfilled, read at the engine's ``stats.record_batch``.

    The engine records a batch right before fulfilling its futures, passing
    the completion time and the admitted requests; wrapping that public call
    gives each request's fulfil time, admission wait and batch id.
    """

    def __init__(self, stats) -> None:
        self.done: dict[object, tuple[float, int]] = {}
        self.waits: list[float] = []
        self.batch_sizes: list[int] = []
        original = stats.record_batch

        def record_batch(requests, t_done):
            original(requests, t_done)
            batch = len(self.batch_sizes)
            self.batch_sizes.append(len(requests))
            for request in requests:
                self.done[request.future] = (t_done, batch)
                self.waits.append(request.t_admit - request.t_submit)

        stats.record_batch = record_batch

    def take(self, futures) -> list[tuple[float, int]]:
        """``(t_done, batch)`` of each fulfilled future, forgetting them."""
        return [self.done.pop(f) for f in futures if f in self.done]


def _build():
    model = make_model()
    engine = ServingEngine(model).start()
    log = FulfilLog(engine.stats)
    rng = np.random.default_rng(0)
    warm = [engine.submit(*make_cluster(rng, int(n))) for n in CLUSTER_SIZES]
    atoms, box = make_cluster(rng, 8)
    warm.append(engine.submit_md(atoms, box, 2, TIMESTEP_FS))
    for future in warm:
        future.result(TIMEOUT_S)
    return engine, log


def _collect(futures, failures) -> list:
    """Each future's result, or ``None`` (and a failure) when it raised or timed out."""
    results = []
    for future in futures:
        try:
            results.append(future.result(TIMEOUT_S))
        except Exception as exc:  # noqa: BLE001 - every failed request is counted
            failures.append(repr(exc))
            results.append(None)
    return results


def _trickle(engine, log, offsets, systems, failures):
    """One slice of open-loop Poisson one-shots.

    Returns the results, ``(due, done, batch)`` of each fulfilled request,
    the generator's lags and the requests' admission waits.
    """
    n_waits = len(log.waits)
    futures, dues, lags = [], [], []
    t0 = time.perf_counter() + 0.01
    for offset, (atoms, box) in zip(offsets, systems):
        due = t0 + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lags.append(time.perf_counter() - due)
        futures.append(engine.submit(atoms, box))
        dues.append(due)
    results = _collect(futures, failures)
    fulfilled = [(due, *log.done.pop(f)) for f, due in zip(futures, dues) if f in log.done]
    return results, fulfilled, lags, log.waits[n_waits:]


def _round(engine, log, kind, inputs, failures):
    """One flood or burst round: results, seconds and work (systems or system-steps)."""
    start = time.perf_counter()
    if kind == "flood":
        futures = [engine.submit(atoms, box) for atoms, box in inputs]
        work = len(inputs)
    else:
        futures = [engine.submit_md(*burst) for burst in inputs]
        work = sum(n_steps for _, _, n_steps, _ in inputs)
    results = _collect(futures, failures)
    ends = [t_done for t_done, _ in log.take(futures)]
    if not ends:  # every request failed: time spent, no work done
        return results, time.perf_counter() - start, 0
    return results, max(ends) - start, work


def _tracer(model) -> Tracer:
    tracer = Tracer()
    tracer.wrap(serving_engine, "build_neighbor_data", "serving.engine.prep_neigh")
    tracer.wrap(serving_engine, "pack_systems", "serving.batch.pack")
    tracer.wrap(model, "build_environment", "deepmd.envmat")
    tracer.wrap(model, "evaluate_many", "deepmd.model.evaluate_many")
    tracer.wrap(BatchModelOutput, "split", "serving.engine.split")
    return tracer


def _one_shots_mismatched(model, systems, results) -> int:
    """One-shots that differ from ``evaluate_serial`` by more than PARITY_ATOL."""
    table = model.compressed_embeddings()
    bad = 0
    for (atoms, box), got in zip(systems, results):
        if got is None:
            continue
        ref = evaluate_serial(model, [prepare_system(model, atoms, box)], compressed=True, compression_table=table)[0]
        bad += not (
            abs(got.energy - ref.energy) <= PARITY_ATOL
            and np.abs(got.forces - ref.forces).max() <= PARITY_ATOL
            and np.abs(got.virial - ref.virial).max() <= PARITY_ATOL
        )
    return bad


def _bursts_mismatched(model, bursts, results) -> int:
    """Bursts whose trajectory differs from ``run_bursts_serial`` by more than PARITY_ATOL."""
    refs = run_bursts_serial(model, bursts, compressed=True, compression_table=model.compressed_embeddings())
    bad = 0
    for (state, energies), got in zip(refs, results):
        if got is None:
            continue
        bad += not (
            np.abs(got.atoms.positions - state.positions).max() <= PARITY_ATOL
            and np.abs(got.energies - np.asarray(energies)).max() <= PARITY_ATOL
        )
    return bad


def run(seed: int, seconds: float, trace: bool) -> Result:
    (engine, log), setup_s = timed_setup(_build, SETUP_REPEATS, close=lambda built: built[0].stop())
    model = engine.model
    tracer = _tracer(model) if trace else None
    failures: list[str] = []
    rates = {("flood", False): [], ("bursts", False): [], ("flood", True): [], ("bursts", True): []}
    traced_wall = 0.0
    traced_batches: list[int] = []
    slices = trickle_inputs(seed)
    fulfilled, lags, trickle_waits = [], [], []
    attempted = mismatched = 0
    try:
        # rounds run until their own timed seconds are used, and a trickle
        # slice starts each equal share of them; the checks are outside the
        # timed windows
        budget = max(seconds - N_TRICKLE / TRICKLE_RATE, MIN_ROUND_SECONDS)
        timed = 0.0
        r = 0
        while timed < budget or r < 4 or slices:
            if slices and timed >= budget * (TRICKLE_SLICES - len(slices)) / TRICKLE_SLICES:
                offsets, systems = slices.pop(0)
                gc.collect()  # the benchmark's own garbage is not the program's to collect
                results, done, late, waits = _trickle(engine, log, offsets, systems, failures)
                fulfilled += done
                lags += late
                trickle_waits += waits
                attempted += len(systems)
                mismatched += _one_shots_mismatched(model, systems, results)
            traced = trace and (r // 2) % 2 == 1
            for kind in ("flood", "bursts"):
                inputs = flood_inputs(seed, r) if kind == "flood" else burst_inputs(seed, r)
                n_batches = len(log.batch_sizes)
                gc.collect()
                start = time.perf_counter()
                if traced:
                    with tracer.installed():
                        round_results, took, work = _round(engine, log, kind, inputs, failures)
                    traced_wall += time.perf_counter() - start
                    traced_batches += log.batch_sizes[n_batches:]
                else:
                    round_results, took, work = _round(engine, log, kind, inputs, failures)
                timed += time.perf_counter() - start
                rates[(kind, traced)].append((took, work))
                attempted += len(inputs)
                check = _one_shots_mismatched if kind == "flood" else _bursts_mismatched
                mismatched += check(model, inputs, round_results)
            r += 1
        peak = own_peak_rss_mb()
    finally:
        engine.stop()

    failed = len(failures) + mismatched
    lat = latency_summary([done - due for due, done, _ in fulfilled])
    end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": peak,
        "steps_per_s": summed_rate(rates[("bursts", False)]),
        "systems_per_s": summed_rate(rates[("flood", False)]),
        "latency_ms_p50": lat["p50_ms"],
        "latency_ms_p90": lat["p90_ms"],
        "latency_ms_p99": lat["p99_ms"],
    }
    report = [
        f"serve_mixed: trickle {N_TRICKLE} requests at {TRICKLE_RATE:.0f}/s in {TRICKLE_SLICES} slices, "
        f"latency n={lat['n']} p50 {lat['p50_ms']:.2f} ms, p90 {lat['p90_ms']:.2f} ms, "
        f"p99 {lat['p99_ms']:.2f} ms (highest supported p{lat['supported']}); "
        f"{r} flood+burst round pairs ({FLOOD_SYSTEMS} systems, {N_BURSTS} bursts x {BURST_STEPS} steps)",
        f"check: every one-shot vs evaluate_serial and every burst vs run_bursts_serial at "
        f"{PARITY_ATOL:.0e}: {mismatched} mismatched, {len(failures)} failed of {attempted}",
        *failures[:5],
    ]
    per_layer = {}
    if trace:
        for due, done, batch in fulfilled:
            tracer.span("serving.request", due, done, batch)
        per_layer = _per_layer(tracer, traced_wall, traced_batches, trickle_waits, lags, rates)
        report.append(f"traced: {len(traced_batches)} batches over {traced_wall:.2f} s of flood/burst rounds")
    return Result(end_to_end, per_layer, attempted, failed, failed == 0, report, tracer)


def _per_layer(tracer, traced_wall, traced_batches, trickle_waits, lags, rates):
    spans = totals_by_name(tracer.spans)
    n_eval = max(spans.get("deepmd.model.evaluate_many", {}).get("calls", 0), 1)

    def per_batch(name, key="self"):
        return 1e3 * spans.get(name, {}).get(key, 0.0) / n_eval

    compute_busy = union_length(
        (s.start, s.end) for s in tracer.spans if s.thread == "serving-compute"
    )
    flood_plain = summed_rate(rates[("flood", False)])
    flood_traced = summed_rate(rates[("flood", True)])
    return {
        "serving.queue.wait_ms_p50": 1e3 * percentile(trickle_waits, 50.0),
        "serving.queue.batch_size_mean": statistics.fmean(traced_batches),
        "serving.engine.prep_neigh_ms_per_batch": per_batch("serving.engine.prep_neigh"),
        "serving.batch.pack_ms_per_batch": per_batch("serving.batch.pack"),
        "deepmd.envmat.ms_per_batch": per_batch("deepmd.envmat"),
        "deepmd.model.evaluate_many_ms_per_batch": per_batch("deepmd.model.evaluate_many"),
        "serving.engine.split_ms_per_batch": per_batch("serving.engine.split"),
        "serving.engine.compute_idle_frac": 1.0 - compute_busy / traced_wall,
        "loadgen.lag_ms_p99": 1e3 * percentile(lags, 99.0),
        "trace.overhead_pct": 100.0 * (1.0 - flood_traced / flood_plain),
    }
