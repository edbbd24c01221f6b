"""``md_lj_ranks``: domain-decomposed LJ copper on a 2x2x1 rank grid.

The decomposition path with no Deep Potential work: node-based ghost
delivery, node-box load balance and the process executor with two workers
(one BLAS thread each, so two busy processes).  At 4000 atoms each rank
holds about 3000 ghosts and the per-rank neighbour rebuilds every fifth step
take most of the wall time; communication, migration and executor dispatch
take the rest.
"""

from __future__ import annotations

import numpy as np

from repro.md import LennardJones, copper_system
from repro.parallel import DomainDecomposedSimulation, IntraNodeLoadBalancer
from repro.perfmodel import plan_with_measured_volume

from .common import (
    Result,
    TracedTotals,
    differenced_block,
    md_end_to_end,
    own_peak_rss_mb,
    run_md_blocks,
    timed_setup,
    traced_overhead_pct,
    worker_peak_rss_mb,
)
from .spans import Tracer, totals_by_name

N_CELLS = (10, 10, 10)  # 4000 atoms
N_WORKERS = 2
STEPS_PER_BLOCK = 10
SETUP_REPEATS = 5
CHECK_STEPS = 10
EXECUTOR_STAGES = ("publish_positions", "rebuild", "prepare", "finish")


def make_inputs(seed: int):
    """The perturbed FCC copper block and its velocities, drawn from ``seed``."""
    atoms, box = copper_system(N_CELLS, perturbation=0.05, rng=seed)
    atoms.initialize_velocities(300.0, rng=seed + 1)
    return atoms, box


def _engine(atoms, box, executor: str) -> DomainDecomposedSimulation:
    return DomainDecomposedSimulation(
        atoms.copy(),
        box,
        LennardJones(0.05, 2.3, 5.0),
        timestep_fs=2.0,
        rank_dims=(2, 2, 1),
        scheme="node-based",
        neighbor_skin=0.4,
        neighbor_every=5,
        node_balance=True,
        executor=executor,
        n_workers=N_WORKERS if executor == "process" else None,
    )


def _build(atoms, box) -> DomainDecomposedSimulation:
    engine = _engine(atoms, box, "process")
    engine.run(1, sample_every=0)  # first exchange, rebuild and worker warm-up
    return engine


def _check(atoms, box):
    """Process executor == sequential executor, bitwise, over a short prefix."""
    with _engine(atoms, box, "sequential") as golden, _engine(atoms, box, "process") as concurrent:
        golden.run(CHECK_STEPS, sample_every=0)
        concurrent.run(CHECK_STEPS, sample_every=0)
        ref, got = golden.gather(), concurrent.gather()
    try:
        np.testing.assert_array_equal(got.positions, ref.positions)
        np.testing.assert_array_equal(got.forces, ref.forces)
    except AssertionError as exc:
        return False, f"check: process != sequential after {CHECK_STEPS} steps: {exc}"
    return True, f"check: process == sequential executor bitwise after {CHECK_STEPS} steps"


def _tracer(engine) -> Tracer:
    tracer = Tracer()
    for stage in EXECUTOR_STAGES:
        tracer.wrap(engine._executor, stage, f"parallel.executor.{stage}")
    tracer.wrap(engine.integrator, "first_half", "md.integrators")
    tracer.wrap(engine.integrator, "second_half", "md.integrators")
    return tracer


def _counters(engine) -> np.ndarray:
    """Ghost bytes, messages, migrations, builds, then per-rank neighbour and pair seconds."""
    return np.array(
        [
            engine.comm_bytes_forward + engine.comm_bytes_reverse,
            engine.comm_messages,
            engine.n_migrated,
            engine.n_builds,
            *engine.neighbor_build_times(),
            *(domain.pair_seconds for domain in engine.domains),
        ],
        dtype=float,
    )


def run(seed: int, seconds: float, trace: bool) -> Result:
    atoms, box = make_inputs(seed)
    engine, setup_s = timed_setup(lambda: _build(atoms, box), SETUP_REPEATS, close=lambda e: e.close())
    try:
        tracer = _tracer(engine) if trace else None
        counters = np.zeros_like(_counters(engine))
        block = differenced_block(tracer, lambda: _counters(engine), counters) if trace else None
        blocks, step_seconds = run_md_blocks(engine, STEPS_PER_BLOCK, seconds, trace_block=block)
        peak = own_peak_rss_mb() + worker_peak_rss_mb()
        per_layer, lines = _per_layer(engine, tracer, counters, blocks) if trace else ({}, [])
    finally:
        engine.close()
    ok, check_line = _check(atoms, box)
    steps = sum(r.n_steps for _, r, _ in blocks)
    end_to_end = md_end_to_end(blocks, step_seconds, setup_s, peak)
    report = [
        f"md_lj_ranks: {len(atoms)} atoms on 2x2x1 ranks, {N_WORKERS} workers, {steps} steps, "
        f"{len(step_seconds)} untraced step samples",
        check_line,
        *lines,
    ]
    return Result(end_to_end, per_layer, steps, 0 if ok else steps, ok, report, tracer)


def _per_layer(engine, tracer, counters, blocks):
    totals = TracedTotals.of(blocks)
    steps, wall = totals.steps, totals.wall
    n_ranks = engine.n_ranks
    ghost_bytes, messages, migrated, builds = counters[:4]
    rank_neigh = counters[4 : 4 + n_ranks]
    rank_pair = counters[4 + n_ranks :]
    spans = totals_by_name(tracer.spans)
    executor_s = sum(spans.get(f"parallel.executor.{s}", {}).get("total", 0.0) for s in EXECUTOR_STAGES)
    rebuild_s = spans.get("parallel.executor.rebuild", {}).get("total", 0.0)
    # a worker runs its contiguous run of ranks one after another
    busiest = max(float((rank_neigh + rank_pair)[ranks].sum()) for ranks in np.array_split(np.arange(n_ranks), N_WORKERS))
    per_build = max(builds, 1.0)
    pair_sdmr = float(rank_pair.std() / rank_pair.mean() * 100.0) if rank_pair.mean() > 0 else 0.0
    per_layer = {
        "md.neighbor.builds": builds,
        "md.neighbor.ms_per_build": 1e3 * totals.build_seconds / per_build,
        "md.integrators.ms_per_step": 1e3 * spans.get("md.integrators", {}).get("self", 0.0) / steps,
        "md.stepping.overhead_ms_per_step": totals.overhead_ms_per_step,
        "parallel.engine.comm_ms_per_step": 1e3 * totals.phases.get("comm", 0.0) / steps,
        "parallel.engine.ghost_bytes_per_step": ghost_bytes / steps,
        "parallel.engine.messages_per_step": messages / steps,
        "parallel.engine.migrated_per_rebuild": migrated / per_build,
        "parallel.executor.rebuild_ms_per_build": 1e3 * rebuild_s / per_build,
        "parallel.executor.worker_neigh_ms_per_build": 1e3 * float(rank_neigh.max()) / per_build,
        "parallel.executor.pair_ms_per_step": 1e3 * float(rank_pair.max()) / steps,
        "parallel.executor.wait_ms_per_step": 1e3 * (executor_s - busiest) / steps,
        "parallel.loadbalance.pair_sdmr": pair_sdmr,
        "trace.overhead_pct": traced_overhead_pct(blocks),
    }

    volume = engine.measured_comm_volume()
    measured_sdmr = engine.load_balance_stats().atom_stats().sdmr_percent
    predicted = IntraNodeLoadBalancer(engine.decomposition).compare(
        engine.gather().positions, per_atom_time=1e-4, jitter_fraction=0.0
    )
    lines = [
        f"traced: {steps} steps, {int(builds)} rebuilds over {wall:.2f} s",
        f"ghost exchange measured: {volume['forward_bytes_per_rank']:.0f} B/rank/exchange, "
        f"{ghost_bytes / steps:.0f} B and {messages / steps:.1f} messages per step",
    ]
    for scheme in ("lb-4l", "p2p-utofu"):
        plan = engine.modelled_plan(scheme)
        if plan.total_message_bytes > 0:
            scaled = plan_with_measured_volume(plan, volume["forward_bytes_per_rank"])
            lines.append(
                f"  {scheme} plan: modelled {plan.total_message_bytes:.0f} B in {plan.n_messages} "
                f"messages, rescaled to the measured volume {scaled.total_message_bytes:.0f} B"
            )
        else:
            lines.append(f"  {scheme} plan: no inter-node messages (the rank grid fits one node)")
    lines.append(
        f"node-box atom SDMR: measured {measured_sdmr:.2f}%, IntraNodeLoadBalancer predicts "
        f"{predicted['yes'].atom_stats().sdmr_percent:.2f}% "
        f"(owner-computes {predicted['no'].atom_stats().sdmr_percent:.2f}%)"
    )
    return per_layer, lines
