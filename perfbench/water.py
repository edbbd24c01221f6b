"""``md_dp_water``: serial compressed water Deep Potential MD under MIX-fp32.

The paper's production path: one ``Simulation`` whose step time is almost
entirely the Deep Potential kernels (env-matrix, Hermite table, descriptor,
chain and scatter inside ``evaluate``; the fitting MLPs are small).  Model
shape and neighbour settings follow ``benchmarks/bench_table2_precision.py``
at 216 molecules (648 atoms), so a run gives enough steps for a median.
"""

from __future__ import annotations

import numpy as np

from repro.deepmd import DeepPotential, DeepPotentialConfig
from repro.deepmd.pair_style import DeepPotentialForceField
from repro.md import Simulation, water_system
from repro.md.neighbor import build_neighbor_data
from repro.perfmodel import KernelCostModel

from .common import (
    Result,
    TracedTotals,
    differenced_block,
    md_end_to_end,
    own_peak_rss_mb,
    run_md_blocks,
    timed_setup,
    traced_overhead_pct,
)
from .spans import Tracer, totals_by_name

N_MOLECULES = 216
N_POINTS = 512
PRECISION = "mix-fp32"
STEPS_PER_BLOCK = 5
SETUP_REPEATS = 3
#: The documented compressed MIX-fp32 bounds against the fp64 compressed
#: path (tests/test_deepmd_vectorized_parity.py).
FORCE_ATOL = 5.0e-6
ENERGY_ATOL = 1.0e-5
MODEL_SEED = 7


def make_inputs(seed: int):
    """The water box and its initial velocities, all drawn from ``seed``."""
    atoms, box, _ = water_system(N_MOLECULES, rng=seed)
    atoms.initialize_velocities(120.0, rng=seed + 1)
    return atoms, box


def make_model() -> DeepPotential:
    config = DeepPotentialConfig(
        type_names=("O", "H"),
        cutoff=6.0,
        cutoff_smooth=5.0,
        embedding_sizes=(32, 64, 128),
        axis_neurons=8,
        fitting_sizes=(32, 32),
        max_neighbors=100,
        seed=MODEL_SEED,
    )
    model = DeepPotential(config)
    rng = np.random.default_rng(MODEL_SEED)
    model.set_descriptor_stats(
        rng.normal(scale=0.1, size=(2, config.descriptor_dim)),
        0.5 + rng.random((2, config.descriptor_dim)),
    )
    model.set_energy_bias(np.array([-2.0, -0.5]))
    return model


def _build(atoms, box) -> Simulation:
    model = make_model()
    force_field = DeepPotentialForceField(
        model, precision=PRECISION, compressed=True, compression_points=N_POINTS
    )
    sim = Simulation(
        atoms.copy(), box, force_field, timestep_fs=0.25, neighbor_skin=1.5, neighbor_every=50
    )
    sim.run(1, sample_every=0)  # first step builds neighbours, pools and operand caches
    return sim


def _tracer(sim: Simulation) -> Tracer:
    model = sim.force_field.model
    tracer = Tracer()
    tracer.wrap(model, "evaluate", "deepmd.model")
    tracer.wrap(model, "build_environment", "deepmd.envmat")
    table = model.compressed_embeddings(n_points=N_POINTS)
    tracer.wrap(table, "evaluate_batched", "deepmd.compression", count=lambda slots, *a, **k: np.size(slots))
    for net in [*model.fast_embeddings().values(), *model.fast_fittings().values()]:
        tracer.wrap(net, "forward", "deepmd.networks")
        tracer.wrap(net, "backward_input", "deepmd.networks")
    tracer.wrap(sim.neighbor_list, "maybe_rebuild", "md.neighbor")
    tracer.wrap(sim.integrator, "first_half", "md.integrators")
    tracer.wrap(sim.integrator, "second_half", "md.integrators")
    return tracer


def _gemm_counts(stats) -> np.ndarray:
    """Flops, fp32 flops and cast bytes the GEMM backend has accounted so far."""
    return np.array([stats.flops, stats.flops_by_dtype.get("fp32", 0.0), stats.cast_bytes])


def _check(sim: Simulation):
    """MIX-fp32 against the fp64 compressed path on the final frame."""
    model = sim.force_field.model
    atoms, box = sim.atoms, sim.box
    neighbors = build_neighbor_data(atoms.positions, box, model.config.cutoff)
    table = model.compressed_embeddings(n_points=N_POINTS)
    mixed = model.evaluate(atoms, box, neighbors, precision=PRECISION, compressed=True, compression_table=table)
    golden = model.evaluate(atoms, box, neighbors, compressed=True, compression_table=table)
    finite = all(
        np.isfinite(a).all()
        for a in (atoms.positions, atoms.velocities, mixed.forces, mixed.per_atom_energy)
    )
    force_err = float(np.abs(mixed.forces - golden.forces).max())
    energy_err = float(np.abs(mixed.per_atom_energy - golden.per_atom_energy).max())
    ok = finite and force_err <= FORCE_ATOL and energy_err <= ENERGY_ATOL
    line = (
        f"check: MIX-fp32 vs fp64 compressed, max |dF| {force_err:.2e} (<= {FORCE_ATOL:.0e}), "
        f"max |dE_atom| {energy_err:.2e} (<= {ENERGY_ATOL:.0e}), finite {finite}"
    )
    return ok, line


def _modelled_shares(model) -> dict[str, float]:
    cfg = model.config
    flops = KernelCostModel(
        embedding_sizes=cfg.embedding_sizes,
        axis_neurons=cfg.axis_neurons,
        fitting_sizes=cfg.fitting_sizes,
        neighbors_per_atom=cfg.max_neighbors,
    ).per_atom_flops(compressed=True)
    parts = {
        "envmat": flops.environment,
        "compression": flops.embedding_forward + flops.embedding_backward,
        "model.self": flops.descriptor_forward + flops.descriptor_backward,
        "networks": flops.fitting_forward + flops.fitting_backward,
    }
    total = sum(parts.values())
    return {k: v / total for k, v in parts.items()}


def run(seed: int, seconds: float, trace: bool) -> Result:
    atoms, box = make_inputs(seed)
    sim, setup_s = timed_setup(lambda: _build(atoms, box), SETUP_REPEATS)
    stats = sim.force_field.backend.stats
    tracer = _tracer(sim) if trace else None
    gemm = np.zeros(3)
    block = differenced_block(tracer, lambda: _gemm_counts(stats), gemm) if trace else None
    blocks, step_seconds = run_md_blocks(sim, STEPS_PER_BLOCK, seconds, trace_block=block)
    ok, check_line = _check(sim)
    steps = sum(r.n_steps for _, r, _ in blocks)
    end_to_end = md_end_to_end(blocks, step_seconds, setup_s, own_peak_rss_mb())
    report = [
        f"md_dp_water: {len(atoms)} atoms, {steps} steps, "
        f"{len(step_seconds)} untraced step samples",
        check_line,
    ]
    per_layer = {}
    if trace:
        per_layer, lines = _per_layer(sim, tracer, gemm, blocks)
        report += lines
    return Result(end_to_end, per_layer, steps, 0 if ok else steps, ok, report, tracer)


def _per_layer(sim, tracer, gemm, blocks):
    totals = TracedTotals.of(blocks)
    steps, wall, builds = totals.steps, totals.wall, totals.builds
    spans = totals_by_name(tracer.spans)

    def self_ms(name):
        return 1e3 * spans.get(name, {}).get("self", 0.0) / steps

    overhead_ms = totals.overhead_ms_per_step
    layers = {
        "deepmd.envmat.ms_per_step": self_ms("deepmd.envmat"),
        "deepmd.compression.ms_per_step": self_ms("deepmd.compression"),
        "deepmd.networks.ms_per_step": self_ms("deepmd.networks"),
        "deepmd.model.self_ms_per_step": self_ms("deepmd.model"),
        "md.integrators.ms_per_step": self_ms("md.integrators"),
    }
    neighbor_ms = self_ms("md.neighbor")
    per_layer = {
        **layers,
        "deepmd.compression.rows_per_step": tracer.counters["deepmd.compression"] / steps,
        "deepmd.gemm.flops_per_step": gemm[0] / steps,
        "deepmd.gemm.fp32_flop_share": gemm[1] / gemm[0] if gemm[0] else 0.0,
        "deepmd.gemm.cast_bytes_per_step": gemm[2] / steps,
        "md.neighbor.builds": float(builds),
        "md.neighbor.ms_per_build": 1e3 * totals.build_seconds / builds if builds else 0.0,
        "md.stepping.overhead_ms_per_step": overhead_ms,
        "trace.overhead_pct": traced_overhead_pct(blocks),
    }
    wall_ms = 1e3 * wall / steps
    closure = (sum(layers.values()) + neighbor_ms + overhead_ms) / wall_ms
    modelled = _modelled_shares(sim.force_field.model)
    kernel_ms = {
        "envmat": layers["deepmd.envmat.ms_per_step"],
        "compression": layers["deepmd.compression.ms_per_step"],
        "model.self": layers["deepmd.model.self_ms_per_step"],
        "networks": layers["deepmd.networks.ms_per_step"],
    }
    kernel_total = sum(kernel_ms.values())
    lines = [
        f"traced: {steps} steps over {wall:.2f} s ({wall_ms:.2f} ms/step); layer self times + "
        f"neighbour + stepping overhead cover {100 * closure:.2f}% of it",
        "layer shares of the Deep Potential kernels: measured time vs KernelCostModel FLOPs",
    ]
    for key, share in modelled.items():
        lines.append(f"  {key:<12} measured {100 * kernel_ms[key] / kernel_total:5.1f}%   modelled {100 * share:5.1f}%")
    return per_layer, lines
