"""The serving engine: admission batching plus a two-stage async pipeline.

:class:`ServingEngine` turns a :class:`~repro.deepmd.model.DeepPotential`
into a request server for many small independent systems:

* **Admission batching** — requests coalesce under the
  :class:`~repro.serving.queue.AdmissionQueue` window (max-batch-size /
  max-wait-ms) so concurrent one-shots share one fused evaluation.
* **Per-model caches** — the compressed Hermite tables, their packed
  low-precision copies and the per-``(type, dtype)`` standardization stats
  are built once at engine construction and shared across every request the
  engine ever serves (probed by ``tests/test_serving.py`` via
  ``table_cache_builds`` / ``packed_cache_builds`` / ``lp_cache_builds``).
* **Prep/compute overlap** — a prep thread admits the next batch, builds its
  neighbour lists and packs its environments while the compute thread runs
  the fused kernels on the current batch.  Each in-flight batch packs into
  its own :meth:`~repro.md.workspace.Workspace.scoped` pipeline slot, so the
  pool buffers of batch ``k+1`` never alias the ones batch ``k`` is reading.

Two request kinds are served: ``energy`` one-shots (energies, forces and a
per-system virial for one configuration) and ``md`` bursts (a short
velocity-verlet run; the burst group steps in lockstep with one fused force
evaluation per step).  The synchronous :meth:`ServingEngine.evaluate_batch`
exposes the pack-evaluate-split path without threads for tests, benchmarks
and embedding into existing drivers.
"""

from __future__ import annotations

import queue as _queue
import threading
import time

import numpy as np

from ..deepmd.gemm import GemmBackend
from ..deepmd.precision import DOUBLE, get_policy
from ..md.integrators import VelocityVerlet
from ..md.neighbor import build_neighbor_data
from ..md.workspace import Workspace
from .batch import pack_systems
from .queue import AdmissionQueue, BurstResult, ServingRequest, ServingStats

__all__ = ["NonFiniteInputError", "ServingEngine"]

#: Pipeline slots cycled by the prep stage.  Three are needed for full
#: overlap: one batch being computed, one waiting in the hand-off queue and
#: one being packed — with two, the prep stage could start repacking the slot
#: the compute stage is still reading.
_N_SLOTS = 3

_STOP = object()


class NonFiniteInputError(ValueError):
    """A submitted system has a NaN or infinite position or velocity.

    Raised by :meth:`ServingEngine.submit` / :meth:`ServingEngine.submit_md`
    before the request is queued.  Without the check such a system would
    come back with a *finite* energy: the environment-matrix build drops
    every slot whose distance is NaN, so the bad atom silently vanishes.
    """


def _require_finite(atoms, fields) -> None:
    for name in fields:
        bad = ~np.isfinite(getattr(atoms, name)).all(axis=1)
        if bad.any():
            raise NonFiniteInputError(
                f"non-finite {name} for atom(s) {np.flatnonzero(bad)[:8].tolist()}"
            )


class ServingEngine:
    """Serve energy/force one-shots and MD bursts over one shared model."""

    def __init__(
        self,
        model,
        precision=DOUBLE,
        compressed: bool = True,
        compression_points: int = 2048,
        compression_min_distance: float = 0.5,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        use_workspace: bool = True,
        backend: GemmBackend | None = None,
    ) -> None:
        self.model = model
        self.policy = get_policy(precision)
        self.compressed = bool(compressed)
        self.backend = backend or GemmBackend()
        self.stats = ServingStats()

        # Per-model caches, built once per engine and shared by every
        # request: the compressed table (keyed on the model's kernel
        # generation), its packed low-precision copy when the policy computes
        # below fp64, and — warmed lazily by the first evaluation — the
        # per-(type, dtype) standardization stats and low-precision layer
        # caches inside the model itself.
        self._table = None
        if self.compressed:
            self._table = model.compressed_embeddings(
                n_points=compression_points, min_distance=compression_min_distance
            )
            if np.dtype(self.policy.compute_dtype) != np.float64:
                self._table.ensure_packed(self.policy.compute_dtype)

        self._workspace = Workspace() if use_workspace else None
        if self._workspace is not None:
            self._slots = [
                self._workspace.scoped(f"serve.slot{i}") for i in range(_N_SLOTS)
            ]
        else:
            self._slots = [None] * _N_SLOTS

        self._queue = AdmissionQueue(max_batch_size=max_batch_size, max_wait_ms=max_wait_ms)
        # depth-1 hand-off: prep may run at most one batch ahead of compute
        self._handoff: _queue.Queue = _queue.Queue(maxsize=1)
        self._prep_thread: threading.Thread | None = None
        self._compute_thread: threading.Thread | None = None
        self._running = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServingEngine":
        if self._running:
            return self
        self._running = True
        self._prep_thread = threading.Thread(target=self._prep_loop, name="serving-prep", daemon=True)
        self._compute_thread = threading.Thread(target=self._compute_loop, name="serving-compute", daemon=True)
        self._prep_thread.start()
        self._compute_thread.start()
        return self

    def stop(self) -> None:
        if not self._running:
            return
        self._queue.close()
        if self._prep_thread is not None:
            self._prep_thread.join()
        self._handoff.put(_STOP)
        if self._compute_thread is not None:
            self._compute_thread.join()
        self._running = False

    def __enter__(self) -> "ServingEngine":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # client surface
    # ------------------------------------------------------------------
    def submit(self, atoms, box):
        """Queue an energy/force one-shot; returns a ServingFuture of ModelOutput.

        Raises :class:`NonFiniteInputError` for a NaN or infinite position.
        """
        atoms = atoms.copy()
        _require_finite(atoms, ("positions",))
        request = ServingRequest(kind="energy", atoms=atoms, box=box)
        return self._queue.submit(request)

    def submit_md(self, atoms, box, n_steps: int, timestep_fs: float):
        """Queue a short MD burst; returns a ServingFuture of BurstResult.

        Raises :class:`NonFiniteInputError` for a NaN or infinite position or
        velocity.
        """
        atoms = atoms.copy()
        _require_finite(atoms, ("positions", "velocities"))
        request = ServingRequest(
            kind="md",
            atoms=atoms,
            box=box,
            n_steps=int(n_steps),
            timestep_fs=float(timestep_fs),
        )
        return self._queue.submit(request)

    def evaluate_batch(self, systems, workspace=None):
        """Synchronous pack → fused evaluate for prepared ``(atoms, box, neighbors)`` triples."""
        if workspace is None:
            workspace = self._slots[0]
        batch = pack_systems(self.model, systems, workspace=workspace)
        return self.model.evaluate_many(
            batch.env,
            batch.system_of_atom,
            batch.offsets,
            precision=self.policy,
            backend=self.backend,
            compressed=self.compressed,
            compression_table=self._table,
            workspace=workspace,
        )

    def cache_probe(self) -> dict:
        """Cache-build counters for the cross-request reuse tests."""
        lp_builds = sum(net.lp_cache_builds for net in self.model.fast_embeddings().values())
        lp_builds += sum(net.lp_cache_builds for net in self.model.fast_fittings().values())
        return {
            "table_cache_builds": self.model.table_cache_builds,
            "packed_cache_builds": 0 if self._table is None else self._table.packed_cache_builds,
            "lp_cache_builds": lp_builds,
            "standardization_entries": len(self.model._lp_standardization),
            "table_id": id(self._table),
        }

    # ------------------------------------------------------------------
    # pipeline stages
    # ------------------------------------------------------------------
    def _prepare(self, atoms, box):
        neighbors = build_neighbor_data(atoms.positions, box, self.model.config.cutoff)
        return atoms, box, neighbors

    def _prep_loop(self) -> None:
        slot_index = 0
        while True:
            admitted = self._queue.admit()
            if admitted is None:
                return
            if not admitted:
                continue
            slot = self._slots[slot_index % _N_SLOTS]
            slot_index += 1
            kind = admitted[0].kind
            try:
                if kind == "energy":
                    systems = [self._prepare(r.atoms, r.box) for r in admitted]
                    batch = pack_systems(self.model, systems, workspace=slot)
                else:
                    batch = None  # MD bursts pack per step inside the compute stage
                self._handoff.put(("ok", kind, admitted, batch, slot))
            except BaseException as exc:  # noqa: BLE001 - forwarded to futures
                self._handoff.put(("error", kind, admitted, exc, slot))

    def _compute_loop(self) -> None:
        while True:
            item = self._handoff.get()
            if item is _STOP:
                return
            status, kind, admitted, payload, slot = item
            if status == "error":
                for request in admitted:
                    request.future.set_exception(payload)
                continue
            try:
                if kind == "energy":
                    self._compute_energy(admitted, payload, slot)
                else:
                    self._compute_bursts(admitted, slot)
            except BaseException as exc:  # noqa: BLE001 - forwarded to futures
                for request in admitted:
                    if not request.future.done():
                        request.future.set_exception(exc)

    def _compute_energy(self, admitted, batch, slot) -> None:
        out = self.model.evaluate_many(
            batch.env,
            batch.system_of_atom,
            batch.offsets,
            precision=self.policy,
            backend=self.backend,
            compressed=self.compressed,
            compression_table=self._table,
            workspace=slot,
        )
        # split() copies out of the pool buffers, so fulfilled results stay
        # valid after the slot is repacked
        outputs = out.split()
        t_done = time.perf_counter()
        self.stats.record_batch(admitted, t_done)
        for request, output in zip(admitted, outputs):
            request.future.set_result(output)

    def _compute_bursts(self, admitted, slot) -> None:
        """Advance the burst group in lockstep, one fused evaluation per step.

        Mirrors :func:`repro.serving.serial.run_bursts_serial` step for step:
        velocity-verlet first half, neighbour rebuild, fused force
        evaluation, second half.  Systems whose ``n_steps`` are done drop out
        of the group; the remaining ones keep batching.
        """
        states = [request.atoms for request in admitted]
        integrators = [VelocityVerlet(request.timestep_fs) for request in admitted]
        targets = [request.n_steps for request in admitted]
        energies: list[list[float]] = [[] for _ in admitted]

        def fused_forces(live):
            systems = [self._prepare(states[i], admitted[i].box) for i in live]
            batch = pack_systems(self.model, systems, workspace=slot)
            out = self.model.evaluate_many(
                batch.env,
                batch.system_of_atom,
                batch.offsets,
                precision=self.policy,
                backend=self.backend,
                compressed=self.compressed,
                compression_table=self._table,
                workspace=slot,
            )
            for k, i in enumerate(live):
                rows = batch.system_slice(k)
                states[i].forces = out.forces[rows].copy()
            return out

        everyone = list(range(len(admitted)))
        if everyone:
            # initial forces for every burst (n_steps == 0 included), matching
            # the serial reference which always evaluates once before stepping
            fused_forces(everyone)
        live = [i for i in everyone if targets[i] > 0]
        done = 0
        while live:
            for i in live:
                integrators[i].first_half(states[i], admitted[i].box)
            out = fused_forces(live)
            for k, i in enumerate(live):
                energies[i].append(float(out.energies[k]))
            for i in live:
                integrators[i].second_half(states[i], admitted[i].box)
            done += 1
            live = [i for i in live if done < targets[i]]

        t_done = time.perf_counter()
        self.stats.record_batch(admitted, t_done)
        for i, request in enumerate(admitted):
            request.future.set_result(
                BurstResult(
                    atoms=states[i],
                    energies=np.asarray(energies[i]),
                    n_steps=targets[i],
                )
            )
