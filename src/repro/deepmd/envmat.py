"""Local environment matrices R_i for the DeepPot-SE descriptor.

For every centre atom i the environment matrix collects, for each neighbour j
within the cutoff, the row

    R_ij = [ s(r_ij),  s(r_ij) x_ij / r_ij,  s(r_ij) y_ij / r_ij,  s(r_ij) z_ij / r_ij ]

where d_ij = r_j - r_i (minimum image).  Rows are padded to a fixed maximum
neighbour count so all per-atom quantities are dense arrays.

The paper's kernel-simplification optimization ("reorganize the environment
matrix to pre-classify each type of atom") is reproduced by
``sort_neighbors_by_type=True``: neighbours are grouped by species so the
per-type embedding nets operate on contiguous slices instead of slicing and
concatenating intermediate matrices.

The build is two stable per-row sorts over the ``(n, width)`` neighbour-list
slots, with no Python-level per-atom loop.  The first sorts by distance and
keeps the ``max_neighbors`` closest in-cutoff slots.  The second, only with
``sort_neighbors_by_type``, groups those kept slots by species.  Stability
makes distance, then list-slot order, the tie-breaks, exactly as in the scalar
golden reference of :mod:`repro.deepmd.scalar`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..md.atoms import Atoms
from ..md.box import Box
from ..md.neighbor import NeighborData
from .smoothing import switching_derivative, switching_function

#: Sort key that places the padding (not kept) slots after every species.
_PAD_KEY = np.iinfo(np.int64).max


@dataclass
class LocalEnvironment:
    """Dense per-atom environment data (all arrays padded to ``max_neighbors``).

    Attributes
    ----------
    R:
        ``(n, N, 4)`` environment matrices.
    displacements:
        ``(n, N, 3)`` minimum-image vectors d_ij = r_j - r_i (0 for padding).
    distances:
        ``(n, N)`` |d_ij| (0 for padding).
    s, ds_dr:
        ``(n, N)`` switching function values and radial derivatives.
    mask:
        ``(n, N)`` 1.0 for real neighbours, 0.0 for padding.
    neighbor_indices:
        ``(n, N)`` neighbour atom indices (-1 for padding).
    neighbor_types:
        ``(n, N)`` neighbour species (-1 for padding).
    types:
        ``(n,)`` centre-atom species.
    cutoff, cutoff_smooth:
        the switching-function radii used.
    """

    R: np.ndarray
    displacements: np.ndarray
    distances: np.ndarray
    s: np.ndarray
    ds_dr: np.ndarray
    mask: np.ndarray
    neighbor_indices: np.ndarray
    neighbor_types: np.ndarray
    types: np.ndarray
    cutoff: float
    cutoff_smooth: float

    @property
    def n_atoms(self) -> int:
        return self.R.shape[0]

    @property
    def max_neighbors(self) -> int:
        return self.R.shape[1]

    def neighbor_counts(self) -> np.ndarray:
        return self.mask.sum(axis=1).astype(np.int64)

    def select(self, index) -> "LocalEnvironment":
        """Sub-environment for a subset of centre atoms (used per-type)."""
        return LocalEnvironment(
            R=self.R[index],
            displacements=self.displacements[index],
            distances=self.distances[index],
            s=self.s[index],
            ds_dr=self.ds_dr[index],
            mask=self.mask[index],
            neighbor_indices=self.neighbor_indices[index],
            neighbor_types=self.neighbor_types[index],
            types=self.types[index],
            cutoff=self.cutoff,
            cutoff_smooth=self.cutoff_smooth,
        )

    def compute_arrays(self, dtype, workspace=None, key: str = "") -> tuple[np.ndarray, np.ndarray]:
        """``(R, s)`` at the model's compute dtype.

        The environment matrix is always *built* in float64 (the invariant the
        precision policies document); the mixed-precision kernels read these
        once-downcast copies instead.  float64 returns the original arrays —
        no copy, so the golden path is untouched.  With a ``workspace`` the
        reduced copies live in named pool buffers (``env.cast.R/s.<key>``) and
        steady-state steps re-fill them without allocating.
        """
        dt = np.dtype(dtype)
        if dt == self.R.dtype:
            return self.R, self.s
        if workspace is not None:
            r_c = workspace.buffer(f"env.cast.R.{key}", self.R.shape, dtype=dt)
            s_c = workspace.buffer(f"env.cast.s.{key}", self.s.shape, dtype=dt)
            np.copyto(r_c, self.R)
            np.copyto(s_c, self.s)
            return r_c, s_c
        return self.R.astype(dt), self.s.astype(dt)


def build_local_environment(
    atoms: Atoms,
    box: Box,
    neighbors: NeighborData,
    cutoff: float,
    cutoff_smooth: float,
    max_neighbors: int | None = None,
    sort_neighbors_by_type: bool = True,
    workspace=None,
) -> LocalEnvironment:
    """Build the dense local environments of all atoms.

    ``neighbors`` may have been built with a larger search radius (cutoff +
    skin); neighbours beyond ``cutoff`` are dropped here.  ``workspace`` (a
    :class:`repro.md.workspace.Workspace`) reuses the padded per-atom output
    arrays across calls — the returned environment then aliases pool buffers
    and must not outlive the next build from the same workspace.
    """
    if cutoff <= 0 or not 0 < cutoff_smooth < cutoff:
        raise ValueError("require 0 < cutoff_smooth < cutoff")
    n = len(atoms)
    nei = neighbors.neighbors
    n_pad = nei.shape[1] if max_neighbors is None else int(max_neighbors)
    n_pad = max(n_pad, 1)

    # The outputs outlive the build, so they are allocated before its
    # temporaries: the temporaries then free as one block above them instead
    # of leaving holes between long-lived arrays.
    if workspace is not None:
        R = workspace.zeros("dp.env.R", (n, n_pad, 4))
        displacements = workspace.zeros("dp.env.displacements", (n, n_pad, 3))
        distances = workspace.zeros("dp.env.distances", (n, n_pad))
        mask = workspace.zeros("dp.env.mask", (n, n_pad))
        neighbor_indices = workspace.buffer("dp.env.neighbor_indices", (n, n_pad), dtype=np.int64)
        neighbor_indices.fill(-1)
        neighbor_types = workspace.buffer("dp.env.neighbor_types", (n, n_pad), dtype=np.int64)
        neighbor_types.fill(-1)
    else:
        R = np.zeros((n, n_pad, 4))  # reprolint: allow[alloc] workspace-less reference branch allocates per call by design
        displacements = np.zeros((n, n_pad, 3))  # reprolint: allow[alloc] workspace-less reference branch allocates per call by design
        distances = np.zeros((n, n_pad))  # reprolint: allow[alloc] workspace-less reference branch allocates per call by design
        mask = np.zeros((n, n_pad))  # reprolint: allow[alloc] workspace-less reference branch allocates per call by design
        neighbor_indices = np.full((n, n_pad), -1, dtype=np.int64)  # reprolint: allow[alloc] workspace-less reference branch allocates per call by design
        neighbor_types = np.full((n, n_pad), -1, dtype=np.int64)  # reprolint: allow[alloc] workspace-less reference branch allocates per call by design

    types = atoms.types
    disp, dist, within = _within_cutoff(atoms, box, neighbors, cutoff)

    # Compact each row to its leading slots with two stable per-row sorts
    # (the scalar per-atom version of this layout in :mod:`repro.deepmd.scalar`
    # pins it in the parity test suite).  Sort 1 orders every list slot by
    # distance, out-of-cutoff slots last, so its first ``min(width, n_pad)``
    # columns are exactly the kept set: the ``n_pad`` closest in-cutoff
    # neighbours, distance ties broken by slot order as the scalar reference
    # does with its stable argsort.
    width = nei.shape[1]
    n_keep = min(width, n_pad)
    rows = np.arange(n)[:, None]
    order = np.argsort(np.where(within, dist, np.inf), axis=1, kind="stable")[:, :n_keep]
    kept = within[rows, order]
    if sort_neighbors_by_type:
        # Sort 2 groups the candidates by species (the paper's pre-classified
        # layout).  Stability keeps distance, then slot order, within a type,
        # and the padding key keeps the kept slots leading, so ``kept`` is
        # unchanged.
        cand_types = types[np.where(kept, nei[rows, order], 0)]
        by_type = np.argsort(np.where(kept, cand_types, _PAD_KEY), axis=1, kind="stable")
        order = order[rows, by_type]
    nei_kept = nei[rows, order]

    np.copyto(displacements[:, :n_keep], disp[rows, order], where=kept[..., None])
    np.copyto(distances[:, :n_keep], dist[rows, order], where=kept)
    np.copyto(neighbor_indices[:, :n_keep], nei_kept, where=kept)
    np.copyto(neighbor_types[:, :n_keep], types[np.where(kept, nei_kept, 0)], where=kept)
    np.copyto(mask[:, :n_keep], 1.0, where=kept)

    s_values = switching_function(distances, cutoff, cutoff_smooth) * mask
    ds_values = switching_derivative(distances, cutoff, cutoff_smooth) * mask

    safe_dist = np.where(distances > 0.0, distances, 1.0)
    unit = displacements / safe_dist[..., None]
    R[..., 0] = s_values
    R[..., 1:] = s_values[..., None] * unit
    R *= mask[..., None]

    return LocalEnvironment(
        R=R,
        displacements=displacements,
        distances=distances,
        s=s_values,
        ds_dr=ds_values,
        mask=mask,
        neighbor_indices=neighbor_indices,
        neighbor_types=neighbor_types,
        types=types.copy(),
        cutoff=cutoff,
        cutoff_smooth=cutoff_smooth,
    )


def suggested_max_neighbors(atoms: Atoms, box: Box, neighbors: NeighborData, cutoff: float, margin: float = 1.2) -> int:
    """A padding size comfortably above the observed neighbour count.

    The paper quotes 46/92/512 neighbours for H/O/Cu at the benchmark cutoffs;
    the suggestion here simply measures the actual maximum and adds a margin.
    """
    _, _, within = _within_cutoff(atoms, box, neighbors, cutoff)
    max_count = int(within.sum(axis=1).max()) if len(atoms) else 0
    return max(int(np.ceil(max_count * margin)), 1)


def _within_cutoff(atoms: Atoms, box: Box, neighbors: NeighborData, cutoff: float):
    """``(disp, dist, within)`` for every (centre, list slot) pair.

    ``disp`` is the minimum-image d_ij, ``dist`` its norm, and ``within``
    marks the real list slots with ``0 < dist <= cutoff``.  Padding slots
    (index -1) gather atom 0 and are never ``within``.
    """
    positions = atoms.positions
    nei = neighbors.neighbors
    valid = nei >= 0
    safe_idx = np.where(valid, nei, 0)
    disp = box.minimum_image(positions[safe_idx] - positions[:, None, :])
    dist = np.linalg.norm(disp, axis=2)
    within = valid & (dist > 0.0) & (dist <= cutoff)
    return disp, dist, within
