"""Host fingerprint recorded next to every result."""

from __future__ import annotations

import os
import platform
from pathlib import Path

#: The BLAS thread-count variables the benchmark sets before importing NumPy.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def visible_cores() -> int:
    """CPU cores this process can run on: affinity mask, capped by a cgroup quota."""
    cores = len(os.sched_getaffinity(0))
    try:  # cgroup v2
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()[:2]
        if quota != "max":
            cores = min(cores, max(1, int(quota) // int(period)))
    except (OSError, ValueError):
        try:  # cgroup v1
            quota = int(Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").read_text())
            period = int(Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us").read_text())
            if quota > 0:
                cores = min(cores, max(1, quota // period))
        except (OSError, ValueError):
            pass
    return cores


def limit_blas_threads(n_threads: int) -> None:
    """Cap BLAS threads; must run before NumPy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(n_threads)


def cpu_ticks() -> tuple[int, int]:
    """Total and steal CPU ticks of the machine so far, from ``/proc/stat``; zeros when absent.

    Steal is time a virtual CPU was runnable but the hypervisor ran someone
    else; a run with a large steal share measured the host, not the program.
    """
    try:
        fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return sum(fields[:8]), fields[7] if len(fields) > 7 else 0


def steal_pct(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Steal as a percentage of all CPU ticks between two ``cpu_ticks()`` readings."""
    total = after[0] - before[0]
    return 100.0 * (after[1] - before[1]) / total if total > 0 else 0.0


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(root: Path, seed: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    return {
        "visible_cores": visible_cores(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": git_sha(root),
        "seed": seed,
    }
