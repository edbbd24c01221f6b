"""Tests of the benchmark's own helpers: statistics, spans, --compare, inputs."""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import ranks, serve, water
from perfbench.spans import Span, Tracer, self_times, totals_by_name, union_length
from perfbench.stats import (
    compare_metric,
    latency_summary,
    percentile,
    quartiles,
    relative_spread,
    supported_percentile,
)

ROOT = Path(__file__).resolve().parents[2]


# -- percentiles and the sample-count rule ------------------------------------


def test_percentile_matches_numpy_linear_interpolation():
    values = np.random.default_rng(0).exponential(size=257)
    for q in (0.0, 50.0, 90.0, 99.0, 100.0):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond_it(n, expected):
    assert supported_percentile(n) == expected


def test_latency_summary_reports_count_and_support():
    summary = latency_summary([0.001 * (i + 1) for i in range(1000)])
    assert summary["n"] == 1000
    assert summary["supported"] == 99.0
    assert summary["p50_ms"] == pytest.approx(500.5)
    assert summary["p99_ms"] == pytest.approx(990.01)


def test_quartiles_and_spread_follow_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, q2, q3 = quartiles(values)
    assert (q1, q2, q3) == pytest.approx((9.725, 10.0, 10.275))
    assert relative_spread(values) == pytest.approx(0.055)


# -- self time -----------------------------------------------------------------


def test_union_counts_overlaps_once():
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert union_length([(0.0, 4.0), (1.0, 2.0)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


def test_self_time_of_nested_spans():
    spans = [
        Span("outer", 0.0, 10.0, -1, "main"),
        Span("child", 1.0, 4.0, 0, "main"),
        Span("grandchild", 2.0, 3.0, 1, "main"),
        Span("child", 5.0, 6.0, 0, "main"),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    totals = totals_by_name(spans)
    assert totals["child"] == {"calls": 2, "total": pytest.approx(4.0), "self": pytest.approx(3.0)}


def test_self_time_of_concurrent_spans():
    spans = [
        # two overlapping children of one parent are subtracted once
        Span("parent", 0.0, 10.0, -1, "a"),
        Span("child", 2.0, 6.0, 0, "a"),
        Span("child", 4.0, 8.0, 0, "a"),
        # a span on another thread overlapping in time is not a child
        Span("other", 1.0, 9.0, -1, "b"),
        # a child reaching past its parent only counts inside it
        Span("late", 9.0, 12.0, 0, "a"),
    ]
    assert self_times(spans) == pytest.approx([3.0, 4.0, 4.0, 8.0, 3.0])


def test_tracer_nests_per_thread_and_restores_targets():
    class Layer:
        def inner(self):
            time.sleep(0.002)

        def outer(self):
            self.inner()

    layer = Layer()
    tracer = Tracer()
    tracer.wrap(layer, "outer", "outer")
    tracer.wrap(layer, "inner", "inner", count=lambda: 3)
    with tracer.installed():
        worker = threading.Thread(target=layer.outer, name="worker")
        worker.start()
        layer.outer()
        worker.join(timeout=10)
    assert not worker.is_alive()
    layer.outer()  # untraced again
    assert "outer" not in layer.__dict__ and "inner" not in layer.__dict__
    assert len(tracer.spans) == 4
    for span in tracer.spans:
        if span.name == "inner":
            parent = tracer.spans[span.parent]
            assert parent.name == "outer" and parent.thread == span.thread
    assert tracer.counters["inner"] == 6


# -- --compare flagging ------------------------------------------------------------


def test_compare_flags_regression_beyond_bound():
    before = [100.0, 101.0, 99.0, 100.5, 99.5]
    slower = [80.0, 81.0, 79.0, 80.5, 79.5]
    result = compare_metric(before, slower, "higher", 0.1)
    assert result["delta"] == pytest.approx(0.2)
    assert result["verdict"] == "worse"
    assert compare_metric(before, [v * 0.95 for v in before], "higher", 0.1)["verdict"] == "same"
    assert compare_metric(before, [v * 1.2 for v in before], "higher", 0.1)["verdict"] == "better"
    latency = compare_metric([5.0, 5.1, 4.9], [6.0, 6.1, 5.9], "lower", 0.1)
    assert latency["verdict"] == "worse"


def test_compare_reports_unresolved_when_spread_exceeds_bound():
    noisy = [50.0, 100.0, 150.0, 75.0, 125.0]
    assert compare_metric(noisy, [100.0] * 5, "lower", 0.1)["verdict"] == "unresolved"
    # unless every run of the change beats every run of the parent
    assert compare_metric(noisy, [10.0, 11.0, 12.0], "lower", 0.1)["verdict"] == "better"
    assert compare_metric(noisy, noisy, "lower", None)["verdict"] is None


def test_compare_cli_prints_medians_and_verdicts(tmp_path):
    def write(path, values):
        with open(path, "w") as fh:
            for v in values:
                record = {"workload": "md_dp_water", "metrics": {"steps_per_s": {"value": v, "unit": "1/s"}}}
                fh.write(json.dumps(record) + "\n")

    write(tmp_path / "a.jsonl", [5.0, 5.05, 4.95, 5.02, 4.98])
    write(tmp_path / "b.jsonl", [3.0, 3.05, 2.95, 3.02, 2.98])
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--compare", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout
    row = next(line for line in out.splitlines() if "steps_per_s" in line)
    assert "worse" in row and "+40.0%" in row


# -- seeded inputs -------------------------------------------------------------------


def _arrays(inputs):
    atoms, box = inputs
    return atoms.positions, atoms.velocities, box.lengths


@pytest.mark.parametrize("make", [water.make_inputs, ranks.make_inputs])
def test_md_inputs_depend_only_on_seed(make):
    same, again, other = _arrays(make(3)), _arrays(make(3)), _arrays(make(4))
    for a, b in zip(same, again):
        np.testing.assert_array_equal(a, b)
    assert not np.array_equal(same[0], other[0])
    assert not np.array_equal(same[1], other[1])


def test_serving_inputs_depend_only_on_seed():
    trickle, trickle_again, trickle_other = (serve.trickle_inputs(s) for s in (3, 3, 4))
    assert sum(len(systems) for _, systems in trickle) == serve.N_TRICKLE
    for (offsets, systems), (offsets_again, systems_again), (offsets_other, _) in zip(
        trickle, trickle_again, trickle_other
    ):
        np.testing.assert_array_equal(offsets, offsets_again)
        assert not np.array_equal(offsets, offsets_other)
        for (a, _), (b, _) in zip(systems, systems_again):
            np.testing.assert_array_equal(a.positions, b.positions)

    flood, flood_again = serve.flood_inputs(3, 1), serve.flood_inputs(3, 1)
    assert all(np.array_equal(a.positions, b.positions) for (a, _), (b, _) in zip(flood, flood_again))
    assert not np.array_equal(flood[0][0].positions, serve.flood_inputs(4, 1)[0][0].positions)
    assert not np.array_equal(flood[0][0].positions, serve.flood_inputs(3, 2)[0][0].positions)

    bursts, bursts_again = serve.burst_inputs(3, 0), serve.burst_inputs(3, 0)
    for (a, *_), (b, *_) in zip(bursts, bursts_again):
        np.testing.assert_array_equal(a.velocities, b.velocities)
    assert not np.array_equal(bursts[0][0].velocities, serve.burst_inputs(4, 0)[0][0].velocities)


def test_every_serving_round_carries_the_same_size_mix():
    sizes = [sorted(len(a.positions) for a, _ in serve.flood_inputs(seed, 0)) for seed in (1, 2)]
    assert sizes[0] == sizes[1]
    assert set(sizes[0]) == set(range(3, 17))


def test_serving_clusters_are_compact():
    """Every cluster atom has a neighbour within the serving model's cutoff."""
    cutoff = serve.make_model().config.cutoff
    rng = np.random.default_rng(0)
    for n in range(3, 17):
        atoms, _ = serve.make_cluster(rng, n)
        d = np.linalg.norm(atoms.positions[:, None] - atoms.positions[None], axis=-1)
        np.fill_diagonal(d, np.inf)
        assert (d.min(axis=1) < cutoff).all()


# -- process clean-up ---------------------------------------------------------


def test_stop_child_processes_reaps_workers_and_the_resource_tracker():
    script = """
import multiprocessing, time
from multiprocessing import resource_tracker, shared_memory
from perfbench.common import stop_child_processes

block = shared_memory.SharedMemory(create=True, size=64)
block.close()
block.unlink()
worker = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,), daemon=True)
worker.start()
tracker_pid = resource_tracker._resource_tracker._pid
stop_child_processes()
assert not worker.is_alive() and not multiprocessing.active_children()
assert tracker_pid is not None and resource_tracker._resource_tracker._pid is None
"""
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_steal_share_between_two_readings():
    from perfbench.host import cpu_ticks, steal_pct

    assert steal_pct((100, 10), (300, 50)) == 20.0
    assert steal_pct((100, 10), (100, 10)) == 0.0
    total, steal = cpu_ticks()
    assert 0 <= steal <= total
