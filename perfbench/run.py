"""The repository's end-to-end benchmark: MD and serving, one command.

Run one workload from the repository root::

    python3 perfbench/run.py --workload md_dp_water --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the same workload with every second block (MD) or round
pair (serving) traced and prints the per-layer metrics, the tracing overhead
and the measured-versus-modelled report.  Each run prints its report, then,
as its last line, one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The workloads and metrics, with units and bounds, are
listed in ``BENCHMARK.json``.  A run also appends its record, with a host
fingerprint and the hypervisor's steal share of CPU time during the run, to
``perfbench/results/runs.jsonl`` and writes the spans of a traced run as
Chrome trace-event JSON next to it.

Compare two sets of recorded runs::

    python3 perfbench/run.py --compare before.jsonl after.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
WORKLOADS = ("md_dp_water", "md_lj_ranks", "serve_mixed")
#: Processes or pipeline threads each workload keeps busy; BLAS threads are
#: capped so that workers x BLAS threads stays within the visible cores.
BUSY_WORKERS = {"md_dp_water": 1, "md_lj_ranks": 2, "serve_mixed": 2}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("give --workload or --compare")
    return args


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.host import cpu_ticks, fingerprint, limit_blas_threads, steal_pct, visible_cores

    limit_blas_threads(max(1, visible_cores() // BUSY_WORKERS[args.workload]))

    from perfbench import ranks, serve, water

    module = {"md_dp_water": water, "md_lj_ranks": ranks, "serve_mixed": serve}[args.workload]
    started, ticks = time.perf_counter(), cpu_ticks()
    result = module.run(args.seed, args.seconds, bool(args.trace))
    wall, steal = time.perf_counter() - started, steal_pct(ticks, cpu_ticks())

    spec = _spec()
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = result.per_layer if args.trace else result.end_to_end
    missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in result.end_to_end]
    if missing:
        raise RuntimeError(f"{args.workload} measured no {missing}")
    # a per-layer metric of a layer this workload never calls reads 0
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]} for m in listed}

    # tail latencies are measured and recorded, but too noisy to gate on
    unlisted = {
        name: {"value": value, "unit": "ms", "better": "lower"}
        for name, value in result.end_to_end.items()
        if not args.trace and name not in metrics
    }

    for line in result.report:
        print(line)
    print(f"failed_frac: {result.failed / max(result.attempted, 1):.4f} "
          f"({result.failed} of {result.attempted}); run wall {wall:.1f} s")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>14.4f} {metric['unit']}")
    for name, metric in unlisted.items():
        print(f"  {name:<44} {metric['value']:>14.4f} {metric['unit']} (recorded, not gated)")

    host = {**fingerprint(ROOT, args.seed), "steal_pct": round(steal, 2)}
    print("host: " + ", ".join(f"{k} {v}" for k, v in host.items()))
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
        "unlisted": unlisted,
        "report": result.report,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    with open(RESULTS / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    if args.trace:
        result.tracer.write_chrome_trace(RESULTS / f"trace_{args.workload}_seed{args.seed}.json")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


def _compare(before_path, after_path) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench.stats import compare_metric

    spec = _spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    def load(path):
        runs: dict[tuple[str, str], list[float]] = {}
        for line in Path(path).read_text().splitlines():
            if line.strip():
                record = json.loads(line)
                for name, metric in {**record["metrics"], **record.get("unlisted", {})}.items():
                    runs.setdefault((record["workload"], name), []).append(metric["value"])
                    metrics.setdefault(name, {"better": metric.get("better", "lower")})
        return runs

    before, after = load(before_path), load(after_path)

    def cell(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    print(f"{'workload':<12} {'metric':<44} {'before median [q1, q3]':>34} {'after median [q1, q3]':>34} "
          f"{'delta':>8}  verdict")
    flagged = 0
    for key in sorted(before.keys() & after.keys()):
        workload, name = key
        if not any(before[key]) and not any(after[key]):
            continue  # a layer this workload never calls
        metric = metrics[name]
        c = compare_metric(before[key], after[key], metric["better"], metric.get("bound"))
        verdict = c["verdict"] or "-"
        flagged += verdict in ("worse", "unresolved")
        print(f"{workload:<12} {name:<44} {cell(c['before']):>34} {cell(c['after']):>34} "
              f"{100 * c['delta']:>+7.1f}%  {verdict}")
    print(f"{flagged} metric(s) worse than their bound or unresolved (delta > 0 is worse)")
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.compare:
        return _compare(*args.compare)
    try:
        return _run(args)
    finally:
        if "perfbench.common" in sys.modules:
            sys.modules["perfbench.common"].stop_child_processes()


if __name__ == "__main__":
    sys.exit(main())
