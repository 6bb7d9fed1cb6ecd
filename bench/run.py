"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload fold-wide --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  The inputs are generated from the seed
(`workloads.py`), then a fresh interpreter (`worker.py`) imports the program
from `src/`, loads them and runs the operations closed loop with one caller.
Every output is checked against an independent reference (`reference.py`)
after the timed region.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under `--trace 0` and the per-layer metrics of
a traced run under `--trace 1`.  Spans of a traced run, and the per-design
counts, are kept under `.bench_out/`.  The exit code is 1 when an output is
wrong, 2 for bad usage or a missing program, 3 when a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic_ns, perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import workloads  # noqa: E402

# set-up is measured in fresh processes, this many before the measured run
# and as many after it, plus the run's own; the median is reported
SETUP_PROBES = 3
STARTUP_RUNS = 10
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "minterms.accumulate_s": "s/op",
    "minterms.exact_ones_multi_s": "s/op",
    "minterms.final_entries_sum": "count",
    "minterms.final_entries_max": "count",
    "minterms.refused": "count",
    "minterms.refused_s": "s/op",
    "minterms.useful_frac": "ratio",
    "minterms.expansion_s": "s/op",
    "minterms.expansion_minterms": "count",
    "lfsr.truthtable_s": "s/op",
    "lfsr.truthtable_assignments": "count",
    "lfsr.truthtable_skipped": "count",
    "lfsr.primitive_s": "s/op",
    "lfsr.state_cycle_s": "s/op",
    "lfsr.state_steps": "count",
    "lfsr.simulate_s": "s/op",
    "lfsr.sim_bits": "count",
    "lfsr.sim_mbit_per_s": "Mbit/s",
    "anf.parse_s": "s",
    "anf.monomials": "count/op",
    "anf.support": "count/op",
    "specfile.load_s": "s",
    "analyzer.findings_s": "s/op",
    "analyzer.analyze_s": "s/op",
    "cli.process_s": "s",
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    "python.startup_s": "s",
    "bench.op_s": "s/op",
    "trace.overhead_frac": "ratio",
}


class WorkerError(Exception):
    pass


def _worker(inputs: Path, out: Path, mode: str, seconds: float, trace: int):
    """Start a fresh interpreter; return (its results, its start time)."""
    command = [
        sys.executable,
        str(BENCH / "worker.py"),
        str(inputs),
        str(out),
        "--mode",
        mode,
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    started = monotonic_ns()
    proc = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise WorkerError(proc.stderr[-4000:])
    with open(out, encoding="utf-8") as fh:
        return json.load(fh), started


def _bare_startup_s() -> float:
    times = []
    for _ in range(STARTUP_RUNS):
        started = perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        times.append((perf_counter_ns() - started) / 1e9)
    return statistics.median(times)


def _percentile(sorted_values, q, window=0.05):
    """The q-th percentile, smoothed: the mean of the values ranked within
    `window` of it.  A single order statistic jumps by the gap to its
    neighbour whenever timing noise swaps two designs; the mean over the
    window does not."""
    n = len(sorted_values)
    lo = max(0, math.ceil((q - window) * n) - 1)
    hi = min(n, math.ceil((q + window) * n))
    return statistics.fmean(sorted_values[lo:hi])


def _check(workload: str, designs: dict, ops: list) -> tuple[set[int], list[str]]:
    """(indices of failed operations, descriptions of wrong outputs).

    An operation fails when it was refused, raised, or its output is wrong.
    A refusal is no failure where the reference says the default guard has
    to trip (`reference.REFUSALS`).
    """
    check = reference.CHECKS[workload]
    may_refuse = reference.REFUSALS.get(workload, lambda design: False)
    verdicts: dict[tuple, str | None] = {}
    failed = set()
    wrong = []
    for i, op in enumerate(ops):
        if op["status"] == "refused" and may_refuse(designs[op["design"]]):
            continue
        if op["status"] != "ok":
            failed.add(i)
            continue
        key = (op["design"], json.dumps(op["out"], sort_keys=True))
        if key not in verdicts:
            verdicts[key] = check(designs[op["design"]], op["out"])
        if verdicts[key] is not None:
            failed.add(i)
            wrong.append(f"operation {i}, design {op['design']}: {verdicts[key]}")
    return failed, wrong


def _end_to_end(run: dict, setups: list[float], failed_ops: set[int], workload: str):
    """A design's latency is the median of its samples, which are spread
    over the whole run; the percentiles are over designs, and `ops_per_s`
    is the rate of one pass over them at those latencies.  Designs weigh
    the same however many passes reached them, so the pass the run stops in
    does not tilt the mix.  A design that failed in any pass counts as no
    completed operation, and ranks as slower than every other, since it
    misses any latency limit."""
    ops = run["ops"]
    per_design: dict[int, list[int]] = {}
    failed_designs = set()
    for i, op in enumerate(ops):
        per_design.setdefault(op["design"], []).append(op["ns"])
        if i in failed_ops:
            failed_designs.add(op["design"])
    medians = {design: statistics.median(times) for design, times in per_design.items()}
    ranked = sorted((design in failed_designs, ns) for design, ns in medians.items())
    slowest = max(op["ns"] for op in ops)
    latencies = [slowest if bad else ns for bad, ns in ranked]
    completed = len(medians) - len(failed_designs)
    rss_kb = run["children_maxrss_kb"] if workload == "cli-cold" else run["maxrss_kb"]
    return {
        "ops_per_s": completed / (sum(medians.values()) / 1e9),
        "latency_p50_ms": _percentile(latencies, 0.5) / 1e6,
        "latency_p90_ms": _percentile(latencies, 0.9) / 1e6,
        "success_frac": (len(ops) - len(failed_ops)) / len(ops),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024,
    }


def _per_layer(run: dict):
    layers = dict(run["layers"])
    imports = run["cli_imports"]
    layers["cli.import_s"] = statistics.median(p for p, _ in imports)
    layers["cli.import_numpy_s"] = statistics.median(n for _, n in imports)
    layers["cli.process_s"] = statistics.median(run["cli_process_ns"]) / 1e9
    layers["python.startup_s"] = _bare_startup_s()
    return layers


def _write_counts(path: Path, run: dict) -> None:
    """Per-design counts of the traced run, which repeat exactly for a seed."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, op in enumerate(run["ops"]):
            row = {"op": i, "design": op["design"], "status": op["status"]}
            row.update(run["shapes"].get(str(op["design"]), {}))
            if op["out"] and "entries" in op["out"]:
                row["final_entries"] = op["out"]["entries"]
            fh.write(json.dumps(row) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "balancegate" / "__init__.py").is_file():
        print(
            f"error: no program source under {ROOT / 'src'}; run this from the root"
            " of a checkout of the repository",
            file=sys.stderr,
        )
        return 2

    designs = workloads.generate(args.workload, args.seed)
    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spec_paths = {}
    cli_round = []
    for name, spec, head, tail in (*workloads.CLI_MIX, workloads.CLI_REFUSED):
        path = run_dir / f"{name}.spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        spec_paths[name] = str(path)
        cli_round.append([*head, str(path), *tail])
    inputs = {
        "workload": args.workload,
        "designs": designs,
        "spec_paths": spec_paths,
        "cli_round": cli_round,
    }
    inputs_path = run_dir / "inputs.json"
    inputs_path.write_text(json.dumps(inputs), encoding="utf-8")

    def setup_probe(k):
        probe, started = _worker(inputs_path, run_dir / f"setup{k}.json", "setup", 0, 0)
        return (probe["ready_ns"] - started) / 1e9

    try:
        setups = [setup_probe(k) for k in range(SETUP_PROBES)]
        run, started = _worker(
            inputs_path, run_dir / "run.json", "run", args.seconds, args.trace
        )
        setups.append((run["ready_ns"] - started) / 1e9)
        setups += [setup_probe(k) for k in range(SETUP_PROBES, 2 * SETUP_PROBES)]
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker process failed:\n{exc}", file=sys.stderr)
        return 3

    failed_ops, wrong = _check(args.workload, {d["id"]: d for d in designs}, run["ops"])
    for line in wrong:
        print(f"wrong output: {line}", file=sys.stderr)

    if args.trace:
        metrics = _per_layer(run)
        units = PER_LAYER
        _write_counts(run_dir / "counts.jsonl", run)
    else:
        metrics = _end_to_end(run, setups, failed_ops, args.workload)
        units = END_TO_END
    result = {
        "correct": not wrong,
        "attempted": len(run["ops"]),
        "failed": len(failed_ops),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
