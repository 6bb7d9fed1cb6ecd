"""One benchmark process: set up from a fresh interpreter, then run operations.

    python3 bench/worker.py INPUTS OUT --mode setup|run --seconds S --trace 0|1

INPUTS is the JSON file `run.py` wrote: the workload name, its designs, the
spec files of the CLI command mix and one round of that mix.  The worker imports the program from
`src/`, loads every design into the program's types, notes the moment it is
ready for the first timed operation, and in `run` mode runs operations
closed loop, one at a time, in passes over the designs, until S seconds
have passed, at least one whole pass is done and at least MIN_OPS
operations ran.  Only the program call is
timed; outputs are summarized afterwards and checked by `run.py`.  OUT
receives the results.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import monotonic_ns, perf_counter_ns

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the loop stops here even short of a whole pass, so a run always ends in time
MAX_LOOP_S = 120.0
# a run holds at least one whole pass and this many operations, so at least
# ten samples lie beyond p90
MIN_OPS = 100
# widest layout whose minterms are listed; the truth-table walk has the same
# bound as its own guard, which the CLI relies on to skip it
ORACLE_BITS = 20


class FoldWide:
    """`analyze` on a wide design: the signed-sum fold and the count."""

    def __init__(self, inputs):
        from balancegate.specfile import parse_spec

        self.items = [
            (d["id"], parse_spec(d["spec"]).function()) for d in inputs["designs"]
        ]
        self.functions = dict(self.items)

    def run(self, f):
        return self.analyzer.analyze(f)

    def summary(self, f, report):
        return {"ones": str(report.ones), "entries": len(report.final_sum)}


class VerifySmall:
    """The in-process `verify` plus `expand`: symbolic count, both oracles,
    the primitivity test, and the minterm expansion."""

    def __init__(self, inputs):
        from balancegate.specfile import parse_spec

        self.items = []
        for d in inputs["designs"]:
            spec = parse_spec(d["spec"])
            self.items.append((d["id"], (spec.function(), spec.instance())))
        self.functions = {design: item[0] for design, item in self.items}

    def run(self, item):
        f, g = item
        lfsr = self.lfsr
        report = self.analyzer.analyze(f)
        try:
            truth = lfsr.count_ones_truthtable(f)
        except self.errors.ResourceLimitError:
            truth = None
        primitive = [lfsr.verify_maximum_length(cfg) for cfg in g.lfsrs]
        simulated = lfsr.count_ones_simulated(g, verify_polynomials=False)
        expansion = None
        if f.layout.total_length <= ORACLE_BITS:
            expansion = self.minterms.minterm_expansion(f)
        return report, truth, primitive, simulated, expansion

    def summary(self, item, result):
        report, truth, primitive, simulated, expansion = result
        out = {
            "ones": str(report.ones),
            "entries": len(report.final_sum),
            "truthtable": None if truth is None else str(truth),
            "primitive": primitive,
            "simulated": str(simulated),
            "expansion": None,
        }
        if expansion is not None:
            masks = array.array("q", sorted(expansion))
            if sys.byteorder != "little":
                masks.byteswap()
            out["expansion"] = {
                "minterms": len(masks),
                "sha256": hashlib.sha256(masks.tobytes()).hexdigest(),
            }
        return out


class Cli:
    """`python -m balancegate.cli` in a fresh process, run from the checkout."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        self.env = env

    def run(self, argv, flags=()):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "balancegate.cli", *argv],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        return proc.returncode, proc.stdout, proc.stderr


class CliCold:
    """One fresh CLI process per operation."""

    def __init__(self, inputs):
        from balancegate.specfile import load_spec

        self.items = []
        for d in inputs["designs"]:
            path = inputs["spec_paths"][d["kind"]]
            argv = [path if a == "{spec}" else a for a in d["argv"]]
            self.items.append((d["id"], argv))
        loaded = {}
        for kind, path in sorted(inputs["spec_paths"].items()):
            with contextlib.suppress(self.errors.ValidationError):
                loaded[kind] = load_spec(path).function()
        self.functions = {
            d["id"]: loaded[d["kind"]] for d in inputs["designs"] if d["kind"] in loaded
        }
        self.processes = Cli()

    def run(self, argv):
        return self.processes.run(argv)

    def summary(self, argv, result):
        code, stdout, stderr = result
        return {"code": code, "stdout": stdout, "stderr": stderr}


def _replay(workload, argv) -> None:
    """A CLI command in-process, so the traced run sees its layers."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        workload.cli.main(argv)


def _cli_round(workload, inputs, tracer, op):
    """One round of the CLI command mix at the end of a traced run.

    Each command runs as a process under `-X importtime` for the import
    costs, as a plain process for the process time, and in-process under the
    tracer as operation `op`, so every layer is timed on every workload.
    """
    cli = Cli()
    imports, process_ns = [], []
    for argv in inputs["cli_round"]:
        _, _, stderr = cli.run(argv, ("-X", "importtime"))
        imports.append(tracing.import_costs(tracing.parse_importtime(stderr)[0]))
        started = perf_counter_ns()
        cli.run(argv)
        process_ns.append(perf_counter_ns() - started)
        tracer.op = op
        _replay(workload, argv)
        tracer.op = None
    return imports, process_ns


WORKLOADS = {"fold-wide": FoldWide, "verify-small": VerifySmall, "cli-cold": CliCold}


def _attach_program(cls) -> None:
    sys.path.insert(0, str(SRC))
    for name in ("errors", "analyzer", "minterms", "lfsr", "cli"):
        setattr(cls, name, importlib.import_module(f"balancegate.{name}"))


def _time_op(workload, item, i, tracer):
    if tracer is not None:
        tracer.op = i
    error = None
    status = "ok"
    result = None
    started = perf_counter_ns()
    try:
        result = workload.run(item)
    except workload.errors.ResourceLimitError as exc:
        status, error = "refused", str(exc)
    except Exception:  # any raise counts as a failed operation; keep going
        status, error = "raised", traceback.format_exc(limit=4)
    elapsed = perf_counter_ns() - started
    if tracer is not None:
        tracer.op = None
    return status, error, result, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("inputs")
    parser.add_argument("out")
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    cls = WORKLOADS[inputs["workload"]]
    _attach_program(cls)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    workload = cls(inputs)
    ready_ns = monotonic_ns()
    result = {"ready_ns": ready_ns}
    if args.mode == "run":
        result.update(_run(workload, args, tracer))
        usage = resource.getrusage(resource.RUSAGE_SELF)
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        result["maxrss_kb"] = usage.ru_maxrss
        result["children_maxrss_kb"] = children.ru_maxrss
    if tracer is not None:
        result["cli_imports"], result["cli_process_ns"] = _cli_round(
            workload, inputs, tracer, len(result["ops"])
        )
        tracer.uninstall()
        spans_path = Path(args.out).with_suffix(".spans.jsonl")
        tracer.dump(spans_path)
        result["spans_path"] = str(spans_path)
        result["layers"] = _layers(tracer, workload, result)
        result["shapes"] = {
            design: dict(zip(("monomials", "support"), _shape(f)))
            for design, f in workload.functions.items()
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _run(workload, args, tracer):
    items = workload.items
    cli_cold = isinstance(workload, CliCold)
    ops = []
    untraced_ns = []
    limit_ns = int(args.seconds * 1e9)
    started = perf_counter_ns()
    i = 0
    while True:
        now = perf_counter_ns() - started
        if (now >= limit_ns and i >= max(len(items), MIN_OPS)) or now >= MAX_LOOP_S * 1e9:
            break
        design, item = items[i % len(items)]
        status, error, res, elapsed = _time_op(workload, item, i, tracer)
        out = workload.summary(item, res) if status == "ok" else None
        ops.append(
            {"design": design, "status": status, "ns": elapsed, "error": error, "out": out}
        )
        if tracer is not None:
            if cli_cold:
                tracer.op = i
                _replay(workload, item)
                tracer.op = None
            # the same operation again without tracing, for the overhead
            untraced_ns.append(_untraced_ns(workload, item, tracer))
        i += 1
    loop_ns = perf_counter_ns() - started
    return {"ops": ops, "loop_ns": loop_ns, "untraced_ns": untraced_ns}


def _untraced_ns(workload, item, tracer):
    tracer.uninstall()
    try:
        _, _, _, elapsed = _time_op(workload, item, None, None)
    finally:
        tracer.install()
    return elapsed


def _layers(tracer, workload, result):
    """Per-layer figures of the traced run.

    Times are self times: a span's duration minus its child spans.  Times of
    operations, the closing CLI round included, are per attempted operation;
    set-up times are totals.  Counts cover the first pass over the designs
    only, so they repeat exactly for a seed.
    """
    counted_ops = len(workload.items)
    spans = tracer.spans
    own = tracing.self_times(spans)
    ops = result["ops"]
    n_ops = len(ops)
    per_op: dict[str, int] = {}
    setup: dict[str, int] = {}
    # (span name, status) -> [calls, summed work count] over the first pass
    counted: dict[tuple[str, str], list[int]] = {}
    refused_ns = 0
    fold_ns = 0
    sim_ns = 0
    sim_bits = 0
    for s, self_ns in zip(spans, own):
        name, op, status = s[tracing.NAME], s[tracing.OP], s[tracing.STATUS]
        if op is None:
            setup[name] = setup.get(name, 0) + self_ns
            continue
        per_op[name] = per_op.get(name, 0) + self_ns
        if name == "minterms.accumulate":
            fold_ns += self_ns
            if status == "ResourceLimitError":
                refused_ns += self_ns
        if name == "lfsr.simulate" and status == "ok":
            sim_ns += s[tracing.END] - s[tracing.START]
            sim_bits += s[tracing.COUNT]
        if op < counted_ops:
            tally = counted.setdefault((name, status), [0, 0])
            tally[0] += 1
            tally[1] += s[tracing.COUNT]

    def t(name):
        return per_op.get(name, 0) / 1e9 / max(n_ops, 1)

    def calls(name, status):
        return counted.get((name, status), [0, 0])[0]

    def work(name):
        return counted.get((name, "ok"), [0, 0])[1]

    first = ops[:counted_ops]
    entries = [o["out"]["entries"] for o in first if o["out"] and "entries" in o["out"]]
    expansions = [
        o["out"]["expansion"]["minterms"]
        for o in first
        if o["out"] and o["out"].get("expansion")
    ]
    shapes = [
        _shape(workload.functions[o["design"]])
        for o in first
        if o["design"] in workload.functions
    ]
    traced_ns = sum(o["ns"] for o in ops)
    untraced_ns = sum(result["untraced_ns"])
    return {
        "minterms.accumulate_s": t("minterms.accumulate"),
        "minterms.exact_ones_multi_s": t("minterms.exact_ones_multi"),
        "minterms.final_entries_sum": sum(entries),
        "minterms.final_entries_max": max(entries, default=0),
        "minterms.refused": calls("minterms.accumulate", "ResourceLimitError"),
        "minterms.refused_s": refused_ns / 1e9 / max(n_ops, 1),
        "minterms.useful_frac": (fold_ns - refused_ns) / fold_ns if fold_ns else 1.0,
        "minterms.expansion_s": t("minterms.expansion"),
        "minterms.expansion_minterms": sum(expansions),
        "lfsr.truthtable_s": t("lfsr.truthtable"),
        "lfsr.truthtable_assignments": work("lfsr.truthtable"),
        "lfsr.truthtable_skipped": calls("lfsr.truthtable", "ResourceLimitError"),
        "lfsr.primitive_s": t("lfsr.primitive"),
        "lfsr.state_cycle_s": t("lfsr.state_cycle"),
        "lfsr.state_steps": work("lfsr.state_cycle"),
        "lfsr.simulate_s": t("lfsr.simulate"),
        "lfsr.sim_bits": work("lfsr.simulate"),
        "lfsr.sim_mbit_per_s": sim_bits / sim_ns * 1e3 if sim_ns else 0.0,
        "anf.parse_s": setup.get("anf.parse", 0) / 1e9,
        "anf.monomials": sum(m for m, _ in shapes) / max(len(shapes), 1),
        "anf.support": sum(k for _, k in shapes) / max(len(shapes), 1),
        "specfile.load_s": setup.get("specfile.load", 0) / 1e9,
        "analyzer.findings_s": t("analyzer.findings"),
        "analyzer.analyze_s": t("analyzer.analyze"),
        "bench.op_s": traced_ns / 1e9 / max(n_ops, 1),
        "trace.overhead_frac": traced_ns / untraced_ns - 1 if untraced_ns else 0.0,
    }


def _shape(f):
    """(monomials, support size) of a function."""
    support = 0
    for t in f.terms:
        support |= t
    return len(f.terms), support.bit_count()


if __name__ == "__main__":
    sys.exit(main())
