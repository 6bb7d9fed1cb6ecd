"""Spans recorded around calls into the program's public functions.

The traced run swaps each listed function for a wrapper in every loaded
module of the package that refers to it, so calls made from inside the
program (the fold inside `analyze`, say) are timed too, without changing a
source file.  Spans stay in memory and are written out once, at exit.  The
untraced run installs nothing and pays nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter_ns

PACKAGE = "balancegate"


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _state_cycle_steps(args, kwargs):
    return (1 << _first(args, kwargs).length) - 1


def _truthtable_assignments(args, kwargs):
    return 1 << _first(args, kwargs).layout.total_length


def _simulated_bits(args, kwargs):
    return _first(args, kwargs).layout.period()


# (module, public function) -> (span name, count of work done, from the args)
TARGETS = {
    ("anf", "parse_function"): ("anf.parse", None),
    ("specfile", "load_spec"): ("specfile.load", None),
    ("specfile", "parse_spec"): ("specfile.load", None),
    ("minterms", "accumulate"): ("minterms.accumulate", None),
    ("minterms", "exact_ones_multi"): ("minterms.exact_ones_multi", None),
    ("minterms", "minterm_expansion"): ("minterms.expansion", None),
    ("analyzer", "analyze"): ("analyzer.analyze", None),
    ("analyzer", "check_isolated_linear_term"): ("analyzer.findings", None),
    ("analyzer", "heuristic_findings"): ("analyzer.findings", None),
    ("lfsr", "count_ones_truthtable"): ("lfsr.truthtable", _truthtable_assignments),
    ("lfsr", "verify_maximum_length"): ("lfsr.primitive", None),
    ("lfsr", "state_cycle"): ("lfsr.state_cycle", _state_cycle_steps),
    ("lfsr", "count_ones_simulated"): ("lfsr.simulate", _simulated_bits),
    ("cli", "main"): ("cli.main", None),
}

# span record fields, kept as lists while recording
NAME, START, END, PARENT, OP, COUNT, STATUS = range(7)


class Tracer:
    """In-memory span recorder; `op` is the id of the operation under way."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def span(self, name: str, fn, count=None):
        """Wrap fn so each call records a span with the caller's span as parent."""
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, self.op, 0, "ok"]
            if count is not None:
                record[COUNT] = count(args, kwargs)
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                record[STATUS] = type(exc).__name__
                raise
            finally:
                record[END] = perf_counter_ns()
                stack.pop()

        return traced

    def install(self, targets=TARGETS) -> None:
        """Replace every binding of each target in the loaded package modules."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for (module_name, attr), (span_name, count) in targets.items():
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            original = getattr(module, attr)
            wrapped = self.span(span_name, original, count)
            for m in modules:
                if m.__dict__.get(attr) is original:
                    setattr(m, attr, wrapped)
                    self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, n, status in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "op": op,
                            "count": n,
                            "status": status,
                        }
                    )
                    + "\n"
                )


def self_times(spans) -> list[int]:
    """Each span's duration minus the part its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def parse_importtime(stderr: str) -> tuple[list[tuple[int, str, int]], str]:
    """Split `python -X importtime` output from the rest of stderr.

    Returns ([(depth, module, cumulative_us)], remaining stderr).
    """
    entries = []
    rest = []
    for line in stderr.splitlines(keepends=True):
        if not line.startswith("import time:"):
            rest.append(line)
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the header line
        label = fields[2].rstrip("\n")
        name = label.lstrip()
        depth = (len(label) - len(name) - 1) // 2
        entries.append((depth, name, int(fields[1])))
    return entries, "".join(rest)


def import_costs(entries) -> tuple[float, float]:
    """(program import seconds, numpy import seconds) from importtime entries.

    The program's share is every top-level import from the first one of the
    package on; the process imports everything of its own before that.
    """
    program_us = 0
    numpy_us = 0
    started = False
    for depth, name, cumulative in entries:
        if name == "numpy":
            numpy_us = max(numpy_us, cumulative)
        if depth != 0:
            continue
        started = started or name == PACKAGE or name.startswith(PACKAGE + ".")
        if started:
            program_us += cumulative
    return program_us / 1e6, numpy_us / 1e6
