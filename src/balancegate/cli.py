"""Command line: analyze, expand, simulate, verify, check-rules.

Exit codes: 0 success/Accept, 1 I/O, 2 validation or parse, 3 Reject,
4 resource guard, 5 cross-validation disagreement.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .analyzer import AnalysisReport, VerdictPolicy, analyze, findings
from .anf import _shown
from .errors import (
    BalanceGateError,
    DisagreementError,
    MissingPolynomialError,
    ResourceLimitError,
    ValidationError,
)
from .lfsr import (
    ENV_MAX_PERIOD,
    count_ones_simulated,
    count_ones_truthtable,
    iter_output_chunks,
    require_maximum_length,
)
from .minterms import DEFAULT_MAX_SUM_ENTRIES, minterm_expansion
from .specfile import load_spec


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balancegate",
        description=(
            "Exact full-period balancedness analysis of LFSR-based keystream"
            " generators, from the combining function alone."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze_p = sub.add_parser(
        "analyze", help="exact ones count, verdict, and findings"
    )
    analyze_p.add_argument("spec", help="generator description file")
    analyze_p.add_argument("--json", action="store_true", help="machine-readable report")
    analyze_p.add_argument(
        "--tolerance",
        metavar="P/Q",
        help="accept tolerance as an exact fraction (overrides the file)",
    )
    _add_sum_cap(analyze_p)
    analyze_p.set_defaults(handler=_cmd_analyze)

    expand_p = sub.add_parser(
        "expand", help="list the minterms making up the function"
    )
    expand_p.add_argument("spec", help="generator description file")
    expand_p.set_defaults(handler=_cmd_expand)

    simulate_p = sub.add_parser(
        "simulate", help="generate output bits by clocking the registers"
    )
    simulate_p.add_argument("spec", help="generator description file")
    group = simulate_p.add_mutually_exclusive_group(required=True)
    group.add_argument("--steps", type=_int, metavar="N", help="number of bits")
    group.add_argument(
        "--full-period", action="store_true", help="run one whole period"
    )
    simulate_p.add_argument(
        "--dump", action="store_true", help="print the bits, 64 per line"
    )
    _add_trust(simulate_p)
    simulate_p.set_defaults(handler=_cmd_simulate)

    verify_p = sub.add_parser(
        "verify", help="cross-check the symbolic count against brute force"
    )
    verify_p.add_argument("spec", help="generator description file")
    _add_trust(verify_p)
    _add_sum_cap(verify_p)
    verify_p.set_defaults(handler=_cmd_verify)

    rules_p = sub.add_parser(
        "check-rules", help="proven bounds on the ones count, with no counting"
    )
    rules_p.add_argument("spec", help="generator description file")
    rules_p.set_defaults(handler=_cmd_check_rules)

    return parser


def _int(raw: str) -> int:
    """argparse's type=int, with a long value quoted cut as parse errors are."""
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(raw)}") from None


def _positive_int(raw: str) -> int:
    value = _int(raw)
    if value < 1:
        got = value if len(raw) <= 20 else _shown(raw)
        raise argparse.ArgumentTypeError(f"must be at least 1, got {got}")
    return value


def _add_sum_cap(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-h-entries",
        type=_positive_int,
        default=DEFAULT_MAX_SUM_ENTRIES,
        metavar="N",
        help=(
            "cap on the entries of every signed sum the engine holds, checked"
            " before each is built or as it grows (default %(default)s)"
        ),
    )


def _add_trust(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trust-poly",
        action="store_true",
        help="accept polynomials without maximum-length verification",
    )


def _notice(message: str) -> None:
    print(f"notice: {message}", file=sys.stderr)


def _resolve_budget() -> int | None:
    """The step budget the environment sets; None leaves the library's."""
    raw = os.environ.get(ENV_MAX_PERIOD)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(
            f"{ENV_MAX_PERIOD} must be an integer, got {_shown(raw)}"
        ) from None
    if value < 1:
        raise ValidationError(f"{ENV_MAX_PERIOD} must be positive")
    return value


def _print_report(report: AnalysisReport) -> None:
    layout = report.layout
    registers = ", ".join(f"{r.name}({r.length})" for r in layout.registers)
    print(f"function:   {report.function_text}")
    print(f"registers:  {registers}")
    print(f"period:     {report.period}")
    print(f"ones:       {report.ones}")
    print(f"zeros:      {report.zeros}")
    print(f"expected:   {report.expected_ones}")
    print(f"deviation:  {report.deviation} of the period")
    print(f"magnitude:  {report.magnitude_label}")
    print(f"tolerance:  {report.tolerance}")
    print(f"verdict:    {report.verdict.upper()}")
    if report.findings:
        print("findings:")
        for finding in report.findings:
            evidence = ", ".join(finding.evidence)
            print(f"  [{finding.severity}] {finding.rule_id} ({evidence}):")
            print(f"      {finding.message}")
    if report.final_sum:
        print("final sum:")
        masks = sorted(report.final_sum)
        for mask, text in zip(masks, layout.format_masks(masks)):
            coeff = report.final_sum[mask]
            sign = "+" if coeff > 0 else "-"
            print(f"  {sign}[{abs(coeff)}] {text}")


def _cmd_analyze(args) -> int:
    spec = load_spec(args.spec)
    tolerance = spec.tolerance if args.tolerance is None else args.tolerance
    policy = VerdictPolicy() if tolerance is None else VerdictPolicy(tolerance)
    report = analyze(spec.function(), policy, max_sum_entries=args.max_h_entries)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    else:
        _print_report(report)
    return 0 if report.verdict == "accept" else 3


def _cmd_expand(args) -> int:
    f = load_spec(args.spec).function()
    # a list, not the array, whose truth value raises when it is empty
    masks = minterm_expansion(f)[::-1].tolist()
    listing = ", ".join(f.layout.format_masks(masks))
    noun = "minterm" if len(masks) == 1 else "minterms"
    print(f"{listing} ({len(masks)} {noun})" if masks else "0 minterms")
    return 0


def _cmd_simulate(args) -> int:
    budget = _resolve_budget()
    spec = load_spec(args.spec)
    g = spec.instance(notice=_notice)
    steps = g.layout.period() if args.full_period else args.steps
    # its limits are checked at the call, so they come before any
    # --trust-poly hint, as in count_ones_simulated
    chunks = iter_output_chunks(g, steps, max_steps=budget)
    if args.full_period and not args.trust_poly:
        require_maximum_length(g)
    import numpy as np

    total = 0
    for chunk in chunks:
        total += int(np.count_nonzero(chunk))
        if args.dump:
            # every chunk but the last is a whole number of 64-bit lines
            digits = (chunk + ord("0")).tobytes().decode("ascii")
            lines = (digits[i : i + 64] for i in range(0, len(digits), 64))
            print(*lines, sep="\n")
    print(f"steps: {steps}")
    print(f"ones: {total}")
    return 0


def _cmd_verify(args) -> int:
    budget = _resolve_budget()
    spec = load_spec(args.spec)
    f = spec.function()

    symbolic = analyze(f, max_sum_entries=args.max_h_entries).ones
    print(f"symbolic:    {symbolic}")

    results = [symbolic]
    oracles = {
        "truth-table": lambda: count_ones_truthtable(f),
        "simulated": lambda: count_ones_simulated(
            spec.instance(notice=_notice),
            max_steps=budget,
            verify_polynomials=not args.trust_poly,
        ),
    }
    for name, oracle in oracles.items():
        try:
            count = oracle()
        except (ResourceLimitError, MissingPolynomialError) as exc:
            print(f"{name + ':':<12} skipped ({exc})")
        else:
            results.append(count)
            print(f"{name + ':':<12} {count}")

    if len(results) < 2:
        raise ValidationError(
            "instance too large for any brute-force oracle; nothing to verify"
            " against"
        )
    if len(set(results)) == 1:
        print("agreement:   PASS")
        return 0
    print("agreement:   FAIL")
    raise DisagreementError(
        "independently computed ones counts disagree: "
        + ", ".join(str(r) for r in results)
    )


def _cmd_check_rules(args) -> int:
    spec = load_spec(args.spec)
    found = findings(spec.function())
    if not found:
        print("no findings")
        return 0
    for finding in found:
        evidence = ", ".join(finding.evidence)
        print(f"[{finding.severity}] {finding.rule_id} ({evidence}): {finding.message}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BalanceGateError as exc:
        hint = f"; {exc.hint}" if exc.hint else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
