"""The benchmark's own generator, reference checker and trace helpers."""

import array
import hashlib
import json
import random
from pathlib import Path

import pytest

import reference
import run
import tracing
import worker
import workloads
from balancegate import RegisterLayout, count_ones_truthtable, minterm_expansion
from balancegate.specfile import parse_spec

ROOT = Path(__file__).resolve().parents[2]


def _bytes(workload, seed):
    return json.dumps(workloads.generate(workload, seed), sort_keys=True).encode()


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    assert _bytes(workload, 7) == _bytes(workload, 7)
    assert _bytes(workload, 7) != _bytes(workload, 8)


def test_fold_wide_seeds_keep_the_fold_order():
    # the seed moves each design's variables but keeps their order, so the
    # fold meets the monomials in the same order for every seed
    def ranks(design):
        _, terms = reference.parse(design["spec"])
        support = sorted(set().union(*terms))
        order = sorted(terms, key=lambda t: sum(1 << b for b in t))
        return [sorted(support.index(b) for b in t) for t in order]

    for a, b in zip(workloads.fold_wide(1, count=20), workloads.fold_wide(2, count=20)):
        assert a["spec"] != b["spec"]
        assert ranks(a) == ranks(b)


def test_fold_wide_shape():
    designs = workloads.fold_wide(3, count=2 * workloads.FOLD_TAIL_EVERY)
    for d in designs:
        _, terms = reference.parse(d["spec"])
        support = len(set().union(*terms))
        if d["kind"] == "tail":
            assert d["id"] % workloads.FOLD_TAIL_EVERY == workloads.FOLD_TAIL_EVERY - 1
            assert support in workloads.FOLD_TAIL_SUPPORTS
        else:
            assert support == workloads.FOLD_SUPPORTS[d["id"] % len(workloads.FOLD_SUPPORTS)]
            assert support <= len(terms) <= 2 * support
        assert all(1 <= len(t) <= 4 for t in terms)


def test_generated_specs_load():
    for workload in sorted(workloads.GENERATORS):
        for d in workloads.generate(workload, 1)[:60]:
            if d["kind"] == "analyze-malformed":
                continue
            parse_spec(d["spec"]).function()


def _random_coprime_design(rng):
    shapes = [s for s in workloads.coprime_layouts(range(2, 15)) if sum(s) <= 14]
    if rng.random() < 0.25:
        lengths = (rng.randint(2, 14),)
    else:
        lengths = rng.choice(shapes)
    width = sum(lengths)
    terms = set()
    for _ in range(rng.randint(1, 8)):
        terms ^= {frozenset(rng.sample(range(width), rng.randint(1, min(4, width))))}
    if not terms:
        terms = {frozenset([0])}
    return workloads._spec(tuple(zip("abc", lengths)), terms)


def test_projected_reference_matches_truth_table():
    rng = random.Random(11)
    for _ in range(200):
        spec = _random_coprime_design(rng)
        f = parse_spec(spec).function()
        assert reference.projected_ones(spec) == count_ones_truthtable(f), spec


def test_projected_reference_wide_register():
    spec = workloads.WIDE
    assert reference.projected_ones(spec) == reference.WIDE_ONES


def test_family_counts_match_reference():
    for text, ones in workloads.FAMILY:
        spec = {
            "registers": [{"name": n, "length": m} for n, m in workloads.FAMILY_LAYOUT],
            "function": text,
        }
        assert reference.projected_ones(spec) == ones


def test_expansion_digest_matches_program():
    rng = random.Random(12)
    for _ in range(30):
        spec = _random_coprime_design(rng)
        masks = array.array("q", sorted(minterm_expansion(parse_spec(spec).function())))
        digest = hashlib.sha256(masks.tobytes()).hexdigest()
        assert reference.expansion_digest(spec) == {"minterms": len(masks), "sha256": digest}


def test_checkers_flag_wrong_counts():
    design = workloads.fold_wide(1, count=1)[0]
    right = str(reference.projected_ones(design["spec"]))
    assert reference.check_fold(design, {"ones": right, "entries": 1}) is None
    assert reference.check_fold(design, {"ones": right + "0", "entries": 1})
    cli = {"kind": "expand-toy"}
    assert reference.check_cli(cli, {"code": 0, "stdout": reference.TOY_EXPAND, "stderr": ""}) is None
    assert reference.check_cli(cli, {"code": 0, "stdout": "1 minterm\n", "stderr": ""})


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_self_times_subtract_children():
    spans = [
        ["op", 0, 100, -1, 0, 0, "ok"],
        ["a", 10, 60, 0, 0, 0, "ok"],
        ["b", 20, 30, 1, 0, 0, "ok"],
        ["c", 70, 90, 0, 0, 0, "ok"],
    ]
    assert tracing.self_times(spans) == [30, 40, 10, 20]


def test_tracer_records_nested_spans_and_restores():
    tracer = tracing.Tracer()
    inner = tracer.span("inner", lambda x: x + 1)
    outer = tracer.span("outer", lambda x: inner(x) * 2)
    tracer.op = 5
    assert outer(1) == 4
    names = [(s[tracing.NAME], s[tracing.PARENT], s[tracing.OP]) for s in tracer.spans]
    assert names == [("outer", -1, 5), ("inner", 0, 5)]

    import balancegate.analyzer as analyzer

    original = analyzer.analyze
    tracer.install()
    assert analyzer.analyze is not original
    analyzer.analyze(parse_spec(workloads.GEFFE).function())
    tracer.uninstall()
    assert analyzer.analyze is original
    recorded = {s[tracing.NAME] for s in tracer.spans}
    assert {"analyzer.analyze", "minterms.accumulate", "analyzer.findings"} <= recorded


def test_importtime_parsing():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       381 |        913 | site\n"
        "import time:      3000 |       3000 |     numpy.core\n"
        "import time:       500 |       9000 |   numpy\n"
        "import time:      8058 |      20000 | balancegate\n"
        "import time:       976 |       1775 | argparse\n"
        "error: something\n"
    )
    entries, rest = tracing.parse_importtime(stderr)
    assert rest == "error: something\n"
    assert entries[0] == (0, "site", 913)
    assert entries[1] == (2, "numpy.core", 3000)
    assert tracing.import_costs(entries) == (0.021775, 0.009)


def test_layout_helper_matches_program_layouts():
    for lengths in workloads.coprime_layouts():
        layout = RegisterLayout.from_lengths(list(zip("abc", lengths)))
        assert layout.has_coprime_lengths()
        assert 12 <= layout.total_length <= 20


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_a_run_holds_enough_samples_for_p90(workload):
    # latency percentiles are over the designs of a pass, each at the median
    # of its samples; a run holds at least MIN_OPS operations, so at least
    # ten samples and five designs lie beyond p90
    assert worker.MIN_OPS >= 100
    assert len(workloads.generate(workload, 1)) >= 50


def test_only_the_fold_tail_may_be_refused():
    designs = workloads.fold_wide(1)
    tails = [d for d in designs if d["kind"] == "tail"]
    assert tails
    assert all(reference.must_refuse_fold(d) for d in tails)
    assert not any(reference.must_refuse_fold(d) for d in designs if d["kind"] == "body")
    body = designs[0]
    ops = [
        {"design": tails[0]["id"], "status": "refused", "out": None},
        {"design": body["id"], "status": "refused", "out": None},
        {"design": body["id"], "status": "raised", "out": None},
    ]
    by_id = {d["id"]: d for d in designs}
    assert run._check("fold-wide", by_id, ops) == ({1, 2}, [])
