"""End-to-end command behavior: output text, exit codes, environment knobs."""

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from balancegate import cli, errors, lfsr, minterms
from balancegate.analyzer import analyze
from balancegate.anf import AnfFunction, RegisterLayout, parse_function
from balancegate.cli import main
from balancegate.errors import MissingPolynomialError
from balancegate.specfile import parse_spec
from conftest import COPRIME_SHAPES, generate_output, maximum_length_polynomials

GEFFE_SPEC = {
    "registers": [
        {"name": "a", "length": 2},
        {"name": "b", "length": 3},
        {"name": "c", "length": 5},
    ],
    "function": "a0*b0 ^ b0*c0 ^ c0",
}

TOY_SPEC = {
    "registers": [{"name": "m", "length": 3}],
    "function": "m2*m0 ^ m2*m1 ^ m1",
}

# the worked three-stage register, fully pinned: P = x^3 + x^2 + 1, seed 110
WORKED_REGISTER = {
    "name": "m",
    "length": 3,
    "polynomial": [3, 2, 0],
    "initial_state": "110",
}

ONE_MINTERM_SPEC = {
    "registers": [WORKED_REGISTER],
    "function": "m2*m1*m0 ^ m1*m0",
}

THREE_MINTERM_SPEC = {
    "registers": [WORKED_REGISTER],
    "function": "m2*m1*m0 ^ m2 ^ m1 ^ m0",
}

# 125 stages, wider than a 64-bit machine word; the function reads 8
WIDE_LAYOUT_SPEC = {
    "registers": [
        {"name": "a", "length": 29, "polynomial": [29, 2, 0]},
        {"name": "b", "length": 31, "polynomial": [31, 3, 0]},
        {"name": "c", "length": 32, "polynomial": [32, 22, 2, 1, 0]},
        {"name": "d", "length": 33, "polynomial": [33, 13, 0]},
    ],
    "function": "a0*b30 ^ c31*d32 ^ d0 ^ a28*c5*b0",
}

# one register whose states do not fit int64 at all
LONG_REGISTER_SPEC = {
    "registers": [{"name": "m", "length": 70, "polynomial": [70, 69, 55, 54, 0]}],
    "function": "m69*m0 ^ m35 ^ m1*m2*m68",
}

# a full period walks 2**25 - 1 states of m, past the 2**24 states a walk may hold
LONG_WALK_SPEC = {
    "registers": [{"name": "m", "length": 25, "polynomial": [25, 3, 0]}],
    "function": "m0",
}

# a has a built-in polynomial and b, past the verification bound, has none,
# so a simulation cannot clock
UNPINNED_25_SPEC = {
    "registers": [{"name": "a", "length": 3}, {"name": "b", "length": 25}],
    "function": "a0*b0 ^ b1",
}

# f never reads b, so a run walks no state of b, yet b's degree 25 is past
# the polynomial verification bound: only --trust-poly lets a full period run
UNREAD_LONG_SPEC = {
    "registers": [
        {"name": "a", "length": 3},
        {"name": "b", "length": 25, "polynomial": [25, 3, 0]},
    ],
    "function": "a0",
}


@pytest.fixture
def spec_file(tmp_path):
    def write(data, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    return write


class TestAnalyzeCommand:
    def test_reject_report(self, spec_file, capsys):
        code = main(["analyze", spec_file(GEFFE_SPEC)])
        out = capsys.readouterr().out
        assert code == 3
        assert "verdict:    REJECT" in out
        assert "ones:       392" in out
        assert "zeros:      259" in out
        assert "period:     651" in out
        assert "expected:   326" in out
        assert "deviation:  19/186 of the period" in out
        assert "magnitude:  irregular" in out
        assert "  +[1] 00000 001 01" in out
        assert "  +[1] 00001 000 00" in out
        assert "  -[1] 00001 001 00" in out

    def test_accept_with_tolerance_flag(self, spec_file, capsys):
        path = spec_file(
            {"registers": [{"name": "m", "length": 3}], "function": "m1*m0 ^ m2"}
        )
        code = main(["analyze", path, "--tolerance", "1/14"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict:    ACCEPT" in out
        assert "tolerance:  1/14" in out

    def test_tolerance_from_file_and_flag_override(self, spec_file, capsys):
        data = {
            "registers": [{"name": "m", "length": 3}],
            "function": "m1*m0 ^ m2",
            "tolerance": "1/14",
        }
        path = spec_file(data)
        assert main(["analyze", path]) == 0
        capsys.readouterr()
        assert main(["analyze", path, "--tolerance", "1/100"]) == 3

    def test_findings_section(self, spec_file, capsys):
        path = spec_file(
            {"registers": [{"name": "m", "length": 3}], "function": "m1*m0 ^ m2"}
        )
        main(["analyze", path])
        out = capsys.readouterr().out
        assert "findings:" in out
        assert "[guarantee] ISOLATED_LINEAR_TERM (m2):" in out

    def test_json_output_is_deterministic(self, spec_file, capsys):
        path = spec_file(GEFFE_SPEC)
        code = main(["analyze", path, "--json"])
        first = capsys.readouterr().out
        assert code == 3
        assert main(["analyze", path, "--json"]) == 3
        second = capsys.readouterr().out
        assert first == second
        parsed = json.loads(first)
        assert parsed["ones"] == "392"
        assert parsed["verdict"] == "reject"
        assert parsed["sum"][0] == {"mask": "00000 001 01", "coefficient": "1"}

    def test_missing_file(self, capsys):
        code = main(["analyze", "/nonexistent/spec.json"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["analyze", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_bad_expression(self, spec_file, capsys):
        path = spec_file({"registers": [{"name": "m", "length": 3}], "function": "m9"})
        assert main(["analyze", path]) == 2

    def test_bad_tolerance_flag(self, spec_file, capsys):
        path = spec_file(GEFFE_SPEC)
        assert main(["analyze", path, "--tolerance", "lots"]) == 2

    def test_sum_entry_cap(self, spec_file, capsys):
        path = spec_file(GEFFE_SPEC)
        code = main(["analyze", path, "--max-h-entries", "2"])
        assert code == 4
        assert capsys.readouterr().err == (
            "error: signed sum has 3 entries, past the cap of 2; raise the cap"
            " to continue\n"
        )

    @pytest.mark.parametrize(
        "raw", ["1e-5000", "1e-99999999", "1_0/1000", "1/" + "3" * 4998]
    )
    def test_tolerance_outside_the_grammar(self, spec_file, capsys, raw):
        flag = ["analyze", spec_file(GEFFE_SPEC), "--tolerance", raw]
        in_file = ["analyze", spec_file(dict(GEFFE_SPEC, tolerance=raw), "tol.json")]
        for argv in (flag, in_file):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: tolerance must be a fraction")
            assert captured.err.count("\n") == 1
            assert len(captured.err) <= 200

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize("cap", ["0", "-3", "many"])
    def test_sum_entry_cap_below_one_is_a_usage_error(
        self, spec_file, capsys, command, cap
    ):
        with pytest.raises(SystemExit) as info:
            main([command, spec_file(GEFFE_SPEC), "--max-h-entries", cap])
        assert info.value.code == 2
        assert "--max-h-entries" in capsys.readouterr().err

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(GEFFE_SPEC).encode("utf-16-le"))
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_nesting_too_deep(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")


class TestExpandCommand:
    def test_four_minterms(self, spec_file, capsys):
        assert main(["expand", spec_file(TOY_SPEC)]) == 0
        assert capsys.readouterr().out == "111, 101, 011, 010 (4 minterms)\n"

    def test_single_minterm(self, spec_file, capsys):
        assert main(["expand", spec_file(ONE_MINTERM_SPEC)]) == 0
        assert capsys.readouterr().out == "011 (1 minterm)\n"

    def test_cancelled_function(self, spec_file, capsys):
        path = spec_file(
            {"registers": [{"name": "m", "length": 3}], "function": "m0 ^ m0"}
        )
        assert main(["expand", path]) == 0
        assert capsys.readouterr().out == "0 minterms\n"

    def test_cancelled_function_on_a_wide_register(self, spec_file, capsys):
        path = spec_file(
            {"registers": [{"name": "m", "length": 128}], "function": "m0 ^ m0"}
        )
        assert main(["expand", path]) == 0
        assert capsys.readouterr().out == "0 minterms\n"

    def test_multi_register_grouping(self, spec_file, capsys):
        path = spec_file(
            {
                "registers": [{"name": "a", "length": 2}, {"name": "b", "length": 2}],
                "function": "a1*a0*b1*b0",
            }
        )
        assert main(["expand", path]) == 0
        assert capsys.readouterr().out == "11 11 (1 minterm)\n"


class TestSimulateCommand:
    def test_pinned_minterm_run(self, spec_file, capsys):
        code = main(["simulate", spec_file(ONE_MINTERM_SPEC), "--steps", "7", "--dump"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "1000000\nsteps: 7\nones: 1\n"
        assert captured.err == ""

    def test_full_period_worked_sequence(self, spec_file, capsys):
        code = main(["simulate", spec_file(THREE_MINTERM_SPEC), "--full-period", "--dump"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "0111000\nsteps: 7\nones: 3\n"

    def test_defaults_emit_notices(self, spec_file, capsys):
        code = main(["simulate", spec_file(GEFFE_SPEC), "--full-period"])
        captured = capsys.readouterr()
        assert code == 0
        assert "steps: 651\nones: 392\n" in captured.out
        assert captured.err.count("notice:") == 6
        assert "using built-in polynomial" in captured.err
        assert "using all-ones initial state" in captured.err

    def test_zero_steps(self, spec_file, capsys):
        code = main(["simulate", spec_file(GEFFE_SPEC), "--steps", "0", "--dump"])
        assert code == 0
        assert capsys.readouterr().out == "steps: 0\nones: 0\n"

    def test_negative_steps(self, spec_file, capsys):
        assert main(["simulate", spec_file(GEFFE_SPEC), "--steps", "-1"]) == 2

    def test_long_run_uses_chunks_and_wraps_dump(self, spec_file, capsys, monkeypatch):
        # 39 chunks of 128 bits and one of 8, so the dump crosses 39 chunk
        # boundaries
        monkeypatch.setattr(lfsr, "_CHUNK", 128)
        code = main(["simulate", spec_file(ONE_MINTERM_SPEC), "--steps", "5000", "--dump"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[-2:] == ["steps: 5000", "ones: 715"]
        bit_lines = lines[:-2]
        assert len(bit_lines) == 79
        assert all(len(line) == 64 for line in bit_lines[:-1])
        assert len(bit_lines[-1]) == 8
        assert "".join(bit_lines) == "1000000" * 714 + "10"

    def test_budget_env(self, spec_file, capsys, monkeypatch):
        monkeypatch.setenv("BALANCEGATE_MAX_PERIOD", "100")
        code = main(["simulate", spec_file(GEFFE_SPEC), "--full-period"])
        assert code == 4
        assert "BALANCEGATE_MAX_PERIOD" in capsys.readouterr().err

    def test_budget_is_checked_before_the_polynomials(
        self, spec_file, capsys, monkeypatch
    ):
        # b's degree-25 polynomial cannot be verified, and the budget refuses
        # the full period first, as verify's simulation does
        monkeypatch.setenv("BALANCEGATE_MAX_PERIOD", "100")
        data = {
            "registers": [
                {"name": "a", "length": 3},
                {"name": "b", "length": 25, "polynomial": [25, 3, 0]},
            ],
            "function": "a0",
        }
        code = main(["simulate", spec_file(data), "--full-period"])
        captured = capsys.readouterr()
        assert code == 4
        assert "exceed the simulation budget 100" in captured.err
        assert "--trust-poly" not in captured.err

    @pytest.mark.parametrize(
        "argv, steps",
        [
            (["verify"], 651),
            (["simulate", "--full-period"], 651),
            (["simulate", "--steps", "700"], 700),
        ],
    )
    def test_budget_message_is_shared(
        self, spec_file, capsys, monkeypatch, argv, steps
    ):
        # one check in the library words the refusal for both commands
        monkeypatch.setenv("BALANCEGATE_MAX_PERIOD", "100")
        code = main([argv[0], spec_file(GEFFE_SPEC), *argv[1:]])
        captured = capsys.readouterr()
        message = f"{steps} steps exceed the simulation budget 100"
        if argv[0] == "verify":
            assert code == 0
            assert f"simulated:   skipped ({message})\n" in captured.out
        else:
            assert code == 4
            assert captured.out == ""
            assert captured.err.splitlines()[-1] == (
                f"error: {message}; set BALANCEGATE_MAX_PERIOD to raise it"
            )

    def test_budget_variable_is_spelled_once(self):
        # the library's refusal hint and the command line read one name
        g = parse_spec(GEFFE_SPEC).instance()
        with pytest.raises(errors.ResourceLimitError) as refusal:
            lfsr.iter_output_chunks(g, 651, max_steps=100)
        assert lfsr.ENV_MAX_PERIOD in refusal.value.hint
        assert cli.ENV_MAX_PERIOD is lfsr.ENV_MAX_PERIOD

    @pytest.mark.parametrize("raw", ["zebra", "-5", "0"])
    def test_bad_budget_env(self, spec_file, capsys, monkeypatch, raw):
        # refused before any count is printed or any notice is given
        monkeypatch.setenv("BALANCEGATE_MAX_PERIOD", raw)
        path = spec_file(GEFFE_SPEC)
        for argv in (["simulate", path, "--full-period"], ["verify", path]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: BALANCEGATE_MAX_PERIOD must be")
            assert captured.err.count("\n") == 1

    def test_full_period_checks_polynomials(self, spec_file, capsys):
        data = {
            "registers": [
                {"name": "m", "length": 4, "polynomial": [4, 3, 2, 1, 0]}
            ],
            "function": "m0",
        }
        path = spec_file(data)
        code = main(["simulate", path, "--full-period"])
        assert code == 2
        assert "not maximum-length" in capsys.readouterr().err
        code = main(["simulate", path, "--full-period", "--trust-poly"])
        captured = capsys.readouterr()
        assert code == 0
        assert "steps: 15" in captured.out

    def test_partial_window_needs_no_verification(self, spec_file, capsys):
        data = {
            "registers": [
                {"name": "m", "length": 4, "polynomial": [4, 3, 2, 1, 0]}
            ],
            "function": "m0",
        }
        code = main(["simulate", spec_file(data), "--steps", "5"])
        assert code == 0
        assert "steps: 5" in capsys.readouterr().out

    @pytest.mark.parametrize("data", [WIDE_LAYOUT_SPEC, LONG_REGISTER_SPEC])
    @pytest.mark.parametrize("steps", [4096, 4097])
    def test_long_window_matches_stepwise_reference(self, spec_file, capsys, data, steps):
        code = main(["simulate", spec_file(data), "--steps", str(steps), "--dump"])
        out = capsys.readouterr().out
        assert code == 0
        reference = generate_output(parse_spec(data).instance(), steps)
        lines = out.splitlines()
        assert lines[-2:] == [f"steps: {steps}", f"ones: {sum(reference)}"]
        assert "".join(lines[:-2]) == "".join(map(str, reference))

    def test_window_past_a_short_cycle_is_rejected(self, spec_file, capsys):
        # x^4 + x^2 + 1 = (x^2 + x + 1)^2: the all-ones seed does not come back
        # after 15 steps, so a window up to 15 steps runs and a longer one wraps
        data = {
            "registers": [{"name": "m", "length": 4, "polynomial": [4, 2, 0]}],
            "function": "m0",
        }
        path = spec_file(data)
        assert main(["simulate", path, "--steps", "15"]) == 0
        assert "steps: 15" in capsys.readouterr().out
        assert main(["simulate", path, "--steps", "16"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "does not return to the seed" in captured.err

    @pytest.mark.parametrize("trust", [[], ["--trust-poly"]])
    def test_walk_past_the_state_cap_is_refused_before_any_walk(
        self, spec_file, capsys, monkeypatch, trust
    ):
        calls = []
        monkeypatch.setattr(lfsr, "state_cycle", lambda *a: calls.append(a))
        monkeypatch.setattr(lfsr, "_walk", lambda *a: calls.append(a))
        code = main(["simulate", spec_file(LONG_WALK_SPEC), "--full-period", *trust])
        captured = capsys.readouterr()
        assert code == 4
        assert calls == []
        assert captured.out == ""
        assert "register m: 33554431 states too many" in captured.err
        assert "--trust-poly" not in captured.err

    def test_steps_and_full_period_conflict(self, spec_file, capsys):
        with pytest.raises(SystemExit) as info:
            main(["simulate", spec_file(GEFFE_SPEC), "--steps", "5", "--full-period"])
        assert info.value.code == 2


class TestVerifyCommand:
    def test_three_way_agreement(self, spec_file, capsys):
        code = main(["verify", spec_file(GEFFE_SPEC)])
        out = capsys.readouterr().out
        assert code == 0
        assert "symbolic:    392" in out
        assert "truth-table: 392" in out
        assert "simulated:   392" in out
        assert "agreement:   PASS" in out

    def test_disagreement_exit_code(self, spec_file, capsys, monkeypatch):
        monkeypatch.setattr(
            "balancegate.cli.count_ones_simulated", lambda *a, **k: 9
        )
        code = main(["verify", spec_file(GEFFE_SPEC)])
        captured = capsys.readouterr()
        assert code == 5
        assert "agreement:   FAIL" in captured.out
        assert "392, 392, 9" in captured.err

    def test_wide_layout_skips_truth_table(self, spec_file, capsys):
        data = {
            "registers": [{"name": "m", "length": 21, "polynomial": [21, 2, 0]}],
            "function": "m0",
        }
        code = main(["verify", spec_file(data)])
        out = capsys.readouterr().out
        assert code == 0
        assert "symbolic:    1048576" in out
        assert "truth-table: skipped" in out
        assert "simulated:   1048576" in out
        assert "agreement:   PASS" in out

    def test_small_budget_skips_simulation(self, spec_file, capsys, monkeypatch):
        monkeypatch.setenv("BALANCEGATE_MAX_PERIOD", "100")
        code = main(["verify", spec_file(GEFFE_SPEC)])
        out = capsys.readouterr().out
        assert code == 0
        assert "simulated:   skipped" in out
        assert "agreement:   PASS" in out
        assert out.splitlines()[2] == (
            "simulated:   skipped (651 steps exceed the simulation budget 100)"
        )

    @pytest.mark.parametrize("length", [17, 20])
    def test_unpinned_register_is_simulated_up_to_the_bound(
        self, spec_file, capsys, length
    ):
        data = {"registers": [{"name": "m", "length": length}], "function": "m0"}
        assert main(["verify", spec_file(data)]) == 0
        half = 1 << (length - 1)
        assert capsys.readouterr() == (
            f"symbolic:    {half}\n"
            f"truth-table: {half}\n"
            f"simulated:   {half}\n"
            "agreement:   PASS\n",
            # x^17 + x^3 + 1 and x^20 + x^3 + 1 are the smallest masks
            f"notice: register m: using built-in polynomial x^{length}+x^3+1\n"
            "notice: register m: using all-ones initial state\n",
        )
        # a pinned polynomial is still checked, and x^L + 1 is not maximum-length
        data["registers"][0]["polynomial"] = [length, 0]
        assert main(["verify", spec_file(data)]) == 2
        assert "not maximum-length" in capsys.readouterr().err

    def test_skipped_simulation_prints_no_notice(self, spec_file, capsys):
        # past 20 stages no truth table runs either, so nothing is left to agree
        assert main(["verify", spec_file(UNPINNED_25_SPEC)]) == 2
        assert capsys.readouterr() == (
            "symbolic:    117440512\n"
            "truth-table: skipped (28-bit layout above the 20-bit truth-table"
            " guard)\n"
            "simulated:   skipped (register b: no built-in maximum-length"
            " polynomial for length 25)\n",
            "error: instance too large for any brute-force oracle; nothing to"
            " verify against\n",
        )

    def test_missing_polynomial_is_named_over_the_budget(
        self, spec_file, capsys, monkeypatch
    ):
        monkeypatch.setenv("BALANCEGATE_MAX_PERIOD", "100")
        data = {"registers": [{"name": "m", "length": 25}], "function": "m0"}
        assert main(["verify", spec_file(data)]) == 2
        assert capsys.readouterr().out.splitlines()[2] == (
            "simulated:   skipped (register m: no built-in maximum-length"
            " polynomial for length 25)"
        )

    @pytest.mark.parametrize("trust", [[], ["--trust-poly"]])
    def test_walk_past_the_state_cap_is_a_skip_note(self, spec_file, capsys, trust):
        code = main(["verify", spec_file(LONG_WALK_SPEC), *trust])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.endswith(
            "simulated:   skipped (register m: 33554431 states too many to"
            " materialize for vectorized output)\n"
        )
        assert "nothing to verify" in captured.err
        assert "--trust-poly" not in captured.err

    @pytest.mark.parametrize("argv", [["verify"], ["simulate", "--full-period"]])
    def test_unverifiable_polynomial_of_an_unread_register_needs_trust(
        self, spec_file, capsys, monkeypatch, argv
    ):
        calls = []
        monkeypatch.setattr(lfsr, "state_cycle", lambda *a: calls.append(a))
        monkeypatch.setattr(lfsr, "_walk", lambda *a: calls.append(a))
        code = main([argv[0], spec_file(UNREAD_LONG_SPEC), *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert calls == []
        if argv[0] == "verify":
            assert captured.out.splitlines() == [
                "symbolic:    134217724",
                "truth-table: skipped (28-bit layout above the 20-bit truth-table"
                " guard)",
            ]
        else:
            assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "error: register b: degree 25 is above the verification bound 24;"
            " the polynomial can only be trusted explicitly; pass --trust-poly"
            " to proceed"
        )

    def test_no_oracle_available(self, spec_file, capsys, monkeypatch):
        monkeypatch.setenv("BALANCEGATE_MAX_PERIOD", "100")
        data = {
            "registers": [{"name": "m", "length": 21, "polynomial": [21, 2, 0]}],
            "function": "m0",
        }
        code = main(["verify", spec_file(data)])
        assert code == 2
        assert "nothing to verify" in capsys.readouterr().err


class TestCheckRulesCommand:
    def test_multi_register_isolated_term_prints_its_interval(self, spec_file, capsys):
        path = spec_file(
            {
                "registers": [{"name": "a", "length": 4}, {"name": "b", "length": 5}],
                "function": "b4 ^ b2 ^ b0*a2*a0 ^ b0 ^ a3 ^ a2*a1",
            }
        )
        assert main(["check-rules", path]) == 0
        assert capsys.readouterr().out == (
            "[guarantee] ISOLATED_LINEAR_TERM (a3): variable a3 of register a"
            " forms a monomial of its own and appears in no other monomial; the"
            " full-period output carries between 217 and 248 ones\n"
        )

    def test_single_register_guarantee_prints(self, spec_file, capsys):
        path = spec_file(
            {"registers": [{"name": "m", "length": 3}], "function": "m1*m0 ^ m2"}
        )
        assert main(["check-rules", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("[guarantee] ISOLATED_LINEAR_TERM (m2):")

    def test_common_factor_warning(self, spec_file, capsys):
        path = spec_file(
            {"registers": GEFFE_SPEC["registers"], "function": "a0*b0 ^ b0*c0 ^ b0"}
        )
        assert main(["check-rules", path]) == 0
        assert capsys.readouterr().out == (
            "[guarantee] COMMON_FACTOR (b0): variable b0 appears in every"
            " monomial; the full-period output carries at most 372 ones\n"
        )

    def test_plain_combiner_has_no_findings(self, spec_file, capsys):
        assert main(["check-rules", spec_file(GEFFE_SPEC)]) == 0
        assert capsys.readouterr().out == "no findings\n"

    def test_prints_analyze_findings(self, spec_file, capsys):
        rng = random.Random(4001)
        printed = 0
        for i in range(60):
            shape = COPRIME_SHAPES[i % len(COPRIME_SHAPES)]
            layout = RegisterLayout.from_lengths(list(shape))
            # low-degree monomials, so linear terms and shared factors occur
            terms = set()
            for _ in range(rng.randint(1, 5)):
                mask = 0
                for _ in range(rng.randint(1, 3)):
                    mask |= 1 << rng.randrange(layout.total_length)
                terms ^= {mask}
            if not terms:
                continue
            f = AnfFunction(layout, frozenset(terms))
            data = {
                "registers": [{"name": n, "length": m} for n, m in shape],
                "function": f.to_text(),
            }
            expected = [
                f"[{x.severity}] {x.rule_id} ({', '.join(x.evidence)}): {x.message}"
                for x in analyze(f).findings
            ]
            printed += bool(expected)
            assert main(["check-rules", spec_file(data)]) == 0
            out = capsys.readouterr().out
            assert out.splitlines() == (expected or ["no findings"])
        assert printed >= 20

    @pytest.mark.parametrize("function", ["a0*b0 ^ c0", "a0*b0"])
    def test_non_coprime_layout_exits_2_as_analyze_does(self, spec_file, capsys, function):
        lengths = {"a": 2, "b": 4, "c": 5}
        registers = [{"name": n, "length": m} for n, m in lengths.items()]
        path = spec_file({"registers": registers, "function": function})
        assert main(["analyze", path]) == 2
        refused = capsys.readouterr()
        assert main(["check-rules", path]) == 2
        assert capsys.readouterr() == refused
        assert refused.out == ""
        assert refused.err == (
            "error: register lengths must be pairwise coprime for period computation\n"
        )


# descriptions the loader refuses, each with its one error line
_REJECTED_DESCRIPTIONS = [
    ({"function": "m0"}, 'description needs "registers" and "function"'),
    ({"registers": [], "function": "m0"}, '"registers" must be a non-empty list'),
    (
        {"registers": [{"name": "m", "length": 3}]},
        'description needs "registers" and "function"',
    ),
    (
        {"registers": [{"name": "m", "length": 3}], "function": ""},
        '"function" must be a non-empty string',
    ),
    (
        {"registers": [{"name": "m", "length": 3}], "function": "m0", "extra": 1},
        "unknown keys: extra",
    ),
    (
        {"registers": [{"name": "m", "length": 3, "taps": [1]}], "function": "m0"},
        "registers[0]: unknown keys: taps",
    ),
    (
        {"registers": [{"name": "mm", "length": 3}], "function": "m0"},
        "register name must be a single letter, got 'mm'",
    ),
    (
        {"registers": [{"name": "m", "length": 0}], "function": "m0"},
        'registers[0]: "length" must be a positive integer',
    ),
    (
        {"registers": [{"name": "m", "length": True}], "function": "m0"},
        'registers[0]: "length" must be a positive integer',
    ),
    (
        {
            "registers": [{"name": "m", "length": 3, "polynomial": [3, 1]}],
            "function": "m0",
        },
        "registers[0]: connection polynomial needs both the x^3 term and a"
        " constant term",
    ),
    (
        {
            "registers": [{"name": "m", "length": 3, "polynomial": [3, 1, 1, 0]}],
            "function": "m0",
        },
        'registers[0]: "polynomial" has repeated exponents',
    ),
    (
        {
            "registers": [{"name": "m", "length": 3, "initial_state": "000"}],
            "function": "m0",
        },
        "registers[0]: initial state must be nonzero and fit the register",
    ),
    (
        {
            "registers": [{"name": "m", "length": 3, "initial_state": "11"}],
            "function": "m0",
        },
        'registers[0]: "initial_state" must be a 3-character string of 0s and'
        " 1s (stage 0 first)",
    ),
    (
        {"registers": [{"name": "m", "length": 3}], "function": "m0", "tolerance": 0.01},
        'tolerance must be a fraction like "1/100", got 0.01',
    ),
    (
        {"registers": [{"name": "m", "length": 3}], "function": "m0", "tolerance": "2/3"},
        "tolerance must lie in [0, 1/2]",
    ),
    (
        {
            "registers": [{"name": "a", "length": 2}, {"name": "a", "length": 3}],
            "function": "a0",
        },
        "duplicate register name 'a'",
    ),
    (
        {
            "registers": [{"name": "a", "length": 2}, {"name": "b", "length": 4}],
            "function": "a0 ^ b0",
        },
        "register lengths must be pairwise coprime for period computation",
    ),
    ({"registers": [5], "function": "a0"}, "registers[0]: must be an object"),
    (
        {"registers": [{"name": 7, "length": 3}], "function": "m0"},
        'registers[0]: "name" must be a string',
    ),
    (
        {
            "registers": [{"name": "m", "length": 3, "polynomial": "x^3 + 1"}],
            "function": "m0",
        },
        'registers[0]: "polynomial" must be a list of integers',
    ),
    (
        {
            "registers": [{"name": "m", "length": 3, "polynomial": [3, True, 0]}],
            "function": "m0",
        },
        'registers[0]: "polynomial" must be a list of integers',
    ),
    # a letter outside the function grammar's [A-Za-z] could never be read
    (
        {"registers": [{"name": "é", "length": 3}], "function": "é0"},
        "register name must be a single letter, got 'é'",
    ),
]


class TestSpecFileValidation:
    # ids by position (data0, data1, ...), so a case keeps its id when its
    # message changes
    @pytest.mark.parametrize(
        "data, error",
        _REJECTED_DESCRIPTIONS,
        ids=[f"data{i}" for i in range(len(_REJECTED_DESCRIPTIONS))],
    )
    def test_rejected_descriptions(self, spec_file, capsys, data, error):
        assert main(["analyze", spec_file(data)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_instance_resolves_every_register_before_any_notice(self):
        spec = parse_spec(UNPINNED_25_SPEC)
        notices = []
        with pytest.raises(MissingPolynomialError, match="^register b: no built-in"):
            spec.instance(notice=notices.append)
        assert notices == []
        spec = parse_spec(GEFFE_SPEC)
        g = spec.instance(notice=notices.append)
        assert len(notices) == 6
        assert g.layout is spec.layout
        assert spec.function().layout is spec.layout

    def test_length_without_builtin_polynomial(self, spec_file, capsys):
        # b is named before a's defaults would be
        code = main(["simulate", spec_file(UNPINNED_25_SPEC), "--steps", "5"])
        assert code == 2
        assert capsys.readouterr() == (
            "",
            "error: register b: no built-in maximum-length polynomial for length"
            " 25; supply one explicitly\n",
        )


class TestIntegerLimits:
    """Input past Python's integer limits exits 2 with one error line."""

    @staticmethod
    def assert_refused(capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        return err

    @pytest.mark.parametrize(
        "registers, function",
        [
            ([{"name": "a", "length": 3}, {"name": "b", "length": 4}], "b" + "9" * 5000),
            ([{"name": "m", "length": 5}], "m0 ^ " + "9" * 5000),
        ],
        ids=["with-letter", "bare"],
    )
    def test_variable_index_of_5000_digits(self, spec_file, capsys, registers, function):
        path = spec_file({"registers": registers, "function": function})
        err = self.assert_refused(capsys, ["analyze", path])
        # the index is named by its digit count, not echoed
        assert len(err) <= 200 and "5000 digits" in err

    @pytest.mark.parametrize(
        "registers, function",
        [
            ([{"name": "m", "length": 5}], "m0 ^ m1x" + "9" * 5000),
            ([{"name": "a", "length": 3}, {"name": "b", "length": 4}], "a0 ^ " + "9" * 5000),
            ([{"name": "m", "length": 5}], "m0 ^ m1**m" + "9" * 5000),
        ],
        ids=["malformed", "no-letter", "stray-star"],
    )
    def test_long_token_is_cut_in_parse_errors(self, spec_file, capsys, registers, function):
        path = spec_file({"registers": registers, "function": function})
        err = self.assert_refused(capsys, ["analyze", path])
        assert len(err) <= 200

    def test_budget_env_of_5000_digits(self, spec_file, capsys, monkeypatch):
        monkeypatch.setenv("BALANCEGATE_MAX_PERIOD", "9" * 5000)
        err = self.assert_refused(capsys, ["verify", spec_file(GEFFE_SPEC)])
        assert len(err) <= 200

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--steps", "9" * 5000],
            ["analyze", "--max-h-entries", "9" * 5000],
            ["analyze", "--max-h-entries", "-" + "9" * 4000],
        ],
        ids=["steps", "max-h-entries", "max-h-entries-negative"],
    )
    def test_option_of_5000_digits(self, spec_file, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main([argv[0], spec_file(GEFFE_SPEC), *argv[1:]])
        assert info.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert f"error: argument {argv[1]}: " in last
        assert len(last) <= 200

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_more_than_10000_stages(self, spec_file, capsys, flags):
        data = {"registers": [{"name": "m", "length": 15000}], "function": "m0*m1"}
        self.assert_refused(capsys, ["analyze", spec_file(data), *flags])
        data["registers"] = [{"name": "a", "length": 5000}, {"name": "b", "length": 5001}]
        data["function"] = "a0*b0"
        self.assert_refused(capsys, ["analyze", spec_file(data), *flags])

    @pytest.mark.parametrize("length", [10**30, 3_000_000_000])
    def test_register_length_past_10000(self, spec_file, capsys, length):
        data = {"registers": [{"name": "m", "length": length}], "function": "m0"}
        self.assert_refused(capsys, ["analyze", spec_file(data)])

    def test_10000_stages_still_print(self, spec_file, capsys):
        data = {"registers": [{"name": "m", "length": 10000}], "function": "m9999"}
        assert main(["analyze", spec_file(data), "--json"]) == 0
        period = json.loads(capsys.readouterr().out)["period"]
        assert period == str((1 << 10000) - 1)


# one key of a register replaced or added (None drops it)
_BREAKAGES = [
    ("length", None),
    ("length", 0),
    ("length", True),
    ("length", "7"),
    ("length", 10**30),
    ("name", "mm"),
    ("name", 7),
    ("taps", [1]),
    ("polynomial", "x^3 + 1"),
    ("polynomial", [17, 0]),
    ("polynomial", [2, 2, 0]),
    ("initial_state", ""),
    ("initial_state", 5),
]
# text spliced into a function: stray operators, and variables with unknown
# letters, indices out of range or past Python's 4300-digit int() limit
_STRAYS = st.sampled_from(["*", "^", "+", " ^ ", "**", "(", "!", "0", "1", "\n"])
_INDICES = st.one_of(
    st.integers(0, 10**6).map(str),
    st.integers(4301, 6000).map(lambda n: "9" * n),
)


@st.composite
def _specs(draw):
    """A description that is mostly valid; each part breaks now and then."""

    def rarely() -> bool:
        return draw(st.sampled_from([False] * 7 + [True]))

    if draw(st.booleans()):
        shape = draw(st.sampled_from(COPRIME_SHAPES))
    else:
        names = draw(
            st.lists(st.sampled_from("abcm"), min_size=1, max_size=3, unique=True)
        )
        shape = [(name, draw(st.integers(1, 16))) for name in names]
    registers = []
    for name, length in shape:
        reg = {"name": name, "length": length}
        table = maximum_length_polynomials(length)
        if table and draw(st.booleans()):
            reg["polynomial"] = list(draw(st.sampled_from(table)))
        if draw(st.booleans()):
            seed = draw(st.integers(1, (1 << length) - 1))
            reg["initial_state"] = format(seed, f"0{length}b")[::-1]
        if rarely():
            key, value = draw(st.sampled_from(_BREAKAGES))
            if value is None:
                del reg[key]
            else:
                reg[key] = value
        registers.append(reg)

    variables = [f"{name}{i}" for name, length in shape for i in range(length)]
    monomials = st.lists(st.sampled_from(variables), min_size=1, max_size=3)
    function = " ^ ".join(
        "*".join(m) for m in draw(st.lists(monomials, min_size=1, max_size=6))
    )
    # mostly variables of known registers, mostly appended as a new term
    letters = [name for name, _ in shape] * 2 + ["x", "é", ""]
    variable = st.tuples(
        st.sampled_from([" ^ ", " ^ ", "*", ""]), st.sampled_from(letters), _INDICES
    ).map("".join)
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        splice = draw(draw(st.sampled_from([_STRAYS, variable, variable])))
        at = draw(st.one_of(st.just(len(function)), st.integers(0, len(function))))
        function = function[:at] + splice + function[at:]

    data = {"registers": registers, "function": function}
    if rarely():
        data["function"] = draw(st.sampled_from([None, 3, "", " "]))
    if rarely():
        data = draw(st.sampled_from([[data], {"registers": registers}]))
    return data


class TestFuzz:
    """Random descriptions through the command line end in an exit code and,
    on failure, an error message; never in a traceback."""

    @pytest.mark.parametrize(
        "command",
        ["analyze", "check-rules", "expand", "verify", "simulate --full-period"],
    )
    @settings(max_examples=100, deadline=None)
    @given(data=_specs())
    def test_exit_codes(self, tmp_path_factory, command, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        # verify and simulate clock no more than 2**16 bits per example
        budget = {"BALANCEGATE_MAX_PERIOD": str(1 << 16)}
        with mock.patch.dict(os.environ, budget), redirect_stdout(out), redirect_stderr(err):
            code = main([*command.split(), str(path)])
        # the commands that clock never return 3, and 5 would be a
        # disagreement of verify's counts
        clocks = command.split()[0] in ("verify", "simulate")
        assert code in ((0, 2, 4) if clocks else (0, 2, 3, 4))
        if code in (2, 4):
            *notices, last = err.getvalue().splitlines()
            assert last.startswith("error: ")
            # only the commands that clock the registers name the defaults
            # they pick
            assert all(line.startswith("notice: ") for line in notices)
            assert clocks or not notices


class TestTopLevel:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("balancegate ")


# every error type and the hint main prints after its message
_HINTS = {
    errors.BalanceGateError: "",
    errors.ValidationError: "",
    errors.ExpressionError: "",
    errors.UnverifiedPolynomialError: "pass --trust-poly to proceed",
    errors.MissingPolynomialError: "supply one explicitly",
    errors.ResourceLimitError: "",
    errors.DisagreementError: "",
    errors.InternalCheckError: "",
}


class TestErrorHints:
    def test_every_error_type_is_listed(self):
        types = {
            value
            for value in vars(errors).values()
            if isinstance(value, type) and issubclass(value, errors.BalanceGateError)
        }
        assert types == set(_HINTS)

    @pytest.mark.parametrize("error", list(_HINTS), ids=lambda e: e.__name__)
    def test_main_appends_the_hint(self, spec_file, capsys, monkeypatch, error):
        def refuse(path):
            raise error("it went wrong")

        monkeypatch.setattr("balancegate.cli.load_spec", refuse)
        assert main(["analyze", spec_file(GEFFE_SPEC)]) == error.exit_code
        hint = _HINTS[error]
        assert capsys.readouterr() == (
            "",
            f"error: it went wrong; {hint}\n" if hint else "error: it went wrong\n",
        )


# the cli-cold benchmark's 128-stage design and its malformed description,
# whose register length is missing
WIDE_SPEC = {
    "registers": [{"name": "m", "length": 128}],
    "function": "m127*m64 ^ m100*m55*m3 ^ m0",
}
MALFORMED_SPEC = {"registers": [{"name": "a"}], "function": "a0"}

# one component of k = 11 variables and n = 20 masks, so the dense engine
# runs: m0·m_i, i = 1..10, twice (the sum cancels to nothing), and the
# function m0·m_i ^ m_i, i = 1..10
DENSE_MASKS = [1 | 1 << i for i in range(1, 11)] * 2
DENSE_TEXT = " ^ ".join(f"m0*m{i} ^ m{i}" for i in range(1, 11))

_MAIN_SCRIPT = """
import contextlib, io, json, sys
from balancegate.cli import main
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main(json.loads(sys.argv[1]))
print(json.dumps(
    {"code": code, "out": out.getvalue(), "err": err.getvalue(),
     "numpy": "numpy" in sys.modules}
))
"""

_DENSE_SCRIPT = """
import json, sys
from balancegate import minterms
from balancegate.anf import RegisterLayout, parse_function
from balancegate.analyzer import analyze
from balancegate.lfsr import count_ones_truthtable
masks, text = json.loads(sys.argv[1])
f = parse_function(text, RegisterLayout.single(11))
ones = analyze(f).ones
# only the dense engine has loaded numpy so far
dense = "numpy" in sys.modules
*_, build = minterms._component_sum(masks, 100, f.layout)
print(json.dumps(
    {"ones": ones, "dense": dense, "truthtable": count_ones_truthtable(f),
     "sum": len(build())}
))
"""


def _run_fresh(script: str, *args: str):
    """Run script in a new interpreter that imports the package from src/
    and return its last stdout line, read as JSON."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


class TestColdStart:
    """numpy is imported only inside the functions that build arrays, so a
    command that only folds starts without it.  This module has numpy loaded,
    so only a new interpreter can see that."""

    def test_importing_the_package_and_cli_leaves_numpy_unloaded(self):
        script = "import json, sys, balancegate, balancegate.cli\n"
        script += 'print(json.dumps("numpy" in sys.modules))'
        assert _run_fresh(script) is False

    @pytest.mark.parametrize(
        "spec, argv, code",
        [
            (GEFFE_SPEC, ["analyze"], 3),
            (GEFFE_SPEC, ["analyze", "--json"], 3),
            (WIDE_SPEC, ["check-rules"], 0),
            # three fold components, so their weight histograms combine
            (WIDE_SPEC, ["analyze"], 0),
            (MALFORMED_SPEC, ["analyze"], 2),
        ],
        ids=[
            "analyze-geffe",
            "analyze-geffe-json",
            "check-rules-wide",
            "analyze-wide",
            "malformed",
        ],
    )
    def test_fold_only_commands_run_without_numpy(self, spec_file, capsys, spec, argv, code):
        args = [argv[0], spec_file(spec), *argv[1:]]
        fresh = _run_fresh(_MAIN_SCRIPT, json.dumps(args))
        assert main(args) == code
        captured = capsys.readouterr()
        assert fresh == {
            "code": code,
            "out": captured.out,
            "err": captured.err,
            "numpy": False,
        }

    def test_dense_engine_loads_numpy_on_first_use(self):
        f = parse_function(DENSE_TEXT, RegisterLayout.single(11))
        fresh = _run_fresh(_DENSE_SCRIPT, json.dumps([DENSE_MASKS, DENSE_TEXT]))
        assert fresh == {
            "ones": analyze(f).ones,
            "dense": True,
            "truthtable": lfsr.count_ones_truthtable(f),
            "sum": len(minterms._component_sum(DENSE_MASKS, 100, f.layout)[3]()),
        }
        assert fresh["ones"] == fresh["truthtable"] and fresh["sum"] == 0
