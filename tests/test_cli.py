import argparse
import ast
import csv
import inspect
import itertools
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from painleve4 import (
    EquationKind,
    InitialData,
    Params,
    ScalarField,
    Tolerances,
    TrajectoryStatus,
    WrongKind,
    check_curvature_theorem,
    constraint_c,
    integrate,
    locate_zeros,
)
from painleve4 import cli
from painleve4.cli import (
    CSV_HEADER,
    build_parser,
    fmt_float,
    main,
    read_trajectory_csv,
    run_sweep,
    summary_json,
    write_trajectory_csv,
)
from painleve4.equations import _trusted_jet

K = EquationKind


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
@settings(max_examples=300)
def test_seventeen_digits_round_trip(x):
    assert float(fmt_float(x)) == x


#: doubles a trajectory CSV must write as fmt_float does: signed zero, infinities, NaN and both ends of the range
_EDGE_DOUBLES = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max)


class TestIntegrateCommand:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        summary = tmp_path / "s.json"
        code = main(
            [
                "integrate",
                "--eq", "xxxii",
                "--z0", "0", "--w0", "2", "--w1", "3",
                "--span", "4",
                "--out", str(out), "--summary", str(summary),
            ]
        )
        assert code == 0
        rows = read_trajectory_csv(out)
        assert rows
        worst = max(abs(r["w_re"] - (r["z_re"] ** 2 + 3 * r["z_re"] + 2)) for r in rows)
        assert worst < 1e-9
        assert all(r["z_im"] == 0.0 and r["w_im"] == 0.0 for r in rows)
        doc = json.loads(summary.read_text(encoding="utf-8"))
        assert doc["equation"] == "xxxii"
        assert doc["status"] == "completed"
        assert doc["convention"] == "Ince XXXI β² convention"
        assert doc["node_count"] == len(rows)
        assert doc["events"] == []
        for key in ("params", "field", "pole_estimate", "max_abs_res2"):
            assert key in doc
        # res2 is the one monitor: the piv constraint's maximum is not reported
        assert "max_abs_c" not in doc
        # the pole's bound follows its estimate, null on a run without a pole
        keys = list(doc)
        assert keys[keys.index("pole_estimate") + 1] == "pole_bound" and doc["pole_bound"] is None

    @pytest.mark.parametrize(
        "eq, w0, w1, span, w_end",
        [("xxxii", "2", "3", "200", 40602.0), ("xvii", "1", "4", "100", 40401.0)],
    )
    def test_quadratic_past_the_cutoff_completes(self, eq, w0, w1, span, w_end, tmp_path):
        # one exact step takes |w| past 1e4; a quadratic has no pole
        out, summary = tmp_path / "t.csv", tmp_path / "s.json"
        code = main(["integrate", "--eq", eq, "--z0", "0", "--w0", w0, "--w1", w1, "--span", span,
                     "--out", str(out), "--summary", str(summary)])
        assert code == 0
        doc = json.loads(summary.read_text(encoding="utf-8"))
        assert (doc["status"], doc["node_count"], doc["pole_estimate"]) == ("completed", 2, None)
        assert read_trajectory_csv(out)[-1]["w_re"] == w_end

    def test_pole_run_exits_zero_with_estimate(self, tmp_path):
        code = main(
            [
                "integrate",
                "--eq", "xxix",
                "--z0", "0", "--w0", "1", "--w1", "1",
                "--span", "2",
                "--out", str(tmp_path / "t.csv"), "--summary", str(tmp_path / "s.json"),
            ]
        )
        assert code == 0
        doc = json.loads((tmp_path / "s.json").read_text(encoding="utf-8"))
        assert doc["status"] == "pole"
        assert abs(doc["pole_estimate"] - 1.0) < 1e-10
        assert 0.0 <= doc["pole_bound"] <= 1e-10 * (1.0 + doc["pole_estimate"])

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 11: pole_bound leaves out the error carried from z0")
    def test_readme_pole_estimate_lies_within_its_bound(self, tmp_path):
        # the exact pole of w = 1/(1 - z) is at 1; the estimate misses it by
        # 1.78e-15 against a bound of 1.88e-16
        args = ["integrate", "--eq", "xxix", "--z0", "0", "--w0", "1", "--w1", "1", "--span", "2"]
        assert main([*args, "--out", str(tmp_path / "t.csv"), "--summary", str(tmp_path / "s.json")]) == 0
        doc = json.loads((tmp_path / "s.json").read_text(encoding="utf-8"))
        assert abs(doc["pole_estimate"] - 1.0) <= doc["pole_bound"]

    @pytest.mark.parametrize(
        "args, pole",
        [
            (["--eq", "xxix", "--z0", "0", "--w0", "1", "--w1", "1", "--span", "1"], 1.0),
            (["--eq", "piv", "--alpha", "2", "--beta", "2", "--z0", "1", "--w0", "1", "--w1", "-1", "--w2", "2",
              "--span", "-1"], 0.0),
        ],
        ids=["xxix-1-over-1-minus-z", "piv-1-over-z"],
    )  # fmt: skip
    def test_a_pole_at_the_span_end_ends_the_run_there(self, args, pole, tmp_path):
        # the exact pole is the span's end, and its series root lies past it by the root's own error
        summary = tmp_path / "s.json"
        assert main(["integrate", *args, "--out", str(tmp_path / "t.csv"), "--summary", str(summary)]) == 0
        doc = json.loads(summary.read_text(encoding="utf-8"))
        assert doc["status"] == "pole"
        assert abs(doc["pole_estimate"] - pole) <= 1e-12

    def test_a_span_ending_within_the_tolerance_before_a_pole_ends_at_the_pole(self, tmp_path):
        # the pole at 1 lies 1e-11 past the span's end, inside abs + rel |z + r|
        # (2e-10 here), so the run ends `pole` with an estimate beyond the span
        summary = tmp_path / "s.json"
        argv = ["integrate", "--eq", "xxix", "--z0", "0", "--w0", "1", "--w1", "1", "--span", repr(1 - 1e-11),
                "--out", str(tmp_path / "t.csv"), "--summary", str(summary)]  # fmt: skip
        assert main(argv) == 0
        doc = json.loads(summary.read_text(encoding="utf-8"))
        assert doc["status"] == "pole"
        assert 1 - 1e-11 < doc["pole_estimate"] and abs(doc["pole_estimate"] - 1.0) <= 1e-12

    def test_sqrt_pole_run_exits_zero_at_the_piv0_pole(self, tmp_path):
        # f^2 is the piv0 solution with w0 = 0.5, w1 = 0; |f| only grows like
        # |z - a|^(-1/2), so the pole rule reads f^2
        def run(eq, w0):
            summary = tmp_path / f"{eq}.json"
            code = main(["integrate", "--eq", eq, "--z0", "-3", "--w0", w0, "--span", "6",
                         "--out", str(tmp_path / f"{eq}.csv"), "--summary", str(summary)])
            return code, json.loads(summary.read_text(encoding="utf-8"))

        code, piv0 = run("piv0", "0.5")
        assert (code, piv0["status"]) == (0, "pole")
        code, sq = run("sqrt-piv0", "0.7071067811865476")
        assert (code, sq["status"]) == (0, "pole")
        assert abs(sq["pole_estimate"] - piv0["pole_estimate"]) < 1e-12
        assert abs(sq["pole_estimate"] + 1.2362138137) < 1e-9

    def test_csv_round_trip_is_exact(self, tmp_path):
        t = integrate(K.PIV, Params(0.0, 1.0), InitialData.zero(0.0, +1, 0.0), 1.0)
        path = tmp_path / "t.csv"
        write_trajectory_csv(path, t)
        rows = read_trajectory_csv(path)
        assert len(rows) == len(t.nodes)
        for row, node in zip(rows, t.nodes):
            assert row["z_re"] == node.jet.z
            assert row["w_re"] == node.jet.w
            assert row["w1_re"] == node.jet.w1
            assert row["w2_re"] == node.jet.w2
            assert row["h"] == node.h
            assert row["err_est"] == node.err_est
            assert row["C_re"] == node.c
            assert row["res2_re"] == node.res2

    @pytest.mark.parametrize("field", [ScalarField.REAL, ScalarField.COMPLEX])
    def test_csv_bytes_are_fmt_float_per_value(self, tmp_path, field):
        init = InitialData.raw(0.0, 0.7, -0.1, 0.4, field, 1.0 if field is ScalarField.REAL else 1j)
        t = integrate(K.PIV, Params(0.5, 0.25), init, 1.0)
        edge = itertools.cycle(_EDGE_DOUBLES)
        value = (lambda: complex(next(edge), next(edge))) if field is ScalarField.COMPLEX else (lambda: next(edge))
        nodes = tuple(
            n._replace(jet=_trusted_jet(*(value() for _ in range(4))), h=next(edge), err_est=next(edge), res2=value())
            for n in t.nodes
        )
        t = t._replace(nodes=nodes)
        lines = [CSV_HEADER]
        for n in t.nodes:
            res2 = cli._parts(n.res2)
            parts = (*cli._parts(n.jet.z), *cli._parts(n.jet.w), *cli._parts(n.jet.w1), *cli._parts(n.jet.w2))
            lines.append(",".join(fmt_float(v) for v in (*parts, n.h, n.err_est, *res2, *res2)))
        path = tmp_path / "t.csv"
        write_trajectory_csv(path, t)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_rerun_is_bit_identical(self, tmp_path):
        args = [
            "integrate",
            "--eq", "piv", "--alpha", "0", "--beta", "1",
            "--zero-branch", "plus", "--w2", "0",
            "--z0", "0", "--span", "1",
        ]
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            summary = tmp_path / f"{name}.json"
            assert main(args + ["--out", str(out), "--summary", str(summary)]) == 0
            blobs.append((out.read_bytes(), summary.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_complex_mode_columns(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main(
            [
                "integrate",
                "--eq", "piv0",
                "--field", "complex", "--dir-re", "0", "--dir-im", "1",
                "--z0", "0", "--w0", "0.5", "--w1", "0",
                "--span", "0.5",
                "--out", str(out), "--summary", str(tmp_path / "c.json"),
            ]
        )
        assert code == 0
        rows = read_trajectory_csv(out)
        assert any(r["z_im"] != 0.0 for r in rows[1:])
        assert rows[0]["z_im"] == 0.0

    def test_header_schema(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["integrate", "--eq", "xvii", "--w0", "1", "--w1", "2", "--span", "1",
              "--out", str(out), "--summary", str(tmp_path / "s.json")])
        first = out.read_text(encoding="utf-8").splitlines()[0]
        assert first == CSV_HEADER


class TestValidation:
    @pytest.mark.parametrize(
        "args,needle",
        [
            (["integrate", "--eq", "piv", "--span", "1"], "--w0"),
            (["integrate", "--eq", "piv", "--w0", "1"], "--span"),
            (["integrate", "--eq", "piv", "--w0", "0", "--span", "1"], "--w0"),
            (["integrate", "--eq", "piv", "--w0", "1", "--span", "1", "--rel", "1e-20"], "rel"),
            # a run ends `pole` only at its series root: no subcommand sets a threshold
            (["integrate", "--eq", "piv", "--w0", "1", "--span", "1", "--pole-cutoff", "1e4"], "pole-cutoff"),
            (["integrate", "--eq", "piv0", "--alpha", "1", "--w0", "1", "--span", "1"], "alpha"),
            (["integrate", "--eq", "piv", "--zero-branch", "plus", "--w0", "1", "--span", "1"], "--zero-branch"),
            (["zeros", "--eq", "piv", "--w0", "1", "--span", "1", "--field", "complex"], "--field"),
            (["integrate", "--eq", "piv", "--w0", "1", "--span", "1", "--field", "complex",
              "--dir-re", "2"], "--dir-re"),
            (["integrate", "--eq", "xxxii", "--zero-branch", "plus", "--span", "1"], "zero"),
            (["integrate", "--w0", "1", "--span", "1"], "--eq"),
            (["zeros", "--eq", "piv", "--w0", "1", "--span", "1", "--pole-cutoff", "1e4"], "--pole-cutoff"),
            (["integrate", "--eq", "piv", "--w0", "1", "--span", "1", "--field", "complex",
              "--dir-re", "nan"], "--dir-re"),
            (["zeros", "--eq", "xvii", "--beta", "2", "--z0", "0", "--w0", "1", "--w1", "-2", "--span", "2"],
             "error: --beta:"),
            (["integrate", "--eq", "xxxii", "--alpha", "1", "--w0", "1", "--span", "1"], "error: --alpha:"),
            (["integrate", "--eq", "piv", "--alpha", "nan", "--w0", "1", "--span", "1"], "error: --alpha:"),
            # sweep refuses the span that integrate refuses, before its first cell
            (["sweep", "--eq", "piv", "--w0", "0.5", "--span", "0"], "error: --span:"),
            (["sweep", "--eq", "piv", "--w0", "0.5", "--span", "1", "--alpha-steps", "1001", "--beta-steps", "1000"],
             "error: --alpha-steps/--beta-steps:"),
            (["integrate", "--eq", "piv", "--w0", "0.5", "--span", "2", "--rel", "inf"], "error: --rel:"),
            (["integrate", "--eq", "piv", "--w0", "0.5", "--span", "2", "--abs", "inf"], "error: --abs:"),
            (["sweep", "--eq", "piv", "--w0", "0.5"], "arguments are required: --span"),
            (["sweep", "--eq", "piv", "--w0", "0.5", "--span", "inf"], "error: --span:"),
            (["integrate", "--eq", "piv", "--z0", "inf", "--w0", "1", "--w2", "1", "--span", "1"], "error: --z0:"),
            (["integrate", "--eq", "piv", "--z0", "nan", "--w0", "1", "--span", "1"], "error: --z0:"),
            (["integrate", "--eq", "piv", "--w0", "1", "--w1", "inf", "--span", "1"], "error: --w1:"),
            (["integrate", "--eq", "sqrt-piv0", "--w0", "1", "--span", "1", "--field", "complex"], "error: --field:"),
            (["integrate", "--eq", "piv", "--w0", "1", "--span", "-1", "--field", "complex"], "error: --span:"),
            (["verify", "--suite", "sqrt", "--count", "0"], "error: --count:"),
        ],
    )
    def test_invalid_specs_exit_1_naming_the_field(self, args, needle, capsys, tmp_path):
        # sweep writes no summary, so it has no --summary, and verify writes no file
        files = {"sweep": ["--out", str(tmp_path / "o")], "verify": []}
        full = args + files.get(args[0], ["--out", str(tmp_path / "o"), "--summary", str(tmp_path / "s")])
        assert main(full) == 1
        # the last line is the message: argparse prints its usage, which names every flag, first
        assert needle in capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize("command", ["integrate", "zeros"])
    @pytest.mark.parametrize(
        "args",
        [
            ["--eq", "xxix", "--w0", "1e200", "--span", "1"],
            ["--eq", "piv", "--w0", "1e120", "--span", "1"],
            ["--eq", "piv", "--w0", "1e90", "--w2", "1", "--span", "1"],
            # w'' completed from the equation overflows
            ["--eq", "sqrt-piv0", "--w0", "1e200", "--span", "1"],
            ["--eq", "xvii", "--w0", "1e-300", "--w1", "1e10", "--span", "1"],
            ["--eq", "piv", "--w0", "1e-300", "--w1", "1e10", "--span", "1"],
            ["--eq", "xxxii", "--w0", "1e-320", "--span", "1"],
        ],
    )
    def test_oversized_initial_data_exits_1_naming_w0(self, command, args, capsys, tmp_path):
        full = [command] + args + ["--out", str(tmp_path / "o"), "--summary", str(tmp_path / "s")]
        assert main(full) == 1
        err = capsys.readouterr().err
        assert "error: --w0:" in err and "Traceback" not in err

    def test_exit_code_2_on_step_budget(self, tmp_path, monkeypatch, capsys):
        import painleve4.integrator as integrator

        monkeypatch.setattr(integrator, "_MAX_STEPS", 5)
        summary = tmp_path / "s.json"
        code = main(["integrate", "--eq", "piv", "--alpha", "0.3", "--beta", "0.7", "--z0", "-1",
                     "--w0", "0.5", "--span", "2", "--out", str(tmp_path / "t.csv"), "--summary", str(summary)])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert json.loads(summary.read_text())["status"] == "step_budget"

    def test_a_span_of_1e20_ends_at_the_pole(self, tmp_path, capsys):
        # at the first node v = w + z has v_1 = w' + 1 = 1.1e-16, so the pole
        # search's first iterate v_0/v_1 lies 3.6e16 ahead, where the powers
        # in u's tail terms overflow; the search rejects it and the run steps on
        summary = tmp_path / "s.json"
        code = main(["integrate", "--eq", "piv", "--z0", "0", "--w0", "4", "--w1", "-0.9999999999999999",
                     "--span", "1e20", "--out", str(tmp_path / "t.csv"), "--summary", str(summary)])  # fmt: skip
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        doc = json.loads(summary.read_text())
        assert (doc["status"], doc["node_count"]) == ("pole", 8)

    def test_unknown_equation_exits_1(self, capsys):
        assert main(["integrate", "--eq", "bogus", "--w0", "1", "--span", "1"]) == 1

    def test_the_initial_data_rules_are_the_records_alone(self):
        # `InitialData`, `Params` and `Tolerances` own every rule on their entries, and `integrate`
        # its span's: the command line states none of its own; it builds the records, and `main`
        # turns the field a message names into its flag
        for build in (cli._build_initial, cli._build_runspec):
            tree = ast.parse(inspect.getsource(build))
            rules = [n for n in ast.walk(tree) if isinstance(n, (ast.If, ast.IfExp, ast.Raise, ast.Compare))]
            assert not rules, build.__name__

    @pytest.mark.parametrize(
        "args,flag",
        [
            (["--zero-branch", "minus", "--w1", "0"], "--zero-branch"),
            (["--w0", "-0", "--w1", "1"], "--w0"),
            # a completed w'' that overflows names the entry or parameter that overflowed it
            (["--z0", "1e200", "--w0", "1"], "--z0"),
            (["--w0", "1", "--w1", "1e200"], "--w1"),
            (["--alpha", "1e308", "--w0", "1"], "--alpha"),
            (["--w0", "1e-320", "--w1", "1"], "--w0"),
            # the subnormal z0 is farther from 1 in magnitude, but w1 alone overflows w''
            (["--z0", "1e-320", "--w0", "1", "--w1", "1e200"], "--w1"),
            # two entries that each overflow it alone: the one farther from 1
            (["--z0", "1e200", "--alpha", "1e308", "--w0", "1"], "--alpha"),
            # w ** 3 raises
            (["--w0", "1e200"], "--w0"),
        ],
    )  # fmt: skip
    def test_a_record_error_names_its_flag(self, args, flag, capsys, tmp_path):
        argv = ["integrate", "--eq", "piv", "--span", "1", *args,
                "--out", str(tmp_path / "o"), "--summary", str(tmp_path / "s")]  # fmt: skip
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")

    @pytest.mark.parametrize(
        "command,message,printed",
        [
            ("integrate", "span: x", "--span: x"),
            ("integrate", "branch: x", "--zero-branch: x"),
            ("integrate", "direction: x", "--dir-re/--dir-im: x"),
            ("integrate", "w_bound: x", "w_bound: x"),
            ("zeros", "direction: x", "direction: x"),
            # sweep takes alpha from its grid, and has no path
            ("sweep", "span: x", "--span: x"),
            ("sweep", "alpha: x", "alpha: x"),
            ("sweep", "direction: x", "direction: x"),
            ("sweep", "no field leads this", "no field leads this"),
            ("sweep", ": x", ": x"),
        ],
    )  # fmt: skip
    def test_only_the_commands_own_inputs_are_named_by_flag(self, command, message, printed, monkeypatch, capsys):
        def refuse(*args):
            raise ValueError(message)

        monkeypatch.setattr(cli, "integrate", refuse)
        monkeypatch.setattr(cli, "run_sweep", refuse)
        assert main([command, "--eq", "piv", "--w0", "1", "--span", "1"]) == 1
        assert capsys.readouterr().err == f"error: {printed}\n"

    def test_exit_code_2_on_step_underflow(self, tmp_path, monkeypatch):
        # force underflow through the library (its shortest step is the
        # constant 1e-12): on the way to the pole of 1/(1 - z) the step falls
        # below 0.05 at |w| = 2.7, before the pole can be read off the series
        # at |w| > 3
        import painleve4.integrator as integrator

        monkeypatch.setattr(integrator, "_H_MIN", 0.05)
        code = main(["integrate", "--eq", "xxix", "--w0", "1", "--w1", "1", "--span", "2",
                     "--out", str(tmp_path / "t.csv"), "--summary", str(tmp_path / "s.json")])
        assert code == 2


class TestZerosCommand:
    def test_events_file(self, tmp_path):
        out = tmp_path / "events.json"
        code = main(
            [
                "zeros",
                "--eq", "xxxii",
                "--z0", "-2", "--w0", "3.75", "--w1", "-4",
                "--span", "4",
                "--out", str(out), "--summary", str(tmp_path / "s.json"),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["identically_zero"] is False
        assert len(doc["events"]) == 2
        a_values = sorted(e["a"] for e in doc["events"])
        assert abs(a_values[0] + 0.5) < 1e-8 and abs(a_values[1] - 0.5) < 1e-8
        slopes = sorted(e["slope"] for e in doc["events"])
        assert abs(slopes[0] + 1.0) < 1e-8 and abs(slopes[1] - 1.0) < 1e-8
        # at a zero xxxii's res2 reduces to 1 - w'^2, which allows slopes -+1
        assert [e["branch"] for e in doc["events"]] == ["plus_beta", "plus_beta"]
        assert doc["curvature_report"] is None  # xxxii is not piv

    def test_both_roots_of_one_exact_step(self, tmp_path):
        # w = z^2 - 1/4 crosses [-0.886, 1.114] in one exact step that holds both roots
        out = tmp_path / "events.json"
        argv = ["zeros", "--eq", "xxxii", "--z0", "-0.886", "--w0", "0.534996", "--w1", "-1.772", "--span", "2",
                "--out", str(out), "--summary", str(tmp_path / "s.json")]  # fmt: skip
        assert main(argv) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["node_count"] == 2
        a_values = [e["a"] for e in doc["events"]]
        assert len(a_values) == 2
        assert abs(a_values[0] + 0.5) < 1e-12 and abs(a_values[1] - 0.5) < 1e-12

    def test_zero_seed_event_and_summary(self, tmp_path):
        out = tmp_path / "events.json"
        summary = tmp_path / "s.json"
        code = main(
            [
                "zeros",
                "--eq", "piv", "--alpha", "0", "--beta", "1",
                "--zero-branch", "plus", "--w2", "0", "--z0", "0",
                "--span", "1",
                "--out", str(out), "--summary", str(summary),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert len(doc["events"]) == 1
        assert doc["events"][0]["branch"] == "plus_beta"
        sdoc = json.loads(summary.read_text(encoding="utf-8"))
        assert len(sdoc["events"]) == 1

    def test_identically_zero_warning(self, tmp_path, caplog):
        out = tmp_path / "events.json"
        code = main(
            [
                "zeros",
                "--eq", "piv0", "--w2", "0", "--z0", "0", "--span", "1",
                "--out", str(out), "--summary", str(tmp_path / "s.json"),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["identically_zero"] is True
        assert doc["events"] == []

    def test_events_file_is_the_summary_plus_two_keys(self, tmp_path):
        out, summary = tmp_path / "events.json", tmp_path / "s.json"
        code = main(
            [
                "zeros",
                "--eq", "piv0", "--w2", "1", "--z0", "0", "--span", "1",
                "--out", str(out), "--summary", str(summary),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        sdoc = json.loads(summary.read_text(encoding="utf-8"))
        assert set(doc) == set(sdoc) | {"identically_zero", "curvature_report"}
        assert all(doc[k] == sdoc[k] for k in sdoc)
        # the keys the events file carried before it reused the summary
        assert doc["equation"] == "piv0"
        assert doc["params"] == {"alpha": 0.0, "beta": 0.0}
        assert doc["convention"] == "Ince XXXI β² convention"
        assert doc["status"] == "completed"
        assert doc["identically_zero"] is False
        assert doc["events"] == [
            {"a": 0.0, "slope": 0.0, "curvature": 1.0, "branch": "plus_beta", "curvature_nonzero": True}
        ]

    def test_curvature_report_for_beta_zero(self, tmp_path):
        out = tmp_path / "events.json"
        code = main(
            [
                "zeros",
                "--eq", "piv0", "--w2", "1", "--z0", "0", "--span", "1",
                "--out", str(out), "--summary", str(tmp_path / "s.json"),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        report = doc["curvature_report"]
        assert report == {"ok": True, "violations": []}
        assert doc["events"][0]["curvature_nonzero"] is True

    @pytest.mark.parametrize(
        "kind,beta,data",
        [
            *(pytest.param(k.value, beta, ["--z0", "-1", "--w0", "0.5"], id=f"{k.value}-beta-{beta}")
              for k in EquationKind for beta in ("0", "1")),
            pytest.param("piv0", "0", ["--z0", "0", "--w2", "0"], id="identically-zero"),  # a vacuous report
        ],
    )
    def test_curvature_report_exactly_where_the_check_accepts(self, tmp_path, kind, beta, data):
        argv = ["zeros", "--eq", kind, "--beta", beta, *data, "--span", "1", "--out", str(tmp_path / "e.json"),
                "--summary", str(tmp_path / "s.json")]  # fmt: skip
        try:
            traj = integrate(*cli._build_runspec(build_parser().parse_args(argv)))
        except ValueError:  # a kind without parameters refuses beta = 1
            assert main(argv) == 1
            return
        try:
            check_curvature_theorem(locate_zeros(traj), traj)
            accepted = True
        except WrongKind:
            accepted = False
        assert accepted == (kind in ("piv", "piv0") and beta == "0")
        assert main(argv) == 0
        doc = json.loads((tmp_path / "e.json").read_text(encoding="utf-8"))
        assert (doc["curvature_report"] is not None) == accepted


class TestVerifyCommand:
    def test_identities_pass(self, capsys):
        assert main(["verify", "--suite", "identities", "--count", "100", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2

    @pytest.fixture
    def every_run_underflows(self, monkeypatch):
        import painleve4.verify as verify
        from painleve4.oracles import xxix_pole_family

        # the first step's coefficients overflow: the run ends step_underflow at its seed
        underflow = integrate(K.XXIX, Params(), InitialData.raw(*xxix_pole_family(1e-20, 0.0)), 1.0)
        assert underflow.status is TrajectoryStatus.STEP_UNDERFLOW and len(underflow.nodes) == 1
        monkeypatch.setattr(verify, "integrate", lambda *args, **kwargs: underflow)

    @pytest.mark.parametrize(
        "suite,count,prop",
        [
            ("constraint", 10, "constraint C conserved along the third-order flow"),
            ("xxix-integrals", 100, "(k, K, L) constant along integrated xxix trajectories"),
            ("sqrt", 10, "squared sqrt-piv0 samples satisfy the piv0 residual"),
        ],
    )
    @pytest.mark.usefixtures("every_run_underflows")
    def test_a_run_ending_step_underflow_fails_the_suite_without_traceback(self, suite, count, prop, capsys):
        # each suite checks every draw it integrates, so a run that does not stop is a failed property, not a redraw
        assert main(["verify", "--suite", suite, "--count", str(count)]) == 3
        captured = capsys.readouterr()
        (line,) = [line for line in captured.out.splitlines() if line.startswith(prop)]
        assert line.startswith(f"{prop}: FAIL (worst inf,")
        assert line.endswith("10/10 runs ended step_underflow or step_budget]")
        assert "Traceback" not in captured.err

    def test_failure_exits_3(self, monkeypatch, capsys):
        import painleve4.cli as cli
        from painleve4.verify import PropertyResult

        monkeypatch.setattr(
            cli, "run_suite", lambda suite, seed, count: [PropertyResult("forced", 1.0, 0.5)]
        )
        assert main(["verify", "--suite", "identities"]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_a_nan_deviation_fails(self, monkeypatch, capsys):
        # max(0.0, nan) is 0.0, so a worst kept by max() read PASS here
        import painleve4.verify as verify

        monkeypatch.setattr(verify, "jet_identities", lambda jet, w3: (math.nan, 0.0))
        assert main(["verify", "--suite", "identities", "--count", "10"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert ": FAIL (worst nan, budget" in lines[0]
        assert ": PASS (worst 0.000e+00," in lines[1]


class TestRemovedFlags:
    @pytest.mark.parametrize("command", ["integrate", "zeros", "sweep"])
    @pytest.mark.parametrize("flag", ["--seed", "--count"])
    def test_suite_flags_rejected_off_verify(self, command, flag, tmp_path, capsys):
        code = main([command, "--eq", "piv", "--w0", "0.5", "--span", "1", flag, "3",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--alpha", "--beta", "--summary", "--field", "--dir-re", "--dir-im"])
    def test_sweep_rejects_flags_it_would_ignore(self, flag, tmp_path, capsys):
        code = main(["sweep", "--eq", "piv", "--w0", "0.5", "--span", "1", flag, "0.5",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--field", "real"), ("--dir-re", "7"), ("--dir-im", "7")])
    def test_zeros_rejects_flags_it_would_ignore(self, flag, value, tmp_path, capsys):
        # zeros runs in REAL mode; it has no path to choose
        code = main(["zeros", "--eq", "piv", "--w0", "1", "--span", "1", flag, value,
                     "--out", str(tmp_path / "o"), "--summary", str(tmp_path / "s")])
        assert code == 1
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--dir-re", "7"), ("--dir-re", "-1"), ("--dir-im", "1")])
    def test_real_integrate_rejects_a_direction_it_would_ignore(self, flag, value, tmp_path, capsys):
        # a REAL run goes along the sign of its span, so it has no path direction to take
        code = main(["integrate", "--eq", "piv", "--w0", "1", "--span", "1", flag, value,
                     "--out", str(tmp_path / "o"), "--summary", str(tmp_path / "s")])  # fmt: skip
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --dir-re/--dir-im: ")


class TestSweepCommand:
    def test_grid_row_count(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--eq", "piv",
                "--alpha-min", "-2", "--alpha-max", "2", "--alpha-steps", "3",
                "--beta-min", "-2", "--beta-max", "2", "--beta-steps", "3",
                "--w0", "0.5", "--z0", "-1", "--span", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 9
        assert lines[0].startswith("alpha,beta,status")

    def test_empty_grid_exits_1(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--eq", "piv",
                "--alpha-steps", "0",
                "--w0", "0.5", "--span", "1",
                "--out", str(tmp_path / "s.csv"),
            ]
        )
        assert code == 1
        assert "alpha-steps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "pair,lo,hi",
        [("alpha", "-1e308", "1e308"), ("alpha", "-inf", "1"), ("alpha", "0", "nan"), ("beta", "1e308", "-1e308")],
    )
    def test_a_grid_point_that_is_not_finite_is_refused(self, pair, lo, hi, tmp_path, capsys):
        # hi - lo overflows, or an end is not finite: the grid would hold values the command line never gave
        out = tmp_path / "s.csv"
        code = main(["sweep", "--eq", "piv", "--w0", "0.5", "--z0", "-1", "--span", "1", f"--{pair}-min={lo}",
                     f"--{pair}-max={hi}", f"--{pair}-steps=3", "--out", str(out)])  # fmt: skip
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: --{pair}-min/--{pair}-max: ")
        assert not out.exists()

    def test_an_oversized_grid_is_refused_before_either_grid_is_built(self, monkeypatch, tmp_path, capsys):
        import painleve4.cli as cli

        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(cli, "_grid", no_grid)
        out = tmp_path / "s.csv"
        code = main(["sweep", "--eq", "piv", "--w0", "0.5", "--span", "1", "--alpha-steps", "1001",
                     "--beta-steps", "1000", "--out", str(out)])  # fmt: skip
        assert code == 1
        assert capsys.readouterr().err == "error: --alpha-steps/--beta-steps: grid of 1001000 cells exceeds 1e6\n"
        assert not out.exists()

    def test_a_zero_seed_on_a_kind_without_one_is_refused_before_the_first_cell(self, tmp_path, capsys):
        # every cell would fail on it alike, whatever its alpha and beta
        out = tmp_path / "s.csv"
        code = main(["sweep", "--eq", "xxxii", "--zero-branch", "plus", "--span", "1", "--alpha-steps", "2",
                     "--out", str(out)])  # fmt: skip
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "error: --zero-branch: a zero seed is only valid for piv/piv0, not xxxii"
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind,pair,grid",
        [("xxix", "alpha", ["--alpha-min", "1", "--alpha-max", "2", "--alpha-steps", "2"]),
         ("piv0", "beta", ["--beta-min", "1", "--beta-max", "1"]),
         ("xvii", "alpha", ["--alpha-min", "-1", "--alpha-max", "1", "--alpha-steps", "3"])],
    )  # fmt: skip
    def test_a_nonzero_grid_on_a_kind_without_parameters_is_refused_before_the_first_cell(
        self, kind, pair, grid, tmp_path, capsys
    ):
        # every cell with a nonzero alpha or beta would fail on it alike
        out = tmp_path / "s.csv"
        code = main(["sweep", "--eq", kind, "--w0", "0.5", "--span", "1", *grid, "--out", str(out)])
        assert code == 1
        value = grid[1]
        assert capsys.readouterr().err == (
            f"error: --{pair}-min/--{pair}-max: {kind} requires alpha = beta = 0, got {pair} = {float(value)!r}\n"
        )
        assert not out.exists()

    def test_all_cells_failing_exits_1(self, tmp_path):
        # alpha = 1e308 overflows every cell's completed w''
        code = main(
            [
                "sweep",
                "--eq", "piv",
                "--alpha-min", "1e308", "--alpha-max", "1e308", "--alpha-steps", "2",
                "--w0", "0.5", "--span", "1",
                "--out", str(tmp_path / "s.csv"),
            ]
        )  # fmt: skip
        assert code == 1

    def test_beta_zero_column_has_nonzero_curvature_events(self):
        # library-level sweep: the beta = 0 cells' events carry the flag
        cells = run_sweep(
            K.PIV,
            alphas=[0.0],
            betas=[-1.0, 0.0, 1.0],
            init=InitialData.zero(0.0, +1, 0.5),
            span=0.5,
            tol=Tolerances(),
        )
        assert len(cells) == 3
        assert all(c.error == "" for c in cells)
        beta_zero_cell = cells[1]
        assert len(beta_zero_cell.events) >= 1
        assert all(e.curvature_nonzero for e in beta_zero_cell.events)
        for cell in (cells[0], cells[2]):
            assert all(e.curvature_nonzero is None for e in cell.events)

    def test_step_counters_follow_the_first_nine_columns(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--eq", "piv",
                "--alpha-min", "-2", "--alpha-max", "2", "--alpha-steps", "2",
                "--beta-min", "0", "--beta-max", "1", "--beta-steps", "2",
                "--w0", "0.5", "--z0", "-1", "--span", "2",
                "--out", str(out),
            ]
        )  # fmt: skip
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == (
            "alpha,beta,status,node_count,zero_count,pole_est_re,pole_est_im,max_c_drift,error,"
            "accepted,h_min,h_max"
        )
        rows = list(csv.DictReader(lines))
        assert {r["status"] for r in rows} == {"completed", "pole"}
        for r in rows:
            # a pole cell ends at the root of its last node's series: every
            # step it took is stored
            assert int(r["accepted"]) == int(r["node_count"]) - 1
            assert 0.0 < float(r["h_min"]) <= float(r["h_max"])

    def test_errored_cell_leaves_the_step_counters_empty(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["sweep", "--eq", "piv", "--alpha-min", "1e308", "--w0", "0.5", "--span", "1", "--out", str(out)])
        assert code == 1
        row = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))[1]
        assert row[2] == "error" and row[9:] == [""] * 3

    def test_readme_sweep_events(self):
        grid = [-2.0 + 4.0 * i / 10 for i in range(11)]
        cells = run_sweep(K.PIV, grid, grid, InitialData.nonzero(-1.0, 0.5, 0.0), 2.0, Tolerances())
        assert sum(len(c.events) for c in cells) == 106
        assert sum(c.status == "pole" for c in cells) == 52

    def test_readme_sweep_node_counts_do_not_depend_on_the_interpreter(self, tmp_path):
        # the zero search and the series pole rule add every sum left to right
        # from 0; with sum(), which is compensated from Python 3.12 on, the
        # cells (-2, -1.6) and (-2, 1.6) each stored one node more there than
        # on 3.10 and 3.11
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--eq", "piv",
                "--alpha-min", "-2", "--alpha-max", "2", "--alpha-steps", "11",
                "--beta-min", "-2", "--beta-max", "2", "--beta-steps", "11",
                "--z0", "-1", "--w0", "0.5", "--span", "2",
                "--out", str(out),
            ]
        )  # fmt: skip
        assert code == 0
        rows = list(csv.DictReader(out.read_text(encoding="utf-8").splitlines()))
        assert len(rows) == 121
        assert sum(int(r["node_count"]) for r in rows) == 1784
        nodes = {(float(r["alpha"]), float(r["beta"])): int(r["node_count"]) for r in rows}
        assert nodes[-2.0, -1.6] == nodes[-2.0, 1.6] == 18

    def test_deterministic_output(self, tmp_path):
        args = [
            "sweep",
            "--eq", "piv",
            "--alpha-min", "-1", "--alpha-max", "1", "--alpha-steps", "2",
            "--beta-min", "0", "--beta-max", "1", "--beta-steps", "2",
            "--w0", "0.4", "--z0", "-1", "--span", "2",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def _fresh_run(argv, cwd, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """`painleve4 argv` run in a new interpreter in cwd, on the package these tests import."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "painleve4.cli", *argv], cwd=cwd, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)  # fmt: skip


def _fresh_process(argv, cwd):
    proc = _fresh_run(argv, cwd)
    return proc.returncode, proc.stdout


class TestOutputFiles:
    # every output is written in place (`cli._write_output`): opened without
    # O_TRUNC and cut to the new length after the write where it was longer
    RUN = ["integrate", "--eq", "xxxii", "--z0", "0", "--w0", "2", "--w1", "3", "--span", "4"]
    COMMANDS = {
        "integrate": (RUN + ["--out", "t.csv", "--summary", "s.json"], ("t.csv", "s.json")),
        "zeros": (["zeros", *RUN[1:], "--out", "e.json", "--summary", "s.json"], ("e.json", "s.json")),
        "sweep": (["sweep", "--eq", "piv", "--alpha-min", "-1", "--alpha-max", "1", "--alpha-steps", "2",
                   "--w0", "0.4", "--z0", "-1", "--span", "2", "--out", "sweep.csv"], ("sweep.csv",)),
    }  # fmt: skip

    @pytest.mark.parametrize("command", COMMANDS)
    def test_overwriting_a_longer_file_writes_the_bytes_of_a_fresh_one(self, command, tmp_path, monkeypatch):
        argv, files = self.COMMANDS[command]
        fresh, old = tmp_path / "fresh", tmp_path / "old"
        for where in (fresh, old):
            where.mkdir()
        monkeypatch.chdir(fresh)
        assert main(argv) == 0
        for name in files:
            (old / name).write_bytes((fresh / name).read_bytes() * 2 + b"old tail")
        monkeypatch.chdir(old)
        assert main(argv) == 0
        for name in files:
            assert (old / name).read_bytes() == (fresh / name).read_bytes()

    def test_a_symlinked_out_keeps_the_link_and_writes_its_target(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(self.RUN + ["--out", "fresh.csv", "--summary", "s.json"]) == 0
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"an older, longer file\n" * 10_000)
        try:
            link.symlink_to(target)
        except OSError:  # no symlinks without the privilege, on Windows
            pytest.skip("symlinks are not available")
        assert main(self.RUN + ["--out", "link.csv", "--summary", "s.json"]) == 0
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_bytes() == (tmp_path / "fresh.csv").read_bytes()

    @pytest.mark.skipif(os.name == "nt", reason="POSIX file modes and hard links")
    def test_an_existing_file_keeps_its_inode_mode_and_links_and_a_new_one_gets_the_umask(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out, other = tmp_path / "t.csv", tmp_path / "hard.csv"
        out.write_bytes(b"x" * 100_000)
        out.chmod(0o600)
        os.link(out, other)
        before = out.stat()
        assert main(self.RUN + ["--out", "t.csv", "--summary", "s.json"]) == 0
        after = out.stat()
        assert (stat.S_IMODE(after.st_mode), after.st_ino, after.st_nlink) == (0o600, before.st_ino, 2)
        assert other.read_bytes() == out.read_bytes()
        assert out.read_bytes().startswith((CSV_HEADER + "\n").encode())
        umask = os.umask(0o022)
        os.umask(umask)
        assert stat.S_IMODE((tmp_path / "s.json").stat().st_mode) == 0o666 & ~umask

    @pytest.mark.skipif(not Path("/dev/stdout").exists(), reason="no /dev/stdout")
    def test_out_dev_stdout_prints_the_csv_to_a_pipe(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(self.RUN + ["--out", "t.csv", "--summary", "s.json"]) == 0
        proc = _fresh_run(self.RUN + ["--out", "/dev/stdout", "--summary", "s.json"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        csv_text = (tmp_path / "t.csv").read_text(encoding="utf-8")
        assert proc.stdout.startswith(csv_text)
        assert proc.stdout[len(csv_text):].startswith("completed: ")

    @pytest.mark.skipif(not Path("/dev/null").exists(), reason="no /dev/null")
    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_device_is_written_and_not_cut(self, command, tmp_path, monkeypatch):
        # lseek succeeds on /dev/null but ftruncate fails there
        argv, _ = self.COMMANDS[command]
        monkeypatch.chdir(tmp_path)
        argv = [a if a not in ("t.csv", "s.json", "e.json", "sweep.csv") else "/dev/null" for a in argv]
        assert main(argv) == 0
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not Path("/dev/stdout").exists(), reason="no /dev/stdout")
    def test_out_dev_stdout_with_stdout_on_dev_null_exits_zero(self, tmp_path):
        proc = _fresh_run(self.RUN + ["--out", "/dev/stdout", "--summary", "s.json"], tmp_path, subprocess.DEVNULL)
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "s.json").read_text(encoding="utf-8"))["status"] == "completed"


def test_no_output_is_written_past_the_in_place_writer():
    # no write_text or write_bytes, which truncate to zero first, and no open for writing in text mode
    for path in sorted(Path(cli.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            where = f"{path.name}:{node.lineno}"
            assert name not in ("write_text", "write_bytes"), where
            if name == "open":
                mode = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
                text = [m.value for m in mode if isinstance(m, ast.Constant) and isinstance(m.value, str)]
                assert not any(set(m) & set("wax+") and "b" not in m for m in text), where


class TestOneParserPerProcess:
    # main parses with one parser built once per process; what one call
    # parses must not reach the next, so a command run after another prints
    # and writes what it does in a fresh process
    def test_main_reuses_its_parser_and_build_parser_makes_a_new_one(self):
        assert cli._parser() is cli._parser()
        assert build_parser() is not build_parser() and build_parser() is not cli._parser()

    def test_verify_after_another_count_matches_a_fresh_process(self, tmp_path, capsys):
        assert main(["verify", "--suite", "sqrt", "--count", "3"]) == 0
        capsys.readouterr()
        code = main(["verify", "--suite", "sqrt"])
        assert (code, capsys.readouterr().out) == _fresh_process(["verify", "--suite", "sqrt"], tmp_path)

    def test_zeros_after_a_complex_integrate_matches_a_fresh_process(self, tmp_path, monkeypatch, capsys):
        # integrate sets --field complex and a direction; zeros has no such
        # options and must run on its own default, the real line
        zeros_argv = ["zeros", "--eq", "piv", "--alpha", "1", "--beta", "0.7", "--z0", "-2", "--w0", "0.5",
                      "--w1", "1", "--span", "4"]  # fmt: skip
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        reused.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(reused)
        assert main(["integrate", "--eq", "piv", "--alpha", "0.5", "--beta", "0.25", "--w0", "0.7", "--w1", "-0.1",
                     "--w2", "0.4", "--span", "1", "--field", "complex", "--dir-re", "0.955336489125606",
                     "--dir-im", "0.29552020666133955", "--out", "complex.csv", "--summary", "complex.json"]) == 0  # fmt: skip
        capsys.readouterr()
        code = main(zeros_argv)
        assert (code, capsys.readouterr().out) == _fresh_process(zeros_argv, fresh)
        for name in ("events.json", "summary.json"):
            assert (reused / name).read_bytes() == (fresh / name).read_bytes()
        assert json.loads((reused / "summary.json").read_text(encoding="utf-8"))["field"] == "real"


def test_log_level_env_mapping(monkeypatch):
    import logging

    from painleve4.cli import log_level_from_env

    monkeypatch.setenv("PAINLEVE_LOG", "error")
    assert log_level_from_env() == logging.ERROR
    monkeypatch.setenv("PAINLEVE_LOG", "WARN")
    assert log_level_from_env() == logging.WARNING
    monkeypatch.setenv("PAINLEVE_LOG", "info")
    assert log_level_from_env() == logging.INFO
    monkeypatch.setenv("PAINLEVE_LOG", "debug")
    assert log_level_from_env() == logging.DEBUG
    monkeypatch.setenv("PAINLEVE_LOG", "nonsense")
    assert log_level_from_env() == logging.WARNING


def test_summary_ends_with_the_step_counters(tmp_path):
    out, summary = tmp_path / "t.csv", tmp_path / "s.json"
    argv = ["integrate", "--eq", "xxix", "--z0", "0", "--w0", "1", "--w1", "1", "--span", "2",
            "--out", str(out), "--summary", str(summary)]  # fmt: skip
    assert main(argv) == 0
    doc = json.loads(summary.read_text(encoding="utf-8"))
    assert list(doc)[-1] == "stats"
    stats = doc["stats"]
    assert list(stats) == ["accepted", "h_min", "h_max"]
    # the pole is the root of the last node's series, and no step is taken to it
    assert stats["accepted"] == doc["node_count"] - 1
    assert 0.0 < stats["h_min"] <= stats["h_max"]
    first = summary.read_bytes()
    assert main(argv) == 0
    assert summary.read_bytes() == first


def _same_bits(doc_value, value) -> bool:
    """A JSON number, or [re, im] pair, holds exactly the float or complex value, sign of zero included."""
    want = [value.real, value.imag] if isinstance(value, complex) else [value]
    got = doc_value if isinstance(doc_value, list) else [doc_value]
    return [float(x).hex() for x in got] == [float(x).hex() for x in want]


@pytest.mark.parametrize(
    "argv,n_events",
    [
        (["zeros", "--eq", "piv", "--alpha", "1", "--beta", "0.7", "--z0", "-2", "--w0", "0.5", "--w1", "1",
          "--span", "4"], 2),
        (["integrate", "--eq", "xxix", "--z0", "0", "--w0", "1", "--w1", "1", "--span", "2",
          "--field", "complex", "--dir-re", "1", "--dir-im", "0"], 0),
    ],
    ids=["zeros-pole-run", "complex-integrate-pole-run"],
)  # fmt: skip
def test_summary_json_parse_back_is_exact(argv, n_events, tmp_path, monkeypatch):
    # the JSON counterpart of acceptance criterion 9's CSV parse-back: every
    # number of a written summary reads back as the bits the run computed
    runs = []

    def recorded(*args, **kwargs):
        runs.append(integrate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "integrate", recorded)
    summary = tmp_path / "s.json"
    assert main(argv + ["--out", str(tmp_path / "out"), "--summary", str(summary)]) == 0
    (traj,) = runs
    events = locate_zeros(traj)
    doc = json.loads(summary.read_text(encoding="utf-8"))
    assert doc["status"] == "pole"
    assert _same_bits(doc["pole_estimate"], traj.pole_estimate)
    assert _same_bits(doc["pole_bound"], traj.pole_bound)
    assert "max_abs_c" not in doc
    assert _same_bits(doc["max_abs_res2"], max(abs(n.res2) for n in traj.nodes))
    if traj.kind is K.PIV:
        # on piv res2 is the constraint C, bit for bit
        assert _same_bits(doc["max_abs_res2"], max(abs(constraint_c(traj.params, n.jet)) for n in traj.nodes))
    assert len(doc["events"]) == len(events) == n_events
    for got, e in zip(doc["events"], events):
        for key in ("a", "slope", "curvature"):
            assert _same_bits(got[key], getattr(e, key))
    for key in ("h_min", "h_max"):
        assert _same_bits(doc["stats"][key], traj.stats[key])


def test_summary_json_shape_complex():
    import cmath

    d = cmath.exp(0.25j)
    t = integrate(
        K.PIV,
        Params(0.5, 0.25),
        InitialData.raw(0.0, 0.7, -0.1, 0.4, field=__import__("painleve4").ScalarField.COMPLEX, direction=d),
        0.5,
    )
    doc = summary_json(t)
    assert doc["field"] == "complex"
    assert "max_abs_c" not in doc
    assert _same_bits(doc["max_abs_res2"], max(abs(constraint_c(t.params, n.jet)) for n in t.nodes))


def _fuzz_options():
    """Every option of every subcommand, bar the output paths the fuzz sets itself."""
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [a for a in sub._actions if a.option_strings and a.dest not in ("help", "out", "summary")]
        for name, sub in subs.choices.items()
    }


_OPTIONS = _fuzz_options()
_ODD_FLOATS = [0.0, -1.0, 1e-300, -1e-300, math.nan, math.inf, -math.inf]
# the options that set how long a run takes are capped; the rest range freely
_CAPPED = {
    "span": st.floats(-1.0, 1.0),
    "rel": st.sampled_from([1e-10, 1e-6, 1e-14]),
    "abs": st.sampled_from([1e-10, 1e-6, 1e-14]),
    "alpha_steps": st.integers(1, 3),
    "beta_steps": st.integers(1, 3),
    "count": st.integers(1, 3),
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for action in _OPTIONS[command]:
        # a count is always given, as the default ones run for seconds; a
        # required option or the span nine times in ten; any other one time in two
        if action.dest != "count" and draw(st.integers(0, 9)) >= (9 if action.required or action.dest == "span" else 5):
            continue
        if draw(st.integers(0, 9)) == 0:  # one value in ten is invalid, non-finite or extreme
            if action.choices is not None:
                odd = ["bogus"]
            elif action.type is float:
                odd = _ODD_FLOATS if action.dest in _CAPPED else [*_ODD_FLOATS, 1e300]
            else:
                odd = [-1, 0]
            value = draw(st.sampled_from(odd))
        elif action.choices is not None:
            value = draw(st.sampled_from(action.choices))
        else:
            value = draw(_CAPPED.get(action.dest, st.integers(0, 3) if action.type is int else st.floats(-3.0, 3.0)))
        argv.append(f"{action.option_strings[0]}={value}")
    return argv


@given(argv=_argvs())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_argv_exits_0_to_3_without_traceback(argv, tmp_path, capsys):
    if argv[0] != "verify":
        argv += [f"--out={tmp_path / 'o'}"]
    if argv[0] in ("integrate", "zeros"):
        argv += [f"--summary={tmp_path / 's'}"]
    assert main(argv) in (0, 1, 2, 3), argv
    assert "Traceback" not in capsys.readouterr().err, argv


@pytest.mark.parametrize(
    "argv",
    [
        "integrate --eq xvii --w1 1e200 --w2 1e200 --span 0.5",
        "zeros --eq xxxii --z0 1e200 --w0 -1 --w1 1e308 --w2 1e200 --span 0.5",
    ],
)
def test_overflowing_monitor_completes_without_traceback(argv, tmp_path):
    # the piv constraint's w ** 4 overflows on these raw jets; xvii and xxxii
    # read only their own residual, whose products overflow to inf
    proc = _fresh_run(argv.split(), tmp_path)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert summary["status"] == "completed"


def _reject(token):
    raise ValueError(f"{token} is not a JSON value")


def _overflowing_monitor_run(tmp_path) -> Path:
    """The summary of an xvii run whose node 0 stores res2 = -inf and node 1 res2 = nan."""
    out, summary = tmp_path / "t.csv", tmp_path / "s.json"
    argv = "integrate --eq xvii --w1 1e200 --w2 1e200 --span 0.5".split()
    assert main(argv + ["--out", str(out), "--summary", str(summary)]) == 0
    rows = read_trajectory_csv(out)
    assert rows[0]["res2_re"] == -math.inf and math.isnan(rows[1]["res2_re"])
    return summary


def test_overflowing_monitor_summary_keeps_the_nan(tmp_path):
    # max() keeps a NaN only when it comes first, and read Infinity here
    doc = json.loads(_overflowing_monitor_run(tmp_path).read_text(encoding="utf-8"))
    assert math.isnan(float(doc["max_abs_res2"]))


def test_overflowing_monitor_summary_is_strict_json(tmp_path):
    doc = json.loads(_overflowing_monitor_run(tmp_path).read_text(encoding="utf-8"), parse_constant=_reject)
    assert doc["max_abs_res2"] == "nan"


@pytest.mark.parametrize(
    "value,want",
    [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"), (complex(math.inf, -0.5), ["inf", -0.5]),
     (complex(1.5, math.nan), [1.5, "nan"]), (2.5, 2.5), (None, None)],
)  # fmt: skip
def test_scalar_json_writes_non_finite_numbers_as_strings(value, want):
    got = cli._scalar_json(value)
    assert repr(got) == repr(want)
    if value is not None:
        # float() reads each string back as the number it stands for
        assert repr(complex(*map(float, got)) if isinstance(got, list) else float(got)) == repr(value)


def test_json_dumps_refuses_a_bare_non_finite_number():
    with pytest.raises(ValueError):
        cli.json_dumps({"worst": math.nan})


def test_every_file_integrate_and_zeros_write_has_newline_line_endings(tmp_path, monkeypatch):
    # each file is opened in binary mode: O_BINARY, which only Windows has, is
    # stood in for by a spare bit here, so that every platform sees it asked for
    written = []
    os_open, binary, spare = os.open, getattr(os, "O_BINARY", 0), 1 << 30

    def recorded(path, flags, *args):
        written.append((Path(path).name, bool(flags & spare)))
        return os_open(path, flags & ~spare | binary, *args)

    monkeypatch.setattr(os, "O_BINARY", spare, raising=False)
    monkeypatch.setattr(os, "open", recorded)
    run = ["--z0", "0", "--w0", "2", "--w1", "3", "--span", "4"]
    assert main(["integrate", "--eq", "xxxii", *run, "--out", str(tmp_path / "t.csv"),
                 "--summary", str(tmp_path / "s.json")]) == 0  # fmt: skip
    assert main(["zeros", "--eq", "xxxii", *run, "--out", str(tmp_path / "e.json"),
                 "--summary", str(tmp_path / "z.json")]) == 0  # fmt: skip
    assert written == [("t.csv", True), ("s.json", True), ("e.json", True), ("z.json", True)]
    for name, _ in written:
        assert b"\r" not in (tmp_path / name).read_bytes()


_ORDINARY = (1.0, -1.0, 0.5)
_EXTREMES = [0.0, -0.0, *_ORDINARY, math.nan, math.inf, -math.inf, 1e-320, 1e200, 1e308]
_EXTREME_FLAGS = ("z0", "w0", "w1", "w2", "rel", "abs")


@example(command="integrate", eq="piv", values={"z0": 1e200, "w0": 1.0, "w1": None, "w2": None, "rel": None, "abs": None},
         span=1.0)  # fmt: skip
@given(
    command=st.sampled_from(["integrate", "zeros"]),
    eq=st.sampled_from([k.value for k in K]),
    values=st.fixed_dictionaries({flag: st.none() | st.sampled_from(_EXTREMES) for flag in _EXTREME_FLAGS}),
    span=st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-320]) | st.floats(-1.0, 1.0),
)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_extreme_initial_data_exits_without_traceback(command, eq, values, span, tmp_path, capsys):
    # every kind, with each flag omitted or set to a signed zero, a unit, a
    # subnormal, a value whose powers overflow, or a non-finite value; |span|
    # is at most 1, so that no run steps for long
    argv = [command, f"--eq={eq}", f"--span={span}", f"--out={tmp_path / 'o'}", f"--summary={tmp_path / 's'}"]
    argv += [f"--{flag}={value}" for flag, value in values.items() if value is not None]
    code = main(argv)
    assert code in (0, 1, 2), argv
    err = capsys.readouterr().err
    assert "Traceback" not in err, argv
    # a refused run names a flag of its command, and that flag was given an
    # extreme value: a zero, a subnormal, one whose powers overflow, one not
    # finite, no --w0 at all, or for a tolerance one outside [1e-14, 1]
    if code == 1:
        last = err.splitlines()[-1]
        assert last.startswith("error: --"), (argv, err)
        flag = last.removeprefix("error: --").split(":")[0]
        given = {"span": span, **values}[flag]
        assert given not in _ORDINARY or (flag in ("rel", "abs") and given < 0), (argv, err)
