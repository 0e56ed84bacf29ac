"""How `scripts/compare_outputs.py` describes an artifact that moved: its shape, and its largest relative move."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("compare_outputs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def movement(script):
    return script.movement


_CSV = "alpha,status,node_count,pole_est_re,h_min\n-2,pole,15,0.47808960997076932,0.031758806047446297\n"


def _summary(**changes) -> bytes:
    doc = {"status": "pole", "pole_estimate": 1.0000000000000016, "node_count": 9, "events": [{"a": 0.5}]}
    doc.update(changes)
    return json.dumps(doc, indent=2).encode()


def test_a_csv_float_moved_by_rounding_keeps_the_shape(movement):
    after = _CSV.replace("0.031758806047446297", "0.031758806047446304")
    assert movement("sweep.csv", _CSV.encode(), after.encode()) == (
        "shape held; largest relative difference 2.2e-16 (line 2, column h_min)"
    )


def test_the_largest_of_several_csv_moves_is_reported(movement):
    after = _CSV.replace("0.47808960997076932", "0.47808960997076976").replace("0.031758806047446297", "0.03175880604744")
    assert movement("sweep.csv", _CSV.encode(), after.encode()).endswith(" 2e-13 (line 2, column h_min)")


@pytest.mark.parametrize(
    "after, line",
    [
        (_CSV.replace(",pole,", ",step_underflow,"), 2),  # a status: a text column
        (_CSV.replace(",15,", ",16,"), 2),  # a node count
        (_CSV + "-1,pole,3,0.5,0.25\n", 3),  # a row
        (_CSV.replace("h_min", "h_max"), 1),  # a column
    ],
    ids=["status", "node-count", "row", "column"],
)
def test_a_csv_count_status_row_or_column_changes_the_shape(movement, after, line):
    assert movement("sweep.csv", _CSV.encode(), after.encode()) == f"shape changed from line {line}"


def test_a_json_float_moved_keeps_the_shape(movement):
    assert movement("summary.json", _summary(), _summary(pole_estimate=1.0000000000000018)) == (
        "shape held; largest relative difference 2.2e-16 (line 3, after '\"pole_estimate\"')"
    )


@pytest.mark.parametrize(
    "after",
    [
        _summary(status="step_underflow"),
        _summary(node_count=10),
        _summary(events=[{"a": 0.5}, {"a": 0.75}]),
        json.dumps({"state": "pole", "pole_estimate": 1.0000000000000016, "node_count": 9, "events": [{"a": 0.5}]},
                   indent=2).encode(),
    ],
    ids=["status", "node-count", "event-count", "key"],
)
def test_a_json_status_count_or_key_changes_the_shape(movement, after):
    assert movement("summary.json", _summary(), after).startswith("shape changed from line ")


def test_stdout_keeps_its_exit_code_as_shape(movement):
    before = b"exit 0\nconstraint: PASS (worst 1.343e-12, budget 1.0e-07)\n"
    assert movement("stdout", before, before.replace(b"1.343e-12", b"1.363e-12")).startswith(
        "shape held; largest relative difference 0.015 (line 2, after 'constraint: PASS (worst')"
    )
    assert movement("stdout", before, before.replace(b"exit 0", b"exit 3")) == "shape changed from line 1"


def test_a_file_written_on_one_side_only(movement):
    assert movement("summary.json", None, _summary()) == "shape changed: written on one side only"


def test_names_and_signed_zeros_are_read_as_they_are_written(movement):
    # digits inside a name (w1_re) are no number, and -0.0 against 0.0 moves by 0
    before = b'{"w1_re": -0.0, "w2_re": 1e-05}'
    assert movement("summary.json", before, b'{"w1_re": 0.0, "w2_re": 1e-05}') == (
        "shape held; largest relative difference 0"
    )
    assert movement("summary.json", before, b'{"w1_re": -0.0, "w3_re": 1e-05}') == "shape changed from line 1"


def test_each_csv_column_reports_its_own_largest_move(script):
    # pole_est_re moved by rounding and h_min for a reason: the columns tell them apart, largest first
    rows = _CSV + "-1,pole,3,0.5,0.25\n"
    after = rows.replace("0.47808960997076932", "0.47808960997076976").replace("0.25\n", "0.3\n")
    assert script.measure("sweep.csv", rows.encode(), after.encode())[1] == {
        "h_min": pytest.approx(0.05 / 0.3), "pole_est_re": pytest.approx(4.4e-16 / 0.47808960997076976, rel=0.01),
    }
    assert list(script.measure("sweep.csv", rows.encode(), after.encode())[1]) == ["h_min", "pole_est_re"]


def test_each_json_key_reports_its_own_largest_move(script):
    # a key in a list of objects reports the largest move over the list; a key whose floats held is not listed
    before = json.dumps({"pole_estimate": 1.5, "events": [{"a": 0.5, "slope": 1.0}, {"a": 0.25, "slope": -1.0}]}, indent=2)
    after = before.replace("0.5,", "0.5000000000000001,").replace("0.25,", "0.26,").replace("1.5,", "1.5000000000000002,")
    moves = script.measure("events.json", before.encode(), after.encode())[1]
    assert list(moves) == ["a", "pole_estimate"]
    assert moves["a"] == pytest.approx(0.01 / 0.26) and moves["pole_estimate"] == pytest.approx(2.2e-16 / 1.5, rel=0.01)


def test_stdout_reports_each_move_by_the_text_before_it(script):
    before = b"exit 0\nconstraint: PASS (worst 1.343e-12, budget 1.0e-07)\nsqrt: PASS (worst 2.0e-12, budget 1.0e-08)\n"
    after = before.replace(b"1.343e-12", b"1.363e-12")
    assert script.measure("stdout", before, after)[1] == {"constraint: PASS (worst": pytest.approx(0.02 / 1.363)}
    after = after.replace(b"budget 1.0e-08", b"budget 2.0e-08")
    assert list(script.measure("stdout", before, after)[1]) == ["sqrt: PASS (worst #, budget", "constraint: PASS (worst"]


def test_no_moves_by_field_where_the_shape_changed_or_nothing_moved(script):
    assert script.measure("sweep.csv", _CSV.encode(), _CSV.replace(",15,", ",16,").encode())[1] == {}
    assert script.measure("summary.json", None, _summary())[1] == {}
    assert script.measure("summary.json", _summary(), _summary())[1] == {}


_RERUN_OUTPUTS = {"integrate-readme-xxix-pole": ("integrate --eq xxix --z0 0 --w0 1 --w1 1 --span 2",
                                                 ("trajectory.csv", "summary.json"))}  # fmt: skip


def test_a_rerun_over_longer_files_writes_the_first_run_s_bytes(script, monkeypatch, capsys):
    monkeypatch.setattr(script, "OUTPUTS", _RERUN_OUTPUTS)
    artifacts, changed = script.outputs(_SCRIPT.parents[1])
    assert changed == [] and set(artifacts) == {
        f"integrate-readme-xxix-pole/{name}" for name in ("stdout", "trajectory.csv", "summary.json")
    }
    assert script.main([str(_SCRIPT.parents[1])]) == 0
    assert capsys.readouterr().out.endswith("rerun over longer files: 3 of 3 identical to the first run\n")


def test_a_writer_that_leaves_the_old_tail_fails_the_rerun(script, monkeypatch, capsys, tmp_path):
    # the package with its in-place writer's truncation taken out: the first run
    # writes new files, and the rerun leaves each file's appended copy behind its bytes
    shutil.copytree(_SCRIPT.parents[1] / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "painleve4" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert "fh.truncate()" in text
    cli.write_text(text.replace("fh.truncate()", "pass"), encoding="utf-8")
    monkeypatch.setattr(script, "OUTPUTS", _RERUN_OUTPUTS)
    assert script.outputs(tmp_path)[1] == [
        "integrate-readme-xxix-pole/trajectory.csv", "integrate-readme-xxix-pole/summary.json",
    ]
    assert script.main([str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "rerun over longer files: 1 of 3 identical to the first run",
        "rerun differs  integrate-readme-xxix-pole/trajectory.csv",
        "rerun differs  integrate-readme-xxix-pole/summary.json",
    ]
