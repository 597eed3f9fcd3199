import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import GRADE_CHILD, logged_requests, logging_grade_command

import monoxp
from monoxp import GradeClassifier, Point, SpecError, build_oracle, verify_axp, verify_cxp
from monoxp.cli import main
from monoxp.enumeration import _Memo

GRADE_SPEC = {"schema": 1, "kind": "grade"}

MAJORITY_SPEC = {
    "schema": 1,
    "kind": "monotone-dnf",
    "features": [{"name": f"vote{i}", "kind": "boolean", "lower": 0, "upper": 1} for i in (1, 2, 3)],
    "terms": [[1, 2], [1, 3], [2, 3]],
}

CONSTANT_SPEC = {
    "schema": 1,
    "kind": "linear",
    "features": [{"name": "a", "kind": "boolean", "lower": 0, "upper": 1},
                 {"name": "b", "kind": "boolean", "lower": 0, "upper": 1}],
    "classes": ["only"],
    "weights": [1, 1],
    "thresholds": [],
}

# score a + b over two integers in [-5, 5]: "hi" from 0 up
SIGNED_SPEC = {
    "schema": 1,
    "kind": "linear",
    "features": [{"name": name, "kind": "integer", "lower": -5, "upper": 5} for name in "ab"],
    "classes": ["lo", "hi"],
    "weights": [1, 1],
    "thresholds": [0],
}

# the same child, except that it exits when asked about the point 1,2,3,4
DYING_GRADE_CHILD = GRADE_CHILD.replace(
    "for line in sys.stdin:\n",
    "for line in sys.stdin:\n    if line.startswith('1,2,3,4'):\n        sys.exit(1)\n",
)


def write_spec(tmp_path, spec, name="clf.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def without_times(records):
    """The records with their wall-time fields, which differ between runs, left out."""
    return [{k: v for k, v in r.items() if not k.startswith("time_") and k != "classifier_time_pct"} for r in records]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
    err = [json.loads(line) for line in captured.err.splitlines() if line.strip().startswith("{")]
    return code, out, err


class TestExplain:
    def test_axp(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GRADE_SPEC)
        code, out, _ = run(capsys, "explain", "--spec", spec, "--instance", "10,10,5,0", "--kind", "axp")
        assert code == 0
        (record,) = out
        assert record["schema"] == 1
        assert record["prediction"] == "A"
        assert record["features"] == [1, 2]
        assert record["feature_names"] == ["quiz", "exam"]
        assert record["oracle_calls"] <= 2 * 4 + 2  # the scan finds v's label in the command's memo

    def test_cxp(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GRADE_SPEC)
        code, out, _ = run(capsys, "explain", "--spec", spec, "--instance", "10,10,5,0", "--kind", "cxp")
        assert code == 0
        assert out[0]["features"] == [2]

    def test_order_changes_which_cxp(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GRADE_SPEC)
        code, out, _ = run(
            capsys, "explain", "--spec", spec, "--instance", "10,10,5,0", "--kind", "cxp", "--order", "4,3,2,1"
        )
        assert code == 0
        assert out[0]["features"] == [1]

    def test_no_cxp_exit_code(self, tmp_path, capsys):
        spec = write_spec(tmp_path, CONSTANT_SPEC)
        code, out, err = run(capsys, "explain", "--spec", spec, "--instance", "0,0", "--kind", "cxp")
        assert code == 2
        assert not out
        assert err[0]["error"] == "no-cxp-exists"

    def test_out_of_domain_instance(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GRADE_SPEC)
        code, _, err = run(capsys, "explain", "--spec", spec, "--instance", "11,0,0,0", "--kind", "axp")
        assert code == 1
        assert err[0]["error"] == "invalid-input"

    def test_malformed_order_is_an_input_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GRADE_SPEC)
        code, out, err = run(
            capsys, "explain", "--spec", spec, "--instance", "10,10,5,0", "--kind", "cxp", "--order", "1,x"
        )
        assert (code, out) == (1, [])
        assert [e["error"] for e in err] == ["invalid-input"]
        assert "'1,x'" in err[0]["message"]

    @pytest.mark.parametrize(
        "instance, values, prediction",
        [("2.5,7.5,3.0,0", [2.5, 7.5, 3, 0], "C"), ("1e1,0,0,0", [10, 0, 0, 0], "E")],
        ids=["decimals", "exponent"],
    )
    def test_decimal_cells(self, tmp_path, capsys, instance, values, prediction):
        # a cell with an integral value is recorded as an int
        spec = write_spec(tmp_path, GRADE_SPEC)
        code, out, _ = run(capsys, "explain", "--spec", spec, "--instance", instance, "--kind", "axp")
        assert code == 0
        assert (out[0]["instance"], out[0]["prediction"]) == (values, prediction)
        assert list(map(type, out[0]["instance"])) == list(map(type, values))

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_a_non_finite_cell_is_an_input_error(self, tmp_path, capsys, cell):
        spec = write_spec(tmp_path, GRADE_SPEC)
        code, out, err = run(capsys, "explain", "--spec", spec, "--instance", f"{cell},0,0,0", "--kind", "axp")
        assert (code, out) == (1, [])
        assert [e["error"] for e in err] == ["invalid-input"]

    def test_missing_required_flag(self, tmp_path, capsys):
        code = main(["explain", "--instance", "1,1,1,1", "--kind", "axp"])
        capsys.readouterr()
        assert code == 1


@pytest.mark.parametrize(
    "argv, record_type, features",
    [
        (["explain", "--kind", "axp"], "explanation", [1, 2]),
        (["explain", "--kind", "cxp"], "explanation", [2]),
        (["enumerate"], "summary", None),
        (["verify", "--kind", "axp", "--features", "1,2"], "verification", [1, 2]),
    ],
    ids=["explain-axp", "explain-cxp", "enumerate", "verify"],
)
def test_a_negative_instance_is_read_as_a_value(tmp_path, capsys, argv, record_type, features):
    # argparse alone takes "-1,0" for an option and exits with usage text
    spec = write_spec(tmp_path, SIGNED_SPEC)
    code, out, err = run(capsys, *argv[:1], "--spec", spec, "--instance", "-1,0", *argv[1:])
    assert (code, err) == (0, [])
    assert (out[-1]["type"], out[-1]["instance"], out[-1]["prediction"]) == (record_type, [-1, 0], "lo")
    if features is not None:
        assert out[-1]["features"] == features
    else:
        assert out[-1]["complete"] is True and (out[-1]["axp_count"], out[-1]["cxp_count"]) == (1, 2)


def test_a_negative_order_is_an_input_error(tmp_path, capsys):
    spec = write_spec(tmp_path, SIGNED_SPEC)
    code, out, err = run(capsys, "explain", "--spec", spec, "--instance", "-1,0", "--kind", "axp", "--order", "-1,2")
    assert (code, out) == (1, [])
    assert [e["error"] for e in err] == ["invalid-input"]


class TestEnumerate:
    def test_grade_stream_and_summary(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GRADE_SPEC)
        code, out, _ = run(capsys, "enumerate", "--spec", spec, "--instance", "10,10,5,0")
        assert code == 0
        summary = out[-1]
        explanations = out[:-1]
        assert summary["type"] == "summary"
        assert summary["axp_count"] == 1 and summary["cxp_count"] == 2
        assert summary["sat_calls"] == 4
        assert summary["complete"] is True
        assert len(explanations) == 3
        kinds = {(r["kind"], tuple(r["features"])) for r in explanations}
        assert ("axp", (1, 2)) in kinds
        assert ("cxp", (1,)) in kinds and ("cxp", (2,)) in kinds

    def test_summary_counts_the_memo_hits(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GRADE_SPEC)
        code, out, _ = run(capsys, "enumerate", "--spec", spec, "--instance", "10,10,5,0")
        assert code == 0
        # the library run's 12 calls, the prediction among them; the memo
        # answered 4 more, the run's own ask of v among them
        assert (out[-1]["oracle_calls"], out[-1]["cache_hits"]) == (12, 4)
        report = monoxp.enumerate_explanations(Point((10, 10, 5, 0)), GradeClassifier())
        assert (out[-1]["oracle_calls"], out[-1]["cache_hits"]) == (report.oracle_calls, 1 + report.cache_hits)

    def test_summary_times_the_solver(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GRADE_SPEC)
        code, out, _ = run(capsys, "enumerate", "--spec", spec, "--instance", "10,10,5,0")
        assert code == 0
        assert 0 < out[-1]["time_sat"] <= out[-1]["time_total"]
        instances = tmp_path / "rows.csv"
        instances.write_text("10,10,5,0\n")
        code, out, _ = run(capsys, "bench", "--spec", spec, "--instances", str(instances))
        assert code == 0
        assert out[0]["type"] == "instance"
        assert 0 < out[0]["time_sat"] <= out[0]["time_total"]

    def test_limit_marks_incomplete(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GRADE_SPEC)
        code, out, _ = run(capsys, "enumerate", "--spec", spec, "--instance", "10,10,5,0", "--limit", "1")
        assert code == 0
        assert len(out) == 2
        assert out[-1]["complete"] is False

    def test_majority_counts(self, tmp_path, capsys):
        spec = write_spec(tmp_path, MAJORITY_SPEC)
        code, out, _ = run(capsys, "enumerate", "--spec", spec, "--instance", "1,1,1")
        assert code == 0
        assert len(out) == 7  # six explanations plus the summary
        assert out[-1]["sat_calls"] == 7

    def test_dump_cnf(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GRADE_SPEC)
        dump = tmp_path / "blocking.cnf"
        code, _, _ = run(
            capsys, "enumerate", "--spec", spec, "--instance", "10,10,5,0", "--dump-cnf", str(dump)
        )
        assert code == 0
        assert dump.read_text() == "p cnf 4 3\n-2 0\n-1 0\n1 2 0\n"

    def test_round_trip_through_verify(self, tmp_path, capsys):
        spec = write_spec(tmp_path, MAJORITY_SPEC)
        code, out, _ = run(capsys, "enumerate", "--spec", spec, "--instance", "1,1,1")
        assert code == 0
        for record in out[:-1]:
            features = ",".join(str(i) for i in record["features"])
            code, checks, _ = run(
                capsys, "verify", "--spec", spec, "--instance", "1,1,1",
                "--features", features, "--kind", record["kind"],
            )
            assert code == 0
            assert checks[0]["sufficient"] is True
            assert checks[0]["minimal"] is True


class TestVerify:
    @pytest.mark.parametrize(
        "features,kind,sufficient,minimal",
        [
            ("1,2", "axp", True, True),
            ("1,2,3", "axp", True, False),
            ("3", "axp", False, False),
            ("2", "cxp", True, True),
            ("", "cxp", False, False),
        ],
    )
    def test_grade_cases(self, tmp_path, capsys, features, kind, sufficient, minimal):
        spec = write_spec(tmp_path, GRADE_SPEC)
        code, out, _ = run(
            capsys, "verify", "--spec", spec, "--instance", "10,10,5,0", "--features", features, "--kind", kind
        )
        assert code == 0
        assert out[0]["sufficient"] is sufficient
        assert out[0]["minimal"] is minimal

    def test_out_of_range_feature(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GRADE_SPEC)
        code, _, err = run(
            capsys, "verify", "--spec", spec, "--instance", "10,10,5,0", "--features", "5", "--kind", "axp"
        )
        assert code == 1
        assert err[0]["error"] == "invalid-input"


class TestProbe:
    def test_grade_clean(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GRADE_SPEC)
        code, out, _ = run(capsys, "probe", "--spec", spec, "--trials", "200", "--seed", "9")
        assert code == 0
        assert out[0]["violation_count"] == 0
        assert out[0]["violations"] == []

    def test_env_seed_is_used(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MONOXP_SEED", "31337")
        spec = write_spec(tmp_path, GRADE_SPEC)
        code, out, _ = run(capsys, "probe", "--spec", spec, "--trials", "10")
        assert code == 0
        assert out[0]["seed"] == 31337

    def test_violations_of_an_external_child_are_listed(self, tmp_path, capsys):
        # the label falls as the one feature rises from 0 to 1
        child = "import sys\nfor line in sys.stdin: print('hi' if line == '0\\n' else 'lo', flush=True)"
        spec = write_spec(
            tmp_path,
            {
                "schema": 1,
                "kind": "external",
                "command": [sys.executable, "-c", child],
                "features": [{"kind": "integer", "lower": 0, "upper": 1}],
                "classes": ["lo", "hi"],
            },
        )
        code, out, _ = run(capsys, "probe", "--spec", spec, "--trials", "20", "--seed", "3")
        assert code == 0
        (record,) = out
        violations = record["violations"]
        assert record["violation_count"] == len(violations) > 0
        assert all(
            v == {"lower": [0], "upper": [1], "lower_label": "hi", "upper_label": "lo"} for v in violations
        )


class TestBench:
    def test_single_grade_row(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GRADE_SPEC)
        instances = tmp_path / "rows.csv"
        instances.write_text("10,10,5,0\n")
        code, out, _ = run(capsys, "bench", "--spec", spec, "--instances", str(instances))
        assert code == 0
        row, aggregate = out
        assert row["axp_count"] == 1 and row["cxp_count"] == 2
        assert aggregate["axp_size_avg"] == 2.0
        assert aggregate["cxp_size_avg"] == 1.0
        assert aggregate["instances"] == 1

    def test_records_carry_the_memo_hits(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GRADE_SPEC)
        instances = tmp_path / "rows.csv"
        instances.write_text("10,10,5,0\n0,0,0,0\n5,5,5,5\n")
        code, out, _ = run(capsys, "bench", "--spec", spec, "--instances", str(instances))
        assert code == 0
        *rows, aggregate = out
        assert rows[0]["cache_hits"] == 4
        assert aggregate["cache_hits_avg"] == sum(r["cache_hits"] for r in rows) / 3

    def test_aggregate_sums_the_solver_time(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GRADE_SPEC)
        instances = tmp_path / "rows.csv"
        instances.write_text("10,10,5,0\n0,0,0,0\n")
        code, out, _ = run(capsys, "bench", "--spec", spec, "--instances", str(instances))
        assert code == 0
        *rows, aggregate = out
        assert aggregate["time_sat_sum"] == sum(r["time_sat"] for r in rows) > 0

    def test_header_row_skipped(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GRADE_SPEC)
        instances = tmp_path / "rows.csv"
        instances.write_text("quiz,exam,homework,project\n10,10,5,0\n")
        code, out, _ = run(capsys, "bench", "--spec", spec, "--instances", str(instances))
        assert code == 0
        assert out[-1]["instances"] == 1

    def test_empty_file(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GRADE_SPEC)
        instances = tmp_path / "rows.csv"
        instances.write_text("")
        code, out, _ = run(capsys, "bench", "--spec", spec, "--instances", str(instances))
        assert code == 0
        assert out[-1]["instances"] == 0 and out[-1]["errors"] == 0

    def test_malformed_rows_reported_with_line_numbers(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GRADE_SPEC)
        instances = tmp_path / "rows.csv"
        instances.write_text("10,10,5,0\nnot,a,number,row\n10,10,5\n0,0,0,0\n")
        code, out, err = run(capsys, "bench", "--spec", spec, "--instances", str(instances))
        assert code == 0
        aggregate = out[-1]
        assert aggregate["instances"] == 2 and aggregate["errors"] == 2
        messages = [e["message"] for e in err if e["error"] == "malformed-row"]
        assert any("line 2" in m for m in messages)
        assert any("line 3" in m for m in messages)

    def test_only_the_first_row_can_be_a_header(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GRADE_SPEC)
        instances = tmp_path / "rows.csv"
        instances.write_text("quiz,exam,homework,project\nnot,a,number,row\n10,10,5,0\n")
        code, out, err = run(capsys, "bench", "--spec", spec, "--instances", str(instances))
        assert code == 0
        assert out[-1]["instances"] == 1 and out[-1]["errors"] == 1
        (error,) = err
        assert error["error"] == "malformed-row"
        assert error["message"].startswith("line 2: ")

    def test_non_finite_cells_are_malformed_rows(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GRADE_SPEC)
        instances = tmp_path / "rows.csv"
        instances.write_text("nan,0,0,0\n10,10,5,0\n0,inf,0,0\n")
        code, out, err = run(capsys, "bench", "--spec", spec, "--instances", str(instances))
        assert code == 0
        assert [r["line"] for r in out[:-1]] == [2]
        assert out[-1]["instances"] == 1 and out[-1]["errors"] == 2
        assert [e["error"] for e in err] == ["malformed-row"] * 2
        assert [e["message"][:8] for e in err] == ["line 1: ", "line 3: "]

    def test_a_first_row_with_a_number_is_data(self, tmp_path, capsys):
        # one bad cell does not make a header: the row is reported, not dropped
        spec = write_spec(tmp_path, GRADE_SPEC)
        instances = tmp_path / "rows.csv"
        instances.write_text("1,x,5,0\n10,10,5,0\n")
        code, out, err = run(capsys, "bench", "--spec", spec, "--instances", str(instances))
        assert code == 0
        assert out[-1]["instances"] == 1 and out[-1]["errors"] == 1
        (error,) = err
        assert error["error"] == "malformed-row"
        assert error["message"].startswith("line 1: ")

    def test_a_byte_order_mark_is_not_data(self, tmp_path, capsys):
        # spreadsheet programs save CSV files with one
        spec = write_spec(tmp_path, GRADE_SPEC)
        instances = tmp_path / "rows.csv"
        instances.write_text("\ufeff10,10,5,0\n", encoding="utf-8")
        code, out, err = run(capsys, "bench", "--spec", spec, "--instances", str(instances))
        assert (code, err) == (0, [])
        assert [(r["type"], r["line"], r["prediction"]) for r in out[:-1]] == [("instance", 1, "A")]
        assert out[-1]["instances"] == 1 and out[-1]["errors"] == 0

    def test_parallel_matches_serial(self, tmp_path, capsys):
        spec = write_spec(tmp_path, MAJORITY_SPEC)
        instances = tmp_path / "rows.csv"
        instances.write_text("1,1,1\n0,1,1\n1,0,0\n0,0,0\n")
        code, serial, _ = run(capsys, "bench", "--spec", spec, "--instances", str(instances))
        assert code == 0
        code, parallel, _ = run(
            capsys, "bench", "--spec", spec, "--instances", str(instances), "--parallel", "3"
        )
        assert code == 0
        strip = lambda rows: [
            {k: v for k, v in r.items() if not k.startswith("time")} for r in rows if r["type"] == "instance"
        ]
        assert strip(serial) == strip(parallel)

    def test_output_file(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GRADE_SPEC)
        instances = tmp_path / "rows.csv"
        instances.write_text("10,10,5,0\n")
        out_path = tmp_path / "records.jsonl"
        code = main(["bench", "--spec", spec, "--instances", str(instances), "--output", str(out_path)])
        capsys.readouterr()
        assert code == 0
        lines = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert lines[-1]["type"] == "aggregate"


class TestArgumentBounds:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--instances", "{rows}", "--parallel", "0"],
            ["bench", "--instances", "{rows}", "--parallel", "-3"],
            ["enumerate", "--instance", "10,10,5,0", "--limit", "-1"],
            ["enumerate", "--instance", "10,10,5,0", "--budget", "-1"],
        ],
    )
    def test_rejected_at_parse_time(self, tmp_path, capsys, argv):
        spec = write_spec(tmp_path, GRADE_SPEC)
        rows = tmp_path / "rows.csv"
        rows.write_text("10,10,5,0\n")
        out_path = tmp_path / "records.jsonl"
        argv = [a.format(rows=rows) for a in argv]
        code = main([*argv, "--spec", spec, "--output", str(out_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "usage:" in err and f"argument {argv[-2]}: must be at least" in err
        assert not out_path.exists()

    def test_negative_probe_trials_leave_the_output_file_alone(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GRADE_SPEC)
        out_path = tmp_path / "records.jsonl"
        out_path.write_text("kept\n")
        code = main(["probe", "--spec", spec, "--trials", "-1", "--output", str(out_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "usage:" in err and "argument --trials: must be at least 0" in err
        assert out_path.read_text() == "kept\n"


class TestExternalOracle:
    def external_spec(self, tmp_path, script_text=GRADE_CHILD):
        script = tmp_path / "oracle.py"
        script.write_text(script_text)
        return write_spec(
            tmp_path,
            {
                "schema": 1,
                "kind": "external",
                "command": [sys.executable, str(script)],
                "features": [
                    {"name": n, "kind": "real", "lower": 0, "upper": 10}
                    for n in ("quiz", "exam", "homework", "project")
                ],
                "classes": ["F", "E", "D", "C", "B", "A"],
            },
            name="external.json",
        )

    def test_explain_through_subprocess(self, tmp_path, capsys):
        spec = self.external_spec(tmp_path)
        code, out, _ = run(capsys, "explain", "--spec", spec, "--instance", "10,10,5,0", "--kind", "axp")
        assert code == 0
        assert out[0]["features"] == [1, 2]

    def test_enumerate_through_subprocess(self, tmp_path, capsys):
        spec = self.external_spec(tmp_path)
        code, out, _ = run(capsys, "enumerate", "--spec", spec, "--instance", "10,10,5,0")
        assert code == 0
        assert out[-1]["axp_count"] == 1 and out[-1]["cxp_count"] == 2

    def test_enumerate_times_the_prediction_with_the_rest(self, tmp_path, capsys):
        # the child starts during the prediction call, which both timings must cover
        spec = self.external_spec(tmp_path)
        code, out, _ = run(capsys, "enumerate", "--spec", spec, "--instance", "10,10,5,0")
        assert code == 0
        assert out[-1]["time_classifier"] <= out[-1]["time_total"]

    def test_parallel_bench_spawns_one_process_per_worker(self, tmp_path, capsys):
        spec = self.external_spec(tmp_path)
        instances = tmp_path / "rows.csv"
        instances.write_text("10,10,5,0\n0,0,0,0\n0,0,0,8\n5,5,5,5\n")
        code, out, _ = run(capsys, "bench", "--spec", spec, "--instances", str(instances), "--parallel", "2")
        assert code == 0
        assert out[-1]["instances"] == 4 and out[-1]["errors"] == 0
        predictions = {r["line"]: r["prediction"] for r in out[:-1]}
        assert predictions[1] == "A" and predictions[2] == "F" and predictions[3] == "B"

    @pytest.mark.parametrize("parallel", [[], ["--parallel", "2"]])
    def test_bench_keeps_rows_finished_before_the_child_dies(self, tmp_path, capsys, parallel):
        spec = self.external_spec(tmp_path, DYING_GRADE_CHILD)
        instances = tmp_path / "rows.csv"
        instances.write_text("10,10,5,0\n1,2,3,4\n")
        code, out, err = run(capsys, "bench", "--spec", spec, "--instances", str(instances), *parallel)
        assert code == 3
        assert [(r["type"], r["line"], r["axp_count"], r["cxp_count"]) for r in out] == [("instance", 1, 1, 2)]
        assert err[-1]["error"] == "oracle-failure"

    def test_bad_label_exits_3(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            {
                "schema": 1,
                "kind": "external",
                "command": [sys.executable, "-c", "import sys\nfor line in sys.stdin: print('Z', flush=True)"],
                "features": [{"name": "a", "kind": "boolean", "lower": 0, "upper": 1}],
                "classes": ["0", "1"],
            },
        )
        code, _, err = run(capsys, "explain", "--spec", spec, "--instance", "1", "--kind", "axp")
        assert code == 3
        assert err[0]["error"] == "oracle-failure"

    def test_undecodable_reply_exits_3(self, tmp_path, capsys):
        reply = "import sys\nfor line in sys.stdin: sys.stdout.buffer.write(b'\\xff\\n'); sys.stdout.flush()"
        spec = write_spec(
            tmp_path,
            {
                "schema": 1,
                "kind": "external",
                "command": [sys.executable, "-c", reply],
                "features": [{"name": "a", "kind": "boolean", "lower": 0, "upper": 1}],
                "classes": ["0", "1"],
            },
        )
        code, out, err = run(capsys, "explain", "--spec", spec, "--instance", "1", "--kind", "axp")
        assert (code, out) == (3, [])
        assert err[0]["error"] == "oracle-failure"

    def test_integer_instance_past_float_precision_is_exact(self, tmp_path, capsys):
        log = tmp_path / "requests.log"
        spec = write_spec(
            tmp_path,
            {
                "schema": 1,
                "kind": "external",
                "command": logging_grade_command(log),
                "features": [{"kind": "integer", "lower": 0, "upper": 2**54}] * 4,
                "classes": ["F", "E", "D", "C", "B", "A"],
            },
        )
        code, out, _ = run(capsys, "explain", "--spec", spec, "--instance", "9007199254740993,0,0,0", "--kind", "axp")
        assert code == 0
        assert out[0]["instance"] == [9007199254740993, 0, 0, 0]
        assert logged_requests(log)[0] == "9007199254740993,0,0,0\n"

    @pytest.mark.parametrize(
        "argv, exit_code",
        [
            (["explain", "--kind", "axp"], 0),
            (["explain", "--kind", "cxp"], 2),
            (["verify", "--kind", "axp", "--features", "1"], 0),
        ],
        ids=["explain-axp", "explain-cxp", "verify"],
    )
    def test_a_child_that_changes_a_repeated_answer_is_asked_each_point_once(self, tmp_path, capsys, argv, exit_code):
        # the child answers 1 but to a point's second request; each command
        # asks its points through one memo, so no second request goes out
        # and the outcome is that of a child that never changes an answer:
        # the constant 1, which has no CXp
        child = tmp_path / "flip_second.py"
        child.write_text(
            "import sys\nasked = {}\nlog = open(sys.argv[1], 'a')\nfor line in sys.stdin:\n"
            "    log.write(line)\n    log.flush()\n    asked[line] = asked.get(line, 0) + 1\n"
            "    print(0 if asked[line] == 2 and sys.argv[2] == 'flip' else 1, flush=True)\n"
        )
        outcomes = []
        for mode in ("flip", "steady"):
            log = tmp_path / f"{mode}.log"
            spec = write_spec(
                tmp_path,
                {
                    "schema": 1,
                    "kind": "external",
                    "command": [sys.executable, str(child), str(log), mode],
                    "features": [{"name": "a", "kind": "boolean", "lower": 0, "upper": 1}],
                    "classes": ["0", "1"],
                },
                name=f"{mode}.json",
            )
            code, out, err = run(capsys, *argv, "--spec", spec, "--instance", "1")
            assert set(Counter(logged_requests(log)).values()) == {1}
            outcomes.append((code, without_times(out), err))
        assert outcomes[0] == outcomes[1]
        code, _, err = outcomes[0]
        assert code == exit_code
        assert [e["error"] for e in err] == ([] if code == 0 else ["no-cxp-exists"])

    @pytest.mark.parametrize("command", ["enumerate", "bench"])
    def test_a_changed_answer_ends_a_run(self, tmp_path, capsys, command):
        # a monotone linear child over three integer features that flips its
        # answer to every repeated request; the run hears one on the loop's
        # first corner check and must end with one error and no record
        child = (
            "import sys\nasked = {}\nfor line in sys.stdin:\n"
            "    asked[line] = asked.get(line, 0) + 1\n"
            "    a, b, c = map(int, line.split(','))\n"
            "    print(['lo', 'hi'][(3 * a + b + 2 * c >= 15) != (asked[line] > 1)], flush=True)"
        )
        spec = write_spec(
            tmp_path,
            {
                "schema": 1,
                "kind": "external",
                "command": [sys.executable, "-c", child],
                "features": [{"kind": "integer", "lower": 0, "upper": 5}] * 3,
                "classes": ["lo", "hi"],
            },
        )
        rows = tmp_path / "rows.csv"
        rows.write_text("4,4,4\n")
        where = ["--instance", "4,4,4"] if command == "enumerate" else ["--instances", str(rows)]
        code, out, err = run(capsys, command, "--spec", spec, *where)
        assert (code, out) == (3, [])
        assert [e["error"] for e in err] == ["oracle-failure"]

    @pytest.mark.parametrize("command", ["enumerate", "bench"])
    def test_a_child_that_changes_its_answer_for_v_is_asked_v_once(self, tmp_path, capsys, command):
        # a monotone linear child over three integer features that flips
        # every answer for 4,4,4 but the first: the command asks v once,
        # for its prediction, and the run finds it in the command's memo, so
        # the records are those of a child that never flips
        child = tmp_path / "flip_v.py"
        child.write_text(
            "import sys\n"
            "seen = 0\n"
            "log = open(sys.argv[1], 'a')\n"
            "for line in sys.stdin:\n"
            "    log.write(line)\n"
            "    log.flush()\n"
            "    a, b, c = map(int, line.split(','))\n"
            "    label = 3 * a + b + 2 * c >= 15\n"
            "    if line == '4,4,4\\n' and sys.argv[2] == 'flip':\n"
            "        seen += 1\n"
            "        label ^= seen > 1\n"
            "    print(['lo', 'hi'][label], flush=True)\n"
        )
        rows = tmp_path / "rows.csv"
        rows.write_text("4,4,4\n")
        where = ["--instance", "4,4,4", "--limit", "1"] if command == "enumerate" else ["--instances", str(rows)]
        outcomes = []
        for mode in ("flip", "steady"):
            log = tmp_path / f"{mode}.log"
            spec = write_spec(
                tmp_path,
                {
                    "schema": 1,
                    "kind": "external",
                    "command": [sys.executable, str(child), str(log), mode],
                    "features": [{"kind": "integer", "lower": 0, "upper": 5}] * 3,
                    "classes": ["lo", "hi"],
                },
                name=f"{mode}.json",
            )
            code, out, err = run(capsys, command, "--spec", spec, *where)
            assert Counter(logged_requests(log))["4,4,4\n"] == 1
            outcomes.append((code, without_times(out), err))
        assert outcomes[0] == outcomes[1]
        code, out, err = outcomes[0]
        assert (code, err) == (0, [])
        assert {r["prediction"] for r in out if "prediction" in r} == {"hi"}

    @pytest.mark.parametrize("command", ["enumerate", "bench"])
    def test_a_non_monotone_child_is_an_oracle_failure(self, tmp_path, capsys, command):
        # b at 0,0 and 1,1, a at 0,1 and 1,0, with a < b: at 1,0 the loop
        # asks the whole box's lower corner 0,0 and hears b; v's label a is
        # the bottom class, which every lower corner of a monotone oracle
        # carries, so the explainer refuses the box the loop hands it
        child = "import sys\nfor line in sys.stdin:\n    a, b = line.split(',')\n    print('ab'[int(a) == int(b)], flush=True)"
        spec = write_spec(
            tmp_path,
            {
                "schema": 1,
                "kind": "external",
                "command": [sys.executable, "-c", child],
                "features": [{"kind": "boolean", "lower": 0, "upper": 1}] * 2,
                "classes": ["a", "b"],
            },
        )
        rows = tmp_path / "rows.csv"
        rows.write_text("1,0\n")
        where = ["--instance", "1,0"] if command == "enumerate" else ["--instances", str(rows)]
        code, out, err = run(capsys, command, "--spec", spec, *where)
        assert code == 3
        assert [r["type"] for r in out if r["type"] != "explanation"] == []
        assert [e["error"] for e in err] == ["oracle-failure"]
        assert "not monotone over the box that fixes []: the lower corner does not carry v's label 'a', the bottom class" in err[0]["message"]

    def test_dying_process_exits_3(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            {
                "schema": 1,
                "kind": "external",
                "command": [sys.executable, "-c", "pass"],
                "features": [{"name": "a", "kind": "boolean", "lower": 0, "upper": 1}],
                "classes": ["0", "1"],
            },
        )
        code, _, err = run(capsys, "explain", "--spec", spec, "--instance", "1", "--kind", "axp")
        assert code == 3


def logging_grade_spec(log) -> dict:
    """The grade model as an external child that logs its requests to `log`."""
    return {
        "schema": 1,
        "kind": "external",
        "command": logging_grade_command(log),
        "features": [{"kind": "real", "lower": 0, "upper": 10}] * 4,
        "classes": list("FEDCBA"),
    }


@pytest.mark.parametrize("instance", ["10,10,5,0", "5,5,5,5", "0,0,0,8"])
@pytest.mark.parametrize(
    "argv",
    [
        ["explain", "--kind", "axp"],
        ["explain", "--kind", "cxp"],
        ["verify", "--kind", "axp", "--features", "1,2"],
        ["verify", "--kind", "cxp", "--features", "1,2"],
        ["enumerate"],
        ["bench"],
    ],
    ids=["explain-axp", "explain-cxp", "verify-axp", "verify-cxp", "enumerate", "bench"],
)
def test_no_command_sends_a_point_twice_but_the_loops_corners(tmp_path, capsys, monkeypatch, argv, instance):
    # a command asks every point through one memo, v for its prediction
    # first; only an enumeration loop's corner check sends a point again,
    # once for each time it asks the corner, so a corner new to the run
    # goes out twice in a row
    checked = Counter()
    real_corner = monoxp.enumeration._Memo.corner

    def corner(memo, point):
        checked[",".join(map(str, point.values)) + "\n"] += 1
        return real_corner(memo, point)

    monkeypatch.setattr(monoxp.enumeration._Memo, "corner", corner)
    log = tmp_path / "requests.log"
    spec = write_spec(tmp_path, logging_grade_spec(log))
    rows = tmp_path / "rows.csv"
    rows.write_text(instance + "\n")
    where = ["--instances", str(rows)] if argv == ["bench"] else ["--instance", instance]
    code, out, _ = run(capsys, *argv, "--spec", spec, *where)
    assert code == 0
    logged = logged_requests(log)
    assert logged[0] == instance + "\n"
    sent = Counter(logged)
    assert sum(sent.values()) == [r for r in out if "oracle_calls" in r][0]["oracle_calls"]
    # v too: the lower corner of a box that fixes feature 4 at 0,0,0,8 is v
    assert all(n == 1 + checked[line] for line, n in sent.items())
    assert bool(checked) == (argv[0] in ("enumerate", "bench"))


@pytest.mark.parametrize("pipe", [False, True], ids=["in-process", "pipe"])
@pytest.mark.parametrize("command", ["enumerate", "bench"])
def test_each_run_asks_the_oracle_the_spec_built(tmp_path, capsys, monkeypatch, command, pipe):
    # a run continues in the memo its command asked v through, which wraps
    # the oracle itself; the records still count every request the child read
    built, given = [], []

    def build(spec):
        built.append(build_oracle(spec))
        return built[-1]

    def enumerate_explanations(v, oracle, **kwargs):
        given.append(oracle)
        return monoxp.enumerate_explanations(v, oracle, **kwargs)

    monkeypatch.setattr(monoxp.cli, "build_oracle", build)
    monkeypatch.setattr(monoxp.cli, "enumerate_explanations", enumerate_explanations)
    log = tmp_path / "requests.log"
    spec = write_spec(tmp_path, logging_grade_spec(log) if pipe else GRADE_SPEC)
    instances = tmp_path / "rows.csv"
    instances.write_text("10,10,5,0\n0,0,0,8\n")
    argv = ["--instance", "10,10,5,0"] if command == "enumerate" else ["--instances", str(instances)]
    code, out, _ = run(capsys, command, "--spec", spec, *argv)
    assert code == 0
    assert len(built) == 1 and len(given) == (1 if command == "enumerate" else 2)
    assert all(isinstance(memo, _Memo) and memo.inner is built[0] for memo in given)
    if pipe:
        counted = [r["oracle_calls"] for r in out if r["type"] in ("summary", "instance")]
        assert len(logged_requests(log)) == sum(counted) > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--instances", "{missing}/rows.csv"],
        ["explain", "--instance", "10,10,5,0", "--kind", "axp", "--output", "{missing}/out.jsonl"],
        ["enumerate", "--instance", "10,10,5,0", "--dump-cnf", "{missing}/blocking.cnf"],
        ["verify", "--instance", "10,10,5,0", "--features", "1,2", "--kind", "axp", "--output", "{missing}/out.jsonl"],
        ["probe", "--trials", "5", "--output", "{missing}/out.jsonl"],
        ["enumerate", "--instance", "10,10,5,0", "--output", "{missing}/out.jsonl"],
    ],
)
def test_unopenable_path_is_an_input_error(tmp_path, capsys, argv):
    log = tmp_path / "requests.log"
    spec = write_spec(tmp_path, logging_grade_spec(log))
    missing = tmp_path / "no-such-dir"
    code, out, err = run(capsys, *[a.format(missing=missing) for a in argv], "--spec", spec)
    assert code == 1
    assert [e["error"] for e in err] == ["invalid-input"]
    assert str(missing) in err[-1]["message"]
    # every path opens before the work starts: nothing is written, nothing asked
    assert out == []
    assert not log.exists()


def test_enumerate_output_and_dump_on_one_file_is_refused(tmp_path, capsys, monkeypatch):
    log = tmp_path / "requests.log"
    spec = write_spec(tmp_path, logging_grade_spec(log))
    target = tmp_path / "out.jsonl"
    (tmp_path / "link.jsonl").symlink_to(target)
    monkeypatch.chdir(tmp_path)
    for dump in (str(target), "out.jsonl", str(tmp_path / "link.jsonl"), f"{tmp_path}/../{tmp_path.name}/out.jsonl"):
        argv = ["enumerate", "--spec", spec, "--instance", "10,10,5,0", "--output", str(target), "--dump-cnf", dump]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, [])
        assert [e["error"] for e in err] == ["invalid-input"]
        assert "same file" in err[0]["message"]
        assert not target.exists()  # refused before either path opens
    assert not log.exists()
    # two different files still both get written
    code, out, err = run(capsys, "enumerate", "--spec", spec, "--instance", "10,10,5,0", "--output", str(target),
                         "--dump-cnf", "blocking.cnf")
    assert (code, out, err) == (0, [], [])
    assert [json.loads(line)["type"] for line in target.read_text().splitlines()][-1] == "summary"
    assert (tmp_path / "blocking.cnf").read_text().startswith("p cnf 4 ")


def run_cli_process(argv, stdout):
    """The CLI in a child interpreter, its stdout on `stdout`; stderr is captured."""
    src = str(Path(monoxp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    command = [sys.executable, "-c", "import sys; from monoxp.cli import main; sys.exit(main())", *argv]
    return subprocess.run(command, stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_enumerate_refuses_a_dump_into_its_own_stdout(tmp_path):
    # with no --output the records go to stdout, so a dump there would mix
    # DIMACS lines into the JSON Lines stream
    spec = write_spec(tmp_path, GRADE_SPEC)
    argv = ["enumerate", "--spec", spec, "--instance", "10,10,5,0", "--dump-cnf"]
    target = tmp_path / "out.jsonl"
    # /dev/stdout on a pipe, then the very file stdout is redirected to
    piped = run_cli_process([*argv, "/dev/stdout"], subprocess.PIPE)
    with open(target, "wb") as out:
        redirected = run_cli_process([*argv, str(target)], out)
    for done, written in ((piped, piped.stdout), (redirected, target.read_bytes())):
        assert (done.returncode, written) == (1, b"")
        (error,) = [json.loads(line) for line in done.stderr.decode().splitlines() if line.startswith("{")]
        assert error["error"] == "invalid-input" and "same file" in error["message"]
    # a dump to another file still goes through
    with open(target, "wb") as out:
        done = run_cli_process([*argv, str(tmp_path / "blocking.cnf")], out)
    assert (done.returncode, done.stderr) == (0, b"")
    assert json.loads(target.read_text().splitlines()[-1])["type"] == "summary"
    assert (tmp_path / "blocking.cnf").read_text().startswith("p cnf 4 ")


@pytest.mark.parametrize("text", [None, '{"schema": 1, "kind": '], ids=["missing", "malformed-json"])
def test_unreadable_spec_is_an_input_error(tmp_path, capsys, text):
    path = tmp_path / "clf.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, "explain", "--spec", str(path), "--instance", "10,10,5,0", "--kind", "axp")
    assert (code, out) == (1, [])
    assert [e["error"] for e in err] == ["invalid-input"]
    assert str(path) in err[0]["message"]


class TestSpecLoading:
    def test_schema_required(self, tmp_path):
        with pytest.raises(SpecError, match="schema"):
            build_oracle({"kind": "grade"})

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="kind"):
            build_oracle({"schema": 1, "kind": "mystery"})

    def test_a_byte_order_mark_before_the_spec(self, tmp_path, capsys):
        path = tmp_path / "clf.json"
        path.write_text("\ufeff" + json.dumps(GRADE_SPEC), encoding="utf-8")
        code, out, err = run(capsys, "explain", "--spec", str(path), "--instance", "10,10,5,0", "--kind", "axp")
        assert (code, err) == (0, [])
        assert out[0]["features"] == [1, 2]

    def test_a_bound_past_float_range_is_an_input_error(self, tmp_path, capsys):
        # JSON writes the bound out as its 401 digits
        spec = {**CONSTANT_SPEC, "features": [{"kind": "integer", "lower": 0, "upper": 10**400}] * 2}
        path = write_spec(tmp_path, spec)
        code, out, err = run(capsys, "explain", "--spec", path, "--instance", "0,0", "--kind", "axp")
        assert (code, out) == (1, [])
        assert [e["error"] for e in err] == ["invalid-input"]
        assert "fit in a float" in err[0]["message"]

    def test_linear_loads_and_classifies(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            {
                "schema": 1,
                "kind": "linear",
                "features": [{"name": "a", "kind": "integer", "lower": 0, "upper": 3},
                             {"name": "b", "kind": "integer", "lower": 0, "upper": 3}],
                "classes": ["lo", "hi"],
                "weights": [1, 1],
                "thresholds": [3],
            },
        )
        code, out, _ = run(capsys, "explain", "--spec", spec, "--instance", "3,3", "--kind", "axp")
        assert code == 0
        assert out[0]["prediction"] == "hi"

    def test_appendix_cnf_spec(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            {"schema": 1, "kind": "appendix-cnf", "variables": 2, "clauses": [[1, 2], [-1, -2]]},
        )
        code, out, _ = run(capsys, "enumerate", "--spec", spec, "--instance", "1,1,1,1")
        assert code == 0
        assert out[-1]["axp_count"] == 4

    def test_appendix_cnf_features_must_be_twice_the_variables_in_booleans(self):
        cnf = {"schema": 1, "kind": "appendix-cnf", "variables": 2, "clauses": [[1, 2], [-1, -2]]}
        boolean = {"kind": "boolean", "lower": 0, "upper": 1}
        named = [{**boolean, "name": name} for name in "abcd"]
        assert build_oracle({**cnf, "features": named}).space.feature_names == tuple("abcd")
        for features, message in (
            ([boolean] * 3, "needs 4 boolean features"),
            ([{**boolean, "kind": "integer"}] * 4, "must all be boolean"),
        ):
            with pytest.raises(SpecError, match=message):
                build_oracle({**cnf, "features": features})

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"schema": 1, "kind": "appendix-cnf", "variables": 2, "clauses": []}, "at least one clause"),
            ({**MAJORITY_SPEC, "kind": "external", "classes": ["0", "1"], "command": ""}, "empty oracle command line"),
            ({**MAJORITY_SPEC, "kind": "external", "classes": ["0", "1"], "command": []}, "empty oracle command line"),
        ],
        ids=["cnf-clauses", "command-text", "command-list"],
    )
    def test_an_empty_clause_list_or_command_is_refused(self, spec, message):
        with pytest.raises(SpecError, match=message):
            build_oracle(spec)

    def test_trivially_satisfiable_cnf_rejected_at_load(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            {"schema": 1, "kind": "appendix-cnf", "variables": 2, "clauses": [[1], [1, 2]]},
        )
        code, _, err = run(capsys, "explain", "--spec", spec, "--instance", "1,1,1,1", "--kind", "axp")
        assert code == 1
        assert "x1" in err[0]["message"]

    def test_unbounded_real_rejected(self):
        with pytest.raises(SpecError):
            build_oracle(
                {
                    "schema": 1,
                    "kind": "linear",
                    "features": [{"name": "a", "kind": "real", "lower": 0, "upper": float("inf")}],
                    "classes": ["x"],
                    "weights": [1],
                    "thresholds": [],
                }
            )

    def test_dnf_features_must_be_boolean(self):
        with pytest.raises(SpecError, match="boolean"):
            build_oracle(
                {
                    "schema": 1,
                    "kind": "monotone-dnf",
                    "features": [{"name": "a", "kind": "integer", "lower": 0, "upper": 3}],
                    "terms": [[1]],
                }
            )

    def test_grade_shape_checked(self, tmp_path, capsys):
        real = {"kind": "real", "lower": 0, "upper": 10.0}
        matching = {"features": [real] * 4, "classes": list("FEDCBA")}
        assert build_oracle({"schema": 1, "kind": "grade", **matching}).classes.labels == tuple("FEDCBA")
        names = ("quiz", "exam", "homework", "project")
        named = [{**real, "name": name} for name in names]
        for features in (named, [named[0], real, named[2], real]):
            assert build_oracle({"schema": 1, "kind": "grade", "features": features}).space.feature_names == names
        renamed = (
            [{**real, "name": name} for name in ("a", "b", "c", "d")],
            named[::-1],
            [real, {**real, "name": "midterm"}, real, real],
            [{**real, "name": 1}, real, real, real],
        )
        for mismatch in (
            {"features": [{"name": "a", "kind": "real", "lower": 0, "upper": 5}]},
            {"features": [{**real, "kind": "integer", "upper": 10}] * 4},
            {"classes": "FEDCBA"},
            *({"features": features} for features in renamed),
        ):
            with pytest.raises(SpecError):
                build_oracle({"schema": 1, "kind": "grade", **mismatch})
        # a renamed feature would go out under its built-in name in every record
        spec = write_spec(tmp_path, {**GRADE_SPEC, "features": renamed[0]})
        code, out, err = run(capsys, "explain", "--spec", spec, "--instance", "10,10,5,0", "--kind", "axp")
        assert (code, out) == (1, [])
        assert [e["error"] for e in err] == ["invalid-input"]
        assert "quiz, exam, homework, project" in err[0]["message"]

    @pytest.mark.parametrize(
        "spec, instance",
        [
            ({**GRADE_SPEC, "classes": 5}, "10,10,5,0"),
            ({**CONSTANT_SPEC, "weights": ["x", 1]}, "0,0"),
            ({**CONSTANT_SPEC, "classes": ["lo", "hi"], "thresholds": ["x"]}, "0,0"),
            ({**MAJORITY_SPEC, "terms": [3]}, "1,1,1"),
            ({**MAJORITY_SPEC, "terms": ["1"]}, "1,1,1"),
            ({**MAJORITY_SPEC, "terms": [[1.0]]}, "1,1,1"),
            ({"schema": 1, "kind": "appendix-cnf", "variables": 1, "clauses": [1, 2]}, "1,1"),
            ({**CONSTANT_SPEC, "features": [{"kind": "integer", "lower": "0", "upper": 1}] * 2}, "0,0"),
            # JSON true/false are no numbers, although Python's bool is an int
            ({"schema": 1, "kind": "appendix-cnf", "variables": True, "clauses": [[1], [-1]]}, "1,1"),
            ({**CONSTANT_SPEC, "features": [{"kind": "integer", "lower": False, "upper": 1}] * 2}, "0,0"),
            ({**CONSTANT_SPEC, "features": [{"kind": "boolean", "lower": 0, "upper": True}] * 2}, "0,0"),
            ({**CONSTANT_SPEC, "weights": [True, 1]}, "0,0"),
            ({**CONSTANT_SPEC, "classes": ["lo", "hi"], "thresholds": [True]}, "0,0"),
            ({**MAJORITY_SPEC, "terms": [[True]]}, "1,1,1"),
            ({"schema": 1, "kind": "appendix-cnf", "variables": 2, "clauses": [[True], [-1, 2]]}, "1,1,1,1"),
        ],
        ids=["grade-classes", "linear-weights", "linear-thresholds", "dnf-term-int", "dnf-term-str", "dnf-term-float",
             "cnf-clauses", "bound-str", "cnf-variables-bool", "bound-lower-bool", "bound-upper-bool",
             "linear-weights-bool", "linear-thresholds-bool", "dnf-term-bool", "cnf-literal-bool"],
    )
    def test_malformed_values_are_input_errors(self, tmp_path, capsys, spec, instance):
        path = write_spec(tmp_path, spec)
        code, out, err = run(capsys, "explain", "--spec", path, "--instance", instance, "--kind", "axp")
        assert code == 1
        assert out == []
        assert err[-1]["error"] == "invalid-input"

    @pytest.mark.parametrize(
        "weights, thresholds",
        [([1, float("nan")], [2, 4]), ([1, 1], [float("nan"), 4]), ([float("inf"), 1], [2, 4]), ([1, 1], [2, float("inf")])],
        ids=["weight-nan", "threshold-nan", "weight-inf", "threshold-inf"],
    )
    def test_non_finite_linear_parameters_are_input_errors(self, tmp_path, capsys, weights, thresholds):
        # Python's json reads NaN and Infinity, so a spec file can carry them
        spec = {**CONSTANT_SPEC, "classes": ["lo", "mid", "hi"], "weights": weights, "thresholds": thresholds}
        path = write_spec(tmp_path, spec)
        code, out, err = run(capsys, "explain", "--spec", path, "--instance", "0,0", "--kind", "axp")
        assert code == 1
        assert out == []
        assert [e["error"] for e in err] == ["invalid-input"]
        assert "finite" in err[0]["message"]

    def test_instance_echoes_names(self, tmp_path, capsys):
        spec = write_spec(tmp_path, MAJORITY_SPEC)
        code, out, _ = run(capsys, "explain", "--spec", spec, "--instance", "1,1,1", "--kind", "axp")
        assert code == 0
        assert all(name.startswith("vote") for name in out[0]["feature_names"])


def test_verify_consistency_with_library(tmp_path):
    # the CLI's verdicts agree with the library calls it fronts
    grade = GradeClassifier()
    v = Point((10, 10, 5, 0))
    assert verify_axp({1, 2}, v, grade)
    assert not verify_axp({3}, v, grade)
    assert verify_cxp({2}, v, grade)
