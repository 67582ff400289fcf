import dataclasses
import json
import math
import os
import re
import stat
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest

from mixorder import EvaluationGrid, MixtureModel, ParameterError, cli, default_grid
from mixorder.mixture import _BLOCK
from mixorder.orders import OrderVerdict, _undecided
from mixorder.theorems import (
    HypothesisCheck,
    TheoremReport,
    example_scenario,
    scenario_from_dict,
    search_counterexamples,
    verify_example,
)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def schema():
    return json.loads(cli.schema_path().read_text())


_DELETED = object()

# (example id, key path, value or _DELETED, text the error names); path () is the document
MALFORMED = [
    (1, (), ["not", "an", "object"], "scenario must be an object"),
    (1, ("baseline",), "exponential", "baseline must be an object"),
    (1, ("baseline", "kind"), _DELETED, "missing key 'kind' in baseline"),
    (1, ("matrix_a",), [[0.6, 0.4], [0.3, 0.4]], "matrix_a must be an object"),
    (7, ("matrix_b",), [], "matrix_b must be an object"),
    (1, ("grid",), [], "grid must be an object"),
    (1, ("chain",), "T", "chain must be an array"),
    (1, ("chain", 0), [0.4, [1, 0]], "chain[0] must be an object"),
    (1, ("chain",), _DELETED, "scenario needs key 'chain' or key 'matrix_b'"),
    (1, ("matrix_a", "p"), "55", "matrix_a.p must be an array"),
    (1, ("matrix_a", "theta"), "34", "matrix_a.theta must be an array"),
    (1, ("chain", 0, "permutation"), "10", "chain[0].permutation must be an array"),
    (7, ("group_sizes",), "32", "group_sizes must be an array"),
    # every object below the document names its unknown and missing keys by path
    (1, ("baseline", "x"), 1, "unknown key 'x' in baseline"),
    (1, ("matrix_a", "x"), 1, "unknown key 'x' in matrix_a"),
    (7, ("matrix_b", "x"), 1, "unknown key 'x' in matrix_b"),
    (1, ("chain", 0, "x"), 1, "unknown key 'x' in chain[0]"),
    (1, ("grid",), {"x": 1}, "unknown key 'x' in grid"),
    (1, ("baseline", "params"), _DELETED, "missing key 'params' in baseline"),
    (1, ("matrix_a", "p"), _DELETED, "missing key 'p' in matrix_a"),
    (7, ("matrix_b", "theta"), _DELETED, "missing key 'theta' in matrix_b"),
    (1, ("chain", 0, "omega"), _DELETED, "missing key 'omega' in chain[0]"),
    (1, ("chain", 0, "permutation"), _DELETED, "missing key 'permutation' in chain[0]"),
    (1, ("theorem_id",), "T99", "unknown value for key 'theorem_id': 'T99'"),
    (1, ("common_param",), "fast", "malformed scenario value: could not convert"),
    # numbers must be JSON numbers and counts JSON integers, booleans neither
    (1, ("common_param",), "0.1", "could not convert common_param: '0.1' is not a JSON number"),
    (1, ("common_param",), True, "could not convert common_param: True is not a JSON number"),
    # a JSON integer of 401 digits has no float
    (1, ("common_param",), 10**400, "could not convert common_param: int too large to convert to float"),
    (1, ("chain", 0, "omega"), "0.4", "could not convert chain[0].omega: '0.4' is not a JSON number"),
    (7, ("baseline", "params", "b"), "0.5", "baseline.params.b: '0.5' is not a JSON number"),
    # a parameter named like make_baseline's own argument is one more unknown parameter
    (1, ("baseline", "params", "kind"), 1.0,
     "baseline 'exponential' takes parameters ('a',), got ['a', 'kind']"),
    (1, ("baseline", "params"), [0.2], "baseline.params must be an object"),
    (1, ("grid",), {"points": 301.9}, "could not convert grid.points: 301.9 is not a JSON integer"),
    (1, ("grid",), {"points": True}, "grid.points: True is not a JSON integer"),
    (1, ("grid",), {"t_min": "0.001"}, "grid.t_min: '0.001' is not a JSON number"),
    (1, ("grid",), {"t_max": False}, "grid.t_max: False is not a JSON number"),
    (1, ("matrix_a", "p", 0), "0.6", "matrix_a.p[0]: '0.6' is not a JSON number"),
    (1, ("matrix_a", "theta", 1), True, "matrix_a.theta[1]: True is not a JSON number"),
    (7, ("matrix_b", "theta", 0), "6", "matrix_b.theta[0]: '6' is not a JSON number"),
    (1, ("chain", 0, "permutation", 0), 1.0, "chain[0].permutation[0]: 1.0 is not a JSON integer"),
    (1, ("chain", 0, "permutation", 1), False, "chain[0].permutation[1]: False is not a JSON integer"),
    (7, ("group_sizes", 0), 3.0, "group_sizes[0]: 3.0 is not a JSON integer"),
    (7, ("group_sizes", 1), "2", "group_sizes[1]: '2' is not a JSON integer"),
    # a one-column matrix is refused by ParameterMatrix itself
    (1, ("matrix_a",), {"p": [1.0], "theta": [0.3]},
     "malformed scenario value: parameter matrix needs two rows of equal length n >= 2"),
]


def _case_id(case):
    _, path, value, _ = case
    kind = "deleted" if value is _DELETED else type(value).__name__
    return f"{'.'.join(map(str, path)) or 'document'}={kind}"


def _case_ids(cases):
    # a repeated id is told apart by its value, so the first case keeps the plain id
    ids = []
    for case in cases:
        case_id = _case_id(case)
        ids.append(f"{case_id}:{case[2]!r}" if case_id in ids else case_id)
    return ids


MALFORMED_IDS = _case_ids(MALFORMED)


def malformed_doc(k, path, value):
    doc = json.loads(cli.bundled_scenario_path(k).read_text())
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETED:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


class TestScenarioFiles:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_round_trip(self, k):
        path = cli.bundled_scenario_path(k)
        doc = json.loads(path.read_text())
        s1 = scenario_from_dict(doc)[1]
        doc2 = cli.scenario_to_dict(s1, theorem_id=doc.get("theorem_id"))
        s2 = scenario_from_dict(doc2)[1]
        assert cli.scenario_to_dict(s2) == cli.scenario_to_dict(s1)
        assert np.array_equal(s1.grid.t_values, s2.grid.t_values)

    def test_only_a_uniform_grid_is_serialized(self):
        # the document names a grid by points, t_min and t_max, which cannot hold this one
        s = dataclasses.replace(cli.load_scenario(cli.bundled_scenario_path(1)),
                                grid=EvaluationGrid([0.1, 0.2, 0.9]))
        with pytest.raises(ParameterError, match="only a uniform grid"):
            cli.scenario_to_dict(s)
        uniform = dataclasses.replace(s, grid=default_grid(292, 0.01, 0.9))
        back = scenario_from_dict(cli.scenario_to_dict(uniform))[1]
        assert np.array_equal(back.grid.t_values, uniform.grid.t_values)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_files_match_canned_scenarios(self, k):
        tid, canned = example_scenario(k)
        loaded = cli.load_scenario(cli.bundled_scenario_path(k))
        assert json.loads(cli.bundled_scenario_path(k).read_text())["theorem_id"] == tid
        assert loaded.variant == canned.variant
        assert loaded.common_param == canned.common_param
        assert loaded.matrix_a == canned.matrix_a
        assert loaded.group_sizes == canned.group_sizes
        assert loaded.chain == canned.chain
        assert loaded.matrix_b == canned.matrix_b
        assert loaded.baseline == canned.baseline

    def test_unknown_key_named(self):
        doc = json.loads(cli.bundled_scenario_path(1).read_text())
        doc["extra_knob"] = 1
        with pytest.raises(cli.ScenarioParseError, match="extra_knob"):
            scenario_from_dict(doc)

    def test_missing_required_key_named(self):
        doc = json.loads(cli.bundled_scenario_path(1).read_text())
        del doc["matrix_a"]
        with pytest.raises(cli.ScenarioParseError, match="matrix_a"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("k, path, value, message", MALFORMED, ids=MALFORMED_IDS)
    def test_malformed_document_named(self, k, path, value, message):
        with pytest.raises(cli.ScenarioParseError) as info:
            scenario_from_dict(malformed_doc(k, path, value))
        assert message in str(info.value)

    def test_default_grid_points_unset_is_none(self, monkeypatch):
        monkeypatch.delenv("MIXORDER_GRID_POINTS", raising=False)
        assert cli.default_grid_points() is None

    @pytest.mark.parametrize("points", [10**400, 2**62], ids=["401_digits", "2**62"])
    @pytest.mark.parametrize("key", ["grid.points", "MIXORDER_GRID_POINTS"])
    def test_grid_points_numpy_cannot_size_exit_2(self, tmp_path, capsys, monkeypatch, key, points):
        # numpy's own limit on an array's size, not a cap of ours, rejects these counts
        doc = json.loads(cli.bundled_scenario_path(1).read_text())
        if key == "grid.points":
            doc["grid"] = {"points": points}
        else:
            monkeypatch.setenv(key, str(points))
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        out = tmp_path / "o.csv"
        code, stdout, err = run(["curve", str(scenario), "--out", str(out)], capsys)
        assert code == 2 and stdout == ""
        assert err.startswith(f"error: {key} is more than numpy can size an array by: ")
        assert not out.exists()

    # a count numpy can size but no 64-bit process can map (8 PiB of doubles), so the
    # allocation fails at once whatever the machine's overcommit setting
    @pytest.mark.parametrize("key", ["grid.points", "MIXORDER_GRID_POINTS"])
    def test_grid_the_machine_cannot_allocate_exit_2(self, tmp_path, capsys, monkeypatch, key):
        points = 2**50
        doc = json.loads(cli.bundled_scenario_path(1).read_text())
        if key == "grid.points":
            doc["grid"] = {"points": points}
        else:
            monkeypatch.setenv(key, str(points))
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        out = tmp_path / "o.csv"
        code, stdout, err = run(["curve", str(scenario), "--out", str(out)], capsys)
        assert code == 2 and stdout == ""
        assert err == (f"error: {key} asks for a grid of {points} points, "
                       f"more than this machine can allocate\n")
        assert not out.exists()


class TestCurve:
    def test_survival_csv_dominance(self, tmp_path, capsys):
        out = tmp_path / "ex1.csv"
        code, stdout, _ = run(
            ["curve", str(cli.bundled_scenario_path(1)), "--which", "survival",
             "--out", str(out)], capsys,
        )
        assert code == 0
        lines = out.read_text().split("\n")
        assert lines[0] == "t,x,model_a,model_b"
        rows = [line.split(",") for line in lines[1:] if line]
        assert len(rows) == 2001
        a = np.array([float(r[2]) for r in rows])
        b = np.array([float(r[3]) for r in rows])
        assert np.all(a <= b + 1e-15)

    def test_csv_precision_and_format(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, _, _ = run(
            ["curve", str(cli.bundled_scenario_path(1)), "--out", str(out)], capsys
        )
        assert code == 0
        text = out.read_text()
        assert "\r" not in text
        first_row = text.split("\n")[1]
        # 15 significant digits, period decimal separator, no grouping
        assert re.fullmatch(r"[0-9.eE+,-]+", first_row)
        value = first_row.split(",")[2]
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 15

    def test_hazard_curve_of_balanced_pair(self, tmp_path, capsys):
        out = tmp_path / "ex6.csv"
        code, _, _ = run(
            ["curve", str(cli.bundled_scenario_path(6)), "--which", "hazard",
             "--out", str(out)], capsys,
        )
        assert code == 0
        rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
        h_a = np.array([float(r[2]) for r in rows])
        h_b = np.array([float(r[3]) for r in rows])
        # hazard of the majorizing model dominates pointwise
        assert np.all(h_a >= h_b - 1e-9)

    @pytest.mark.parametrize("which", ["density", "cdf"])
    def test_other_curve_kinds(self, tmp_path, capsys, which):
        out = tmp_path / f"{which}.csv"
        code, _, _ = run(
            ["curve", str(cli.bundled_scenario_path(4)), "--which", which,
             "--out", str(out)], capsys,
        )
        assert code == 0
        rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
        vals = np.array([float(r[2]) for r in rows])
        assert np.all(np.isfinite(vals)) and np.all(vals >= 0)

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"baseline": ')
        code, _, err = run(["curve", str(bad), "--out", str(tmp_path / "o.csv")], capsys)
        assert code == 2
        assert "bad.json" in err

    @pytest.mark.parametrize("k, path, value, message", MALFORMED, ids=MALFORMED_IDS)
    def test_malformed_document_exits_2(self, tmp_path, capsys, k, path, value, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(malformed_doc(k, path, value)))
        out = tmp_path / "o.csv"
        code, stdout, err = run(["curve", str(bad), "--out", str(out)], capsys)
        assert code == 2
        assert stdout == "" and err.startswith("error: ") and message in err
        assert not out.exists()

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        text = cli.bundled_scenario_path(1).read_text(encoding="utf-8")
        bad.write_bytes(text.replace('"T1i"', '"T1\u00e9"').encode("latin-1"))
        out = tmp_path / "o.csv"
        code, stdout, err = run(["curve", str(bad), "--out", str(out)], capsys)
        assert code == 2
        assert stdout == "" and err.startswith(f"error: cannot read scenario file {bad}: ")
        assert "codec can't decode" in err
        assert not out.exists()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        code, _, err = run(["curve", str(missing), "--out", str(tmp_path / "o.csv")], capsys)
        assert code == 2
        assert err.startswith(f"error: cannot read scenario file {missing}: ")

    def test_unknown_scenario_key_exits_2(self, tmp_path, capsys):
        doc = json.loads(cli.bundled_scenario_path(1).read_text())
        doc["shape"] = 3
        bad = tmp_path / "odd.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(["curve", str(bad), "--out", str(tmp_path / "o.csv")], capsys)
        assert code == 2
        assert "shape" in err


class TestVerifyExamples:
    def test_all_consistent_exit_zero(self, capsys, monkeypatch):
        monkeypatch.setenv("MIXORDER_GRID_POINTS", "301")
        code, out, _ = run(["verify-examples"], capsys)
        assert code == 0
        assert out.count("consistent: True") == 7

    def test_single_example_detail(self, capsys):
        code, out, _ = run(["verify-examples", "--ids", "6"], capsys)
        assert code == 0
        assert "0.21" in out and "weight_tilt_products_equal" in out

    def test_empty_ids_exit_2(self, capsys):
        code, _, err = run(["verify-examples", "--ids", ""], capsys)
        assert code == 2

    @pytest.mark.parametrize("ids, message", [
        ("1,x", "example ids must be integers, got 'x'"),
        ("9", "example ids must be in (1, 2, 3, 4, 5, 6, 7), got 9"),
    ])
    def test_bad_ids_exit_2(self, capsys, ids, message):
        code, out, err = run(["verify-examples", "--ids", ids], capsys)
        assert code == 2
        assert out == "" and err == f"error: {message}\n"

    def test_json_to_stdout_validates_against_schema(self, capsys, schema, monkeypatch):
        monkeypatch.setenv("MIXORDER_GRID_POINTS", "301")
        code, out, _ = run(["verify-examples", "--ids", "1,6", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        assert [r["theorem_id"] for r in doc["reports"]] == ["T1i", "T5"]

    def test_json_output_validates_against_schema(self, tmp_path, capsys, schema, monkeypatch):
        monkeypatch.setenv("MIXORDER_GRID_POINTS", "301")
        out_file = tmp_path / "reports.json"
        code, _, _ = run(
            ["verify-examples", "--format", "json", "--out", str(out_file)], capsys
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        jsonschema.validate(doc, schema)
        assert doc["all_consistent"] is True
        assert len(doc["reports"]) == 7

    def test_json_file_is_json_dumps_bytes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MIXORDER_GRID_POINTS", "301")
        out = tmp_path / "r.json"
        code, _, _ = run(["verify-examples", "--ids", "1,6", "--format", "json", "--out", str(out)],
                         capsys)
        reports = [verify_example(k, grid_points=301) for k in (1, 6)]
        doc = {"reports": [cli._to_json(r) for r in reports],
               "all_consistent": all(r.consistent for r in reports)}
        assert code == (0 if doc["all_consistent"] else 1)
        assert out.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()

    def test_text_file_is_the_stdout_text(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MIXORDER_GRID_POINTS", "301")
        _, text, _ = run(["verify-examples", "--ids", "1,6"], capsys)
        out = tmp_path / "r.txt"
        code, stdout, _ = run(["verify-examples", "--ids", "1,6", "--out", str(out)], capsys)
        assert code == 0 and stdout == f"wrote report to {out}\n"
        assert text.startswith("example 1 [T1i]: ") and "\nexample 6 [T5]: " in text
        assert out.read_bytes() == text.encode()

    def test_invalid_grid_env_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("MIXORDER_GRID_POINTS", "zero")
        code, _, err = run(["verify-examples", "--ids", "1"], capsys)
        assert code == 2
        assert "MIXORDER_GRID_POINTS" in err

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_nonpositive_grid_points_exit_2(self, capsys, monkeypatch, points):
        monkeypatch.setenv("MIXORDER_GRID_POINTS", points)
        code, out, err = run(["verify-examples", "--ids", "1"], capsys)
        assert code == 2
        assert out == "" and "MIXORDER_GRID_POINTS must be a positive integer" in err

    def test_repeated_ids_evaluated_once(self, capsys, monkeypatch):
        # each id is evaluated and printed once, in the order of its first mention, and the
        # grid size is read once per command
        calls, reads = [], []
        verify, points = cli.verify_example, cli.default_grid_points
        monkeypatch.setattr(cli, "verify_example", lambda k, *a: calls.append(k) or verify(k, *a))
        monkeypatch.setattr(cli, "default_grid_points", lambda: reads.append(1) or points())
        monkeypatch.setenv("MIXORDER_GRID_POINTS", "301")
        code, out, _ = run(["verify-examples", "--ids", "2,1,2,1"], capsys)
        assert code == 0 and (calls, reads) == ([2, 1], [1])
        assert re.findall(r"^example (\d)", out, re.M) == ["2", "1"]

    def test_grid_points_flag_is_gone_exit_2(self, capsys):
        code, out, err = run(["verify-examples", "--grid-points", "301"], capsys)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --grid-points 301" in err

    def test_inconclusive_report_writes_nulls(self, tmp_path, capsys, schema, monkeypatch):
        report = TheoremReport(
            theorem_id="T7",
            hypotheses=(HypothesisCheck("a_in_space", True, "ok"),),
            conclusion=_undecided("quantile hit the tail guard", notes=("2 points dropped",)),
            asserted="A >=_star B",
            conclusion_holds=False,
            consistent=True,
            inconclusive=True,
            notes=("conclusion undecided",),
        )
        monkeypatch.setattr(cli, "verify_example", lambda k, grid_points, grid_points_key: report)
        out_file = tmp_path / "reports.json"
        code, _, _ = run(
            ["verify-examples", "--ids", "7", "--format", "json", "--out", str(out_file)], capsys
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        jsonschema.validate(doc, schema)
        conclusion = doc["reports"][0]["conclusion"]
        for name in ("max_violation_leq", "max_violation_geq", "witness_t", "truncated_at_t"):
            assert conclusion[name] is None
        assert conclusion["inconclusive"] is True and conclusion["notes"] == ["2 points dropped"]
        assert doc["reports"][0]["hypotheses"] == [
            {"name": "a_in_space", "satisfied": True, "detail": "ok"}
        ]


@pytest.mark.parametrize(
    "definition, cls",
    [("verdict", OrderVerdict), ("report", TheoremReport), ("hypothesis", HypothesisCheck)],
)
def test_schema_properties_are_the_dataclass_fields(schema, definition, cls):
    properties = schema["$defs"][definition]["properties"]
    assert sorted(properties) == sorted(f.name for f in dataclasses.fields(cls))


class TestParser:
    def test_help_exits_0(self, capsys):
        code, stdout, _ = run(["--help"], capsys)
        assert code == 0 and stdout.startswith("usage: mixorder")

    def test_unknown_command_exits_2(self, capsys):
        code, stdout, err = run(["bogus"], capsys)
        assert (code, stdout) == (2, "")
        assert "invalid choice: 'bogus'" in err


class TestCheckOrder:
    def test_st_on_reference_pair(self, capsys):
        code, out, _ = run(
            ["check-order", str(cli.bundled_scenario_path(1)), "--order", "st"], capsys
        )
        assert code == 0
        assert "A <=_st B: holds" in out
        assert "A >=_st B: fails" in out

    def test_lorenz_witness_is_a_level(self, capsys):
        # check_lorenz compares the curves at probability levels p, not at grid t-values
        code, out, _ = run(
            ["check-order", str(cli.bundled_scenario_path(1)), "--order", "lorenz"], capsys
        )
        assert code == 0
        assert out.splitlines()[2] == "worst violation at p=0.837169"

    def test_lorenz_heavy_tail_inconclusive(self, capsys):
        code, _, err = run(
            ["check-order", str(cli.bundled_scenario_path(7)), "--order", "lorenz"], capsys
        )
        assert code == 4

    def test_star_heavy_tail_pair(self, capsys, monkeypatch):
        monkeypatch.setenv("MIXORDER_GRID_POINTS", "301")
        code, out, _ = run(
            ["check-order", str(cli.bundled_scenario_path(7)), "--order", "star"], capsys
        )
        assert code == 0
        assert "A >=_star B: holds" in out

    def test_nan_grid_bound_exits_2(self, tmp_path, capsys):
        doc = json.loads(cli.bundled_scenario_path(1).read_text())
        doc["grid"] = {"t_min": float("nan")}
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))  # written as the JSON token NaN
        code, _, err = run(["check-order", str(bad), "--order", "st"], capsys)
        assert code == 2
        assert err == "error: grid t-values must lie strictly inside (0, 1)\n"

    def test_lorenz_tail_guard_exits_4(self, tmp_path, capsys):
        doc = {
            "baseline": {"kind": "power_burr", "params": {"a": 1.0, "b": 1.2}},
            "model_variant": "vary_alpha", "common_param": 1.0,
            "matrix_a": {"p": [0.5, 0.5], "theta": [1e17, 1e17]},
            "chain": [{"omega": 0.5, "permutation": [1, 0]}],
        }
        path = tmp_path / "guard.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(["check-order", str(path), "--order", "lorenz"], capsys)
        assert code == 4
        assert err.startswith("inconclusive: quantile level")

    def test_star_tail_guard_inconclusive_exits_4(self, tmp_path, capsys):
        doc = {
            "baseline": {"kind": "power_burr", "params": {"a": 1.0, "b": 1.2}},
            "model_variant": "vary_alpha", "common_param": 1.0,
            "matrix_a": {"p": [0.5, 0.5], "theta": [1, 1]},
            "matrix_b": {"p": [0.5, 0.5], "theta": [1e17, 1e17]},
        }
        path = tmp_path / "guard.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(["check-order", str(path), "--order", "star"], capsys)
        assert code == 4
        assert out.startswith("inconclusive: ") and "lies past cdf(1e+18)" in out

    def test_hr_on_balanced_pair(self, capsys):
        code, out, _ = run(
            ["check-order", str(cli.bundled_scenario_path(6)), "--order", "hr"], capsys
        )
        assert code == 0
        assert "A <=_hr B: holds" in out
        assert "hazard cross-check" in out


class TestSearch:
    def test_validated_claim_empty_findings(self, tmp_path, capsys, schema):
        out = tmp_path / "f.json"
        code, stdout, _ = run(
            ["search", "T1i", "--trials", "25", "--seed", "42", "--out", str(out)], capsys
        )
        assert code == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, schema)
        assert doc == []

    def test_necessity_probe_nonempty(self, tmp_path, capsys, schema):
        out = tmp_path / "f.json"
        code, stdout, _ = run(
            ["search", "T5_unconstrained", "--trials", "50", "--seed", "42",
             "--out", str(out)], capsys,
        )
        assert code == 0  # findings are results, not tool failures
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, schema)
        assert len(doc) > 0
        assert all(not r["consistent"] for r in doc)

    def test_deterministic_output(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            code, _, _ = run(
                ["search", "T5_unconstrained", "--trials", "40", "--seed", "5",
                 "--out", str(out)], capsys,
            )
            assert code == 0
        assert out1.read_text() == out2.read_text()

    def test_file_is_json_dumps_bytes(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        code, _, _ = run(["search", "T5_unconstrained", "--trials", "10", "--seed", "42",
                          "--out", str(out)], capsys)
        assert code == 0
        findings = search_counterexamples("T5_unconstrained", 10, 42)
        assert findings
        text = json.dumps([cli._to_json(r) for r in findings], indent=2, sort_keys=True)
        assert out.read_bytes() == (text + "\n").encode()

    def test_zero_trials_exit_2(self, tmp_path, capsys):
        code, _, _ = run(
            ["search", "T1i", "--trials", "0", "--out", str(tmp_path / "f.json")], capsys
        )
        assert code == 2

    def test_unknown_theorem_exit_2(self, tmp_path, capsys):
        code, _, _ = run(
            ["search", "T99", "--trials", "5", "--out", str(tmp_path / "f.json")], capsys
        )
        assert code == 2

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        code, _, err = run(
            ["search", "T6", "--trials", "2", "--seed", "-1", "--out", str(out)], capsys
        )
        assert code == 2
        assert err == "error: seed must be a non-negative integer, got -1\n"
        assert not out.exists()


class TestSample:
    def test_reproducible(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            code, _, _ = run(
                ["sample", str(cli.bundled_scenario_path(1)), "--n", "10",
                 "--seed", "7", "--out", str(out)], capsys,
            )
            assert code == 0
        assert a.read_text() == b.read_text()
        assert len(a.read_text().strip().split("\n")) == 10

    def test_grid_env_is_not_read(self, tmp_path, capsys, monkeypatch):
        # sample uses no grid, so an override that is no size at all changes neither its exit
        # code nor its bytes
        argv = ["sample", str(cli.bundled_scenario_path(5)), "--n", "10", "--seed", "1", "--out"]
        unset, zero = tmp_path / "unset.txt", tmp_path / "zero.txt"
        monkeypatch.delenv("MIXORDER_GRID_POINTS", raising=False)
        assert run(argv + [str(unset)], capsys)[::2] == (0, "")
        monkeypatch.setenv("MIXORDER_GRID_POINTS", "zero")
        assert run(argv + [str(zero)], capsys)[::2] == (0, "")
        assert zero.read_bytes() == unset.read_bytes()

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        code, _, err = run(
            ["sample", str(cli.bundled_scenario_path(1)), "--n", "3",
             "--seed", "-1", "--out", str(out)], capsys,
        )
        assert code == 2
        assert err == "error: seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    def test_negative_count_exit_2(self, tmp_path, capsys):
        code, _, _ = run(
            ["sample", str(cli.bundled_scenario_path(1)), "--n", "-1",
             "--seed", "7", "--out", str(tmp_path / "s.txt")], capsys,
        )
        assert code == 2

    def test_zero_count_exits_2_with_model_message(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        code, _, err = run(
            ["sample", str(cli.bundled_scenario_path(1)), "--n", "0", "--out", str(out)], capsys
        )
        assert code == 2
        assert err == "error: sample count must be a positive integer, got 0\n"
        assert not out.exists()

    def test_count_the_disk_cannot_take_fails_at_once(self, tmp_path, capsys, monkeypatch):
        # every draw takes at least two bytes ("0\n"), so 501 draws do not fit in 1,000
        def no_draws(*args):
            raise AssertionError("sampled before the room was checked")

        monkeypatch.setattr(cli.shutil, "disk_usage", lambda path: SimpleNamespace(free=1_000))
        monkeypatch.setattr(MixtureModel, "sample", no_draws)
        out = tmp_path / "new" / "s.txt"
        code, stdout, err = run(
            ["sample", str(cli.bundled_scenario_path(1)), "--n", "501", "--out", str(out)], capsys
        )
        assert (code, stdout) == (2, "")
        assert err == (f"error: cannot write {out}: 501 draws take at least 1002 bytes, "
                       "1000 are free\n")
        assert list(tmp_path.iterdir()) == []

    def test_unreadable_free_space_exits_2(self, tmp_path, capsys, monkeypatch):
        def no_usage(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cli.shutil, "disk_usage", no_usage)
        out = tmp_path / "s.txt"
        code, stdout, err = run(
            ["sample", str(cli.bundled_scenario_path(1)), "--n", "5", "--out", str(out)], capsys
        )
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: cannot write {out}: [Errno 13] Permission denied")
        assert not out.exists()

    def test_large_sample_matches_analytic_survival(self, tmp_path, capsys):
        out = tmp_path / "draws.txt"
        code, _, _ = run(
            ["sample", str(cli.bundled_scenario_path(1)), "--n", "200000",
             "--seed", "3", "--out", str(out)], capsys,
        )
        assert code == 0
        draws = np.array([float(v) for v in out.read_text().split()])
        emp = float(np.mean(draws > 1.0))
        assert abs(emp - 0.94291615164119531) <= 3.0 * math.sqrt(0.25 / 200000)


class TestWriterBytes:
    """The block writers match per-element f-string formatting byte for byte."""

    SPECIAL = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e308, -1e308,
               2.2250738585072014e-308, 0.1, 1.0 / 3.0, 123456789.0, 1e15, 1e16, -2.5e-7]

    def values(self, n, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, size=n)
        # specials at the start, across a block boundary and in the last, partial block
        for at in (0, _BLOCK - 3, n - len(self.SPECIAL)):
            v[at:at + len(self.SPECIAL)] = self.SPECIAL
        return v

    def test_curve_file(self, tmp_path, capsys, monkeypatch):
        n = 2 * _BLOCK + 37
        doc = json.loads(cli.bundled_scenario_path(5).read_text())
        doc["grid"] = {"points": n}
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        va, vb = self.values(n, 1), self.values(n, 2)
        s = cli.load_scenario(scenario)
        grid, values = s.grid, {s.model_a(): va, s.model_b(): vb}

        def hazard(self, x):  # the slice of the model's values at the block's points
            start = int(np.searchsorted(grid.x_values, x[0]))
            return values[self][start:start + len(x)]

        monkeypatch.setattr(MixtureModel, "hazard", hazard)
        out = tmp_path / "curve.csv"
        code, _, _ = run(["curve", str(scenario), "--which", "hazard", "--out", str(out)], capsys)
        assert code == 0
        expected = "t,x,model_a,model_b\n" + "".join(
            f"{t:.15g},{x:.15g},{a:.15g},{b:.15g}\n"
            for t, x, a, b in zip(grid.t_values, grid.x_values, va, vb)
        )
        assert out.read_bytes() == expected.encode()

    def test_sample_file(self, tmp_path, capsys, monkeypatch):
        n = 3 * _BLOCK + 11
        draws = self.values(n, 3)
        # the command asks the sampler for one block of the draws at a time
        monkeypatch.setattr(MixtureModel, "sample",
                            lambda self, count, seed, block=None: draws[:count][block])
        out = tmp_path / "draws.txt"
        code, _, _ = run(
            ["sample", str(cli.bundled_scenario_path(1)), "--n", str(n), "--out", str(out)], capsys
        )
        assert code == 0
        assert out.read_bytes() == "".join(f"{v:.17g}\n" for v in draws).encode()


def _writing_commands(out):
    example1 = str(cli.bundled_scenario_path(1))
    return {
        "curve": ["curve", example1, "--out", out],
        "sample": ["sample", example1, "--n", "10", "--out", out],
        "search": ["search", "T1i", "--trials", "2", "--out", out],
        "verify-examples": ["verify-examples", "--ids", "1", "--format", "json", "--out", out],
    }


class TestOutputFile:
    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
    @pytest.mark.parametrize("command", ["curve", "sample", "search", "verify-examples"])
    def test_mode_follows_the_umask(self, tmp_path, capsys, command, umask):
        out = tmp_path / "written"
        old = os.umask(umask)
        try:
            code, _, _ = run(_writing_commands(str(out))[command], capsys)
        finally:
            os.umask(old)
        assert code == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask

    @pytest.mark.parametrize("command", ["curve", "sample", "search", "verify-examples"])
    def test_directory_as_output_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.mkdir()
        code, stdout, err = run(_writing_commands(str(out))[command], capsys)
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"error: cannot write {out}: ") and "Is a directory" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]  # no temporary file left
        assert list(out.iterdir()) == []

    def test_atomic_write_keeps_the_bytes(self, tmp_path):
        # no newline or encoding translation: CR LF, NUL and bytes that are not UTF-8 pass through
        blocks = [b"t,x\r\n", b"", b"\x00\xff\xfe", "\u00e9\n".encode("latin-1"), b"1e+300\n"]
        out = tmp_path / "written"
        cli._atomic_write(out, iter(blocks))
        assert out.read_bytes() == b"".join(blocks)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["written"]

    def test_file_as_output_directory_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file.txt"
        blocker.write_text("kept\n")
        out = blocker / "curve.csv"
        code, _, err = run(_writing_commands(str(out))["curve"], capsys)
        assert code == 2
        assert err.startswith(f"error: cannot write {out}: ")
        assert blocker.read_text() == "kept\n"
