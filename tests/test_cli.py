import dataclasses
import json
import math
import re

import jsonschema
import numpy as np
import pytest

from mixorder import MixtureModel, cli
from mixorder.orders import OrderVerdict, _undecided
from mixorder.theorems import HypothesisCheck, TheoremReport, example_scenario


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def schema():
    return json.loads(cli.schema_path().read_text())


class TestScenarioFiles:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_round_trip(self, k):
        path = cli.bundled_scenario_path(k)
        doc = json.loads(path.read_text())
        s1 = cli.parse_scenario(doc)
        doc2 = cli.scenario_to_dict(s1, theorem_id=doc.get("theorem_id"))
        s2 = cli.parse_scenario(doc2)
        assert cli.scenario_to_dict(s2) == cli.scenario_to_dict(s1)
        assert np.array_equal(s1.grid.t_values, s2.grid.t_values)

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
            cli.parse_scenario(doc)

    def test_missing_required_key_named(self):
        doc = json.loads(cli.bundled_scenario_path(1).read_text())
        del doc["matrix_a"]
        with pytest.raises(cli.ScenarioParseError, match="matrix_a"):
            cli.parse_scenario(doc)


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

    def test_invalid_grid_env_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("MIXORDER_GRID_POINTS", "zero")
        code, _, err = run(["verify-examples", "--ids", "1"], capsys)
        assert code == 2
        assert "MIXORDER_GRID_POINTS" in err

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_nonpositive_grid_points_exit_2(self, capsys, points):
        code, out, err = run(["verify-examples", "--ids", "1", "--grid-points", points], capsys)
        assert code == 2
        assert out == "" and "grid points must be a positive integer" in err

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
        monkeypatch.setattr(cli, "verify_example", lambda k, grid_points: report)
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


class TestCheckOrder:
    def test_st_on_reference_pair(self, capsys):
        code, out, _ = run(
            ["check-order", str(cli.bundled_scenario_path(1)), "--order", "st"], capsys
        )
        assert code == 0
        assert "A <=_st B: holds" in out
        assert "A >=_st B: fails" in out

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

    def test_negative_count_exit_2(self, tmp_path, capsys):
        code, _, _ = run(
            ["sample", str(cli.bundled_scenario_path(1)), "--n", "-1",
             "--seed", "7", "--out", str(tmp_path / "s.txt")], capsys,
        )
        assert code == 2

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
        for at in (0, cli._BLOCK_ROWS - 3, n - len(self.SPECIAL)):
            v[at:at + len(self.SPECIAL)] = self.SPECIAL
        return v

    def test_curve_file(self, tmp_path, capsys, monkeypatch):
        n = 2 * cli._BLOCK_ROWS + 37
        doc = json.loads(cli.bundled_scenario_path(5).read_text())
        doc["grid"] = {"points": n}
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        va, vb = self.values(n, 1), self.values(n, 2)
        outputs = iter([va, vb])
        monkeypatch.setattr(MixtureModel, "hazard", lambda self, x: next(outputs))
        out = tmp_path / "curve.csv"
        code, _, _ = run(["curve", str(scenario), "--which", "hazard", "--out", str(out)], capsys)
        assert code == 0
        grid = cli.load_scenario(scenario).grid
        expected = "t,x,model_a,model_b\n" + "".join(
            f"{t:.15g},{x:.15g},{a:.15g},{b:.15g}\n"
            for t, x, a, b in zip(grid.t_values, grid.x_values, va, vb)
        )
        assert out.read_bytes() == expected.encode()

    def test_sample_file(self, tmp_path, capsys, monkeypatch):
        n = 3 * cli._BLOCK_ROWS + 11
        draws = self.values(n, 3)
        monkeypatch.setattr(MixtureModel, "sample", lambda self, count, seed: draws[:count])
        out = tmp_path / "draws.txt"
        code, _, _ = run(
            ["sample", str(cli.bundled_scenario_path(1)), "--n", str(n), "--out", str(out)], capsys
        )
        assert code == 0
        assert out.read_bytes() == "".join(f"{v:.17g}\n" for v in draws).encode()
