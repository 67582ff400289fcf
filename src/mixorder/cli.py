"""Command-line front end: scenario files in, CSV/JSON data and verdicts out.

Subcommands
-----------
curve            tabulate survival/hazard/density/cdf for both models as CSV
verify-examples  run the bundled reference scenarios, report consistency
check-order      run one stochastic-order check on a scenario's model pair
search           randomized counterexample search for a proposition id
sample           draw seeded variates from a scenario's model A

Exit codes: 0 success / 1 conclusion failure / 2 usage or parse error /
3 numerical failure / 4 inconclusive (tail guard or suspected infinite mean).

The environment variable ``MIXORDER_GRID_POINTS`` overrides the default grid
resolution (2001 points) wherever a scenario does not pin one explicitly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from importlib import resources
from pathlib import Path


from .baseline import make_baseline
from .errors import (
    DomainError,
    InfiniteMeanSuspected,
    MixOrderError,
    NumericalError,
    ParameterError,
    ShapeError,
    TailError,
)
from .majorization import ParameterMatrix, TTransform
from .mixture import CURVE_KINDS, default_grid, evaluate_curve
from .orders import OrderVerdict, check_hr, check_lorenz, check_st, check_star
from .theorems import (
    EXAMPLE_IDS,
    SEARCHABLE_IDS,
    Scenario,
    TheoremReport,
    THEOREM_IDS,
    search_counterexamples,
    verify_example,
)

EXIT_OK = 0
EXIT_CONCLUSION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_INCONCLUSIVE = 4

_GRID_ENV = "MIXORDER_GRID_POINTS"

_SCENARIO_KEYS = {
    "baseline", "model_variant", "common_param", "matrix_a",
    "chain", "matrix_b", "grid", "theorem_id", "group_sizes",
}
_REQUIRED_KEYS = ("baseline", "model_variant", "common_param", "matrix_a")
_MATRIX_KEYS = {"p", "theta"}
_CHAIN_KEYS = {"omega", "permutation"}
_GRID_KEYS = {"points", "t_min", "t_max"}


class ScenarioParseError(ParameterError):
    """A scenario document violates the schema; the message names the key."""


# -- scenario (de)serialization -------------------------------------------------


def _require_keys(doc: dict, allowed: set[str], where: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ScenarioParseError(f"unknown key {key!r} in {where}")


def _parse_matrix(doc, where: str) -> ParameterMatrix:
    if not isinstance(doc, dict):
        raise ScenarioParseError(f"{where} must be an object with keys 'p' and 'theta'")
    _require_keys(doc, _MATRIX_KEYS, where)
    for key in _MATRIX_KEYS:
        if key not in doc:
            raise ScenarioParseError(f"missing key {key!r} in {where}")
    return ParameterMatrix(tuple(doc["p"]), tuple(doc["theta"]))


def default_grid_points() -> int:
    """Default grid resolution, overridable via MIXORDER_GRID_POINTS."""
    raw = os.environ.get(_GRID_ENV)
    if raw is None:
        return 2001
    try:
        points = int(raw)
    except ValueError:
        points = -1
    if points < 1:
        raise ScenarioParseError(f"{_GRID_ENV} must be a positive integer, got {raw!r}")
    return points


def parse_scenario(doc: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document; unknown keys are rejected."""
    try:
        return _parse_scenario(doc)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ScenarioParseError) or isinstance(exc, ParameterError):
            raise
        raise ScenarioParseError(f"malformed scenario value: {exc}") from exc


def _parse_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario document must be a JSON object")
    _require_keys(doc, _SCENARIO_KEYS, "scenario")
    for key in _REQUIRED_KEYS:
        if key not in doc:
            raise ScenarioParseError(f"missing key {key!r} in scenario")
    if "chain" not in doc and "matrix_b" not in doc:
        raise ScenarioParseError("scenario needs key 'chain' or key 'matrix_b'")

    baseline_doc = doc["baseline"]
    if not isinstance(baseline_doc, dict):
        raise ScenarioParseError("key 'baseline' must be an object")
    _require_keys(baseline_doc, {"kind", "params"}, "baseline")
    if "kind" not in baseline_doc or "params" not in baseline_doc:
        raise ScenarioParseError("baseline needs keys 'kind' and 'params'")
    baseline = make_baseline(baseline_doc["kind"], **baseline_doc["params"])

    chain = None
    if "chain" in doc:
        parsed = []
        for i, entry in enumerate(doc["chain"]):
            _require_keys(entry, _CHAIN_KEYS, f"chain[{i}]")
            for key in _CHAIN_KEYS:
                if key not in entry:
                    raise ScenarioParseError(f"missing key {key!r} in chain[{i}]")
            parsed.append(TTransform(omega=float(entry["omega"]),
                                     permutation=tuple(entry["permutation"])))
        chain = tuple(parsed)

    matrix_b = _parse_matrix(doc["matrix_b"], "matrix_b") if "matrix_b" in doc else None

    grid_doc = doc.get("grid", {})
    _require_keys(grid_doc, _GRID_KEYS, "grid")
    points = grid_doc.get("points", default_grid_points())
    grid = default_grid(
        points=int(points),
        t_min=float(grid_doc.get("t_min", 1e-4)),
        t_max=float(grid_doc.get("t_max", 1.0 - 1e-4)),
    )

    theorem_id = doc.get("theorem_id")
    if theorem_id is not None and theorem_id not in THEOREM_IDS:
        raise ScenarioParseError(f"unknown value for key 'theorem_id': {theorem_id!r}")

    group_sizes = doc.get("group_sizes")
    return Scenario(
        baseline=baseline,
        variant=doc["model_variant"],
        common_param=float(doc["common_param"]),
        matrix_a=_parse_matrix(doc["matrix_a"], "matrix_a"),
        chain=chain,
        matrix_b=matrix_b,
        grid=grid,
        group_sizes=tuple(int(g) for g in group_sizes) if group_sizes else None,
    )


def scenario_to_dict(s: Scenario, theorem_id: str | None = None) -> dict:
    """Serialize a Scenario back to its JSON document form."""
    doc: dict = {
        "baseline": {"kind": s.baseline.kind, "params": s.baseline.params()},
        "model_variant": s.variant,
        "common_param": s.common_param,
        "matrix_a": {"p": list(s.matrix_a.top_row), "theta": list(s.matrix_a.bottom_row)},
    }
    if s.chain is not None:
        doc["chain"] = [
            {"omega": t.omega, "permutation": list(t.permutation)} for t in s.chain
        ]
    if s.matrix_b is not None:
        doc["matrix_b"] = {"p": list(s.matrix_b.top_row), "theta": list(s.matrix_b.bottom_row)}
    t = s.grid.t_values
    doc["grid"] = {"points": len(s.grid), "t_min": float(t[0]), "t_max": float(t[-1])}
    if s.group_sizes is not None:
        doc["group_sizes"] = list(s.group_sizes)
    if theorem_id is not None:
        doc["theorem_id"] = theorem_id
    return doc


def load_scenario(path: str | Path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioParseError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return parse_scenario(doc)


def bundled_scenario_path(k: int) -> Path:
    """Filesystem path of the bundled example scenario file."""
    if k not in EXAMPLE_IDS:
        raise ParameterError(f"example id must be in {EXAMPLE_IDS}, got {k!r}")
    return Path(str(resources.files("mixorder").joinpath(f"scenarios/example{k}.json")))


def schema_path() -> Path:
    return Path(str(resources.files("mixorder").joinpath("schema/theorem_report.schema.json")))


# -- report serialization --------------------------------------------------------


def _json_float(v: float | None):
    if v is None:
        return None
    v = float(v)
    return v if math.isfinite(v) else None


def verdict_to_dict(v: OrderVerdict) -> dict:
    return {
        "holds_leq": v.holds_leq,
        "holds_geq": v.holds_geq,
        "max_violation_leq": _json_float(v.max_violation_leq),
        "max_violation_geq": _json_float(v.max_violation_geq),
        "witness_t": _json_float(v.witness_t),
        "inconclusive": v.inconclusive,
        "reason": v.reason,
        "hazard_holds_leq": v.hazard_holds_leq,
        "hazard_holds_geq": v.hazard_holds_geq,
        "hazard_disagrees": v.hazard_disagrees,
        "truncated_at_t": _json_float(v.truncated_at_t),
        "notes": list(v.notes),
    }


def report_to_dict(r: TheoremReport) -> dict:
    return {
        "theorem_id": r.theorem_id,
        "asserted": r.asserted,
        "hypotheses": [
            {"name": h.name, "satisfied": h.satisfied, "detail": h.detail}
            for h in r.hypotheses
        ],
        "conclusion": verdict_to_dict(r.conclusion),
        "conclusion_holds": r.conclusion_holds,
        "consistent": r.consistent,
        "inconclusive": r.inconclusive,
        "notes": list(r.notes),
    }


def _atomic_write(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- subcommand handlers -----------------------------------------------------------


def _cmd_curve(args) -> int:
    scenario = load_scenario(args.scenario)
    series_a = evaluate_curve(scenario.model_a(), scenario.grid, args.which)
    series_b = evaluate_curve(scenario.model_b(), scenario.grid, args.which)
    lines = ["t,x,model_a,model_b"]
    for t, x, va, vb in zip(series_a.t, series_a.x, series_a.values, series_b.values):
        lines.append(f"{t:.15g},{x:.15g},{va:.15g},{vb:.15g}")
    _atomic_write(Path(args.out), "\n".join(lines) + "\n")
    print(f"wrote {len(series_a.t)} rows to {args.out}")
    return EXIT_OK


def _parse_ids(raw: str) -> list[int]:
    if raw.strip().lower() == "all":
        return list(EXAMPLE_IDS)
    ids = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            k = int(part)
        except ValueError:
            raise ScenarioParseError(f"example ids must be integers, got {part!r}") from None
        if k not in EXAMPLE_IDS:
            raise ScenarioParseError(f"example ids must be in {EXAMPLE_IDS}, got {k}")
        ids.append(k)
    if not ids:
        raise ScenarioParseError("no example ids given")
    return ids


def _print_text_report(k: int, report: TheoremReport) -> None:
    print(f"example {k} [{report.theorem_id}]: {report.asserted}")
    for h in report.hypotheses:
        mark = "ok " if h.satisfied else "FAIL"
        print(f"  [{mark}] {h.name}: {h.detail}")
    c = report.conclusion
    state = ("INCONCLUSIVE: " + c.reason) if report.inconclusive else (
        "holds" if report.conclusion_holds else "FAILS"
    )
    print(f"  conclusion {state} "
          f"(viol_leq={c.max_violation_leq:.3g}, viol_geq={c.max_violation_geq:.3g}, "
          f"witness t={c.witness_t:.6g})")
    for note in report.notes + c.notes:
        print(f"  note: {note}")
    print(f"  consistent: {report.consistent}")


def _cmd_verify_examples(args) -> int:
    ids = _parse_ids(args.ids)
    points = args.grid_points if args.grid_points else default_grid_points()
    reports = {k: verify_example(k, grid_points=points) for k in ids}
    all_consistent = all(r.consistent for r in reports.values())
    if args.format == "json":
        doc = {
            "reports": [report_to_dict(r) for r in reports.values()],
            "all_consistent": all_consistent,
        }
        text = json.dumps(doc, indent=2, sort_keys=True)
        if args.out:
            _atomic_write(Path(args.out), text + "\n")
            print(f"wrote report to {args.out}")
        else:
            print(text)
    else:
        for k, report in reports.items():
            _print_text_report(k, report)
    return EXIT_OK if all_consistent else EXIT_CONCLUSION


_ORDERS = ("st", "hr", "star", "lorenz")


def _cmd_check_order(args) -> int:
    scenario = load_scenario(args.scenario)
    a, b = scenario.model_a(), scenario.model_b()
    if args.order == "lorenz":
        verdict = check_lorenz(a, b)  # integrates on its own u-grid, not the scenario grid
    else:
        # names resolved per call, so a rebinding of this module's check_* (as
        # perfbench's tracing does) is honoured
        check = {"st": check_st, "hr": check_hr, "star": check_star}[args.order]
        verdict = check(a, b, scenario.grid)
    if verdict.inconclusive:
        print(f"inconclusive: {verdict.reason}")
        return EXIT_INCONCLUSIVE
    for direction, holds, viol in (
        (f"A <=_{args.order} B", verdict.holds_leq, verdict.max_violation_leq),
        (f"A >=_{args.order} B", verdict.holds_geq, verdict.max_violation_geq),
    ):
        print(f"{direction}: {'holds' if holds else 'fails'} "
              f"(max violation {viol:.3g})")
    print(f"worst violation at t={verdict.witness_t:.6g}")
    if verdict.hazard_holds_leq is not None:
        print(f"hazard cross-check: leq={verdict.hazard_holds_leq} geq={verdict.hazard_holds_geq}"
              + (" (disagrees with ratio test)" if verdict.hazard_disagrees else ""))
    for note in verdict.notes:
        print(f"note: {note}")
    return EXIT_OK if (verdict.holds_leq or verdict.holds_geq) else EXIT_CONCLUSION


def _cmd_search(args) -> int:
    findings = search_counterexamples(args.theorem_id, args.trials, args.seed)
    text = json.dumps([report_to_dict(r) for r in findings], indent=2, sort_keys=True)
    _atomic_write(Path(args.out), text + "\n")
    print(f"{len(findings)} inconsistent report(s) written to {args.out}")
    return EXIT_OK


def _cmd_sample(args) -> int:
    if args.n < 1:
        raise ParameterError(f"sample count must be >= 1, got {args.n}")
    scenario = load_scenario(args.scenario)
    draws = scenario.model_a().sample(args.n, args.seed)
    _atomic_write(Path(args.out), "\n".join(f"{v:.17g}" for v in draws) + "\n")
    print(f"wrote {args.n} samples to {args.out}")
    return EXIT_OK


# -- entry point -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixorder",
        description="Stochastic-order checks for finite mixtures of tilted hazard-power models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curve", help="tabulate a curve for both scenario models as CSV")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--which", choices=CURVE_KINDS, default="survival")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=_cmd_curve)

    p = sub.add_parser("verify-examples", help="run the bundled reference scenarios")
    p.add_argument("--ids", default="all", help="comma-separated ids from 1..7, or 'all'")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None, help="optional output file for json format")
    p.add_argument("--grid-points", type=int, default=None)
    p.set_defaults(handler=_cmd_verify_examples)

    p = sub.add_parser("check-order", help="run one stochastic-order check on a scenario")
    p.add_argument("scenario")
    p.add_argument("--order", choices=_ORDERS, required=True)
    p.set_defaults(handler=_cmd_check_order)

    p = sub.add_parser("search", help="randomized counterexample search")
    p.add_argument("theorem_id", help=f"one of {', '.join(SEARCHABLE_IDS)}")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output JSON findings path")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("sample", help="draw seeded variates from scenario model A")
    p.add_argument("scenario")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output samples path, one value per line")
    p.set_defaults(handler=_cmd_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.handler(args)
    except (ScenarioParseError, ParameterError, DomainError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (TailError, InfiniteMeanSuspected) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except MixOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
