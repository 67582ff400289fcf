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

The environment variable ``MIXORDER_GRID_POINTS`` overrides the resolution of
``default_grid`` wherever a scenario does not pin one explicitly.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import shutil
import sys
import tempfile
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import mixture, orders
from .errors import (
    DomainError,
    InfiniteMeanSuspected,
    MixOrderError,
    NumericalError,
    ParameterError,
    ScenarioParseError,
    ShapeError,
    TailError,
)
from .mixture import (
    CURVE_KINDS,
    EvaluationGrid,
    _blocks,
    _curve_values,
    _require_count,
    _require_grid_points,
    _require_seed,
    _x_of,
)
from .theorems import (  # scenario_to_dict and bundled_scenario_path are re-exported
    EXAMPLE_IDS,
    SEARCHABLE_IDS,
    Scenario,
    TheoremReport,
    bundled_scenario_path,
    read_scenario,
    scenario_from_dict,
    scenario_to_dict,
    search_counterexamples,
    verify_example,
)

EXIT_OK = 0
EXIT_CONCLUSION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_INCONCLUSIVE = 4

_GRID_ENV = "MIXORDER_GRID_POINTS"


# -- scenario files -----------------------------------------------------------------


def default_grid_points() -> int | None:
    """MIXORDER_GRID_POINTS as a grid resolution, or None (the default grid) when unset."""
    raw = os.environ.get(_GRID_ENV)
    if raw is None:
        return None
    try:
        points = int(raw)
    except ValueError:
        points = -1
    if points < 1:
        raise ScenarioParseError(f"{_GRID_ENV} must be a positive integer, got {raw!r}")
    _require_grid_points(points, _GRID_ENV)
    return points


def parse_scenario(doc: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document; unknown keys are rejected."""
    return scenario_from_dict(doc, default_grid_points(), _GRID_ENV)[1]


def load_scenario(path: str | Path) -> Scenario:
    return read_scenario(path, default_grid_points(), _GRID_ENV)[1]


def schema_path() -> Path:
    return Path(str(resources.files("mixorder").joinpath("schema/theorem_report.schema.json")))


# -- report serialization --------------------------------------------------------


def _to_json(value):
    """A report as JSON values, walked over its dataclass fields.

    Tuples become lists and non-finite floats ``null``; the field names are
    the keys, so the dataclasses and the schema hold the only field lists.
    """
    if dataclasses.is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _atomic_write(path: Path, blocks: Iterable[bytes]) -> None:
    """Write the bytes ``blocks`` to ``path``, as they come, through a temporary file beside it.

    The file gets the mode a plain ``open`` gives a new file.  An ``OSError``
    is a usage error naming the path, and leaves no temporary file behind.
    """
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.writelines(blocks)
            umask = os.umask(0)  # reading the umask sets it: put it straight back
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from exc


# -- subcommand handlers -----------------------------------------------------------


def _format_rows(columns: list, precision: int) -> Iterator[bytes]:
    """Rows of the equal-length arrays in ``columns`` as comma-separated C ``%.{precision}g``
    text, in chunks of at most ``_BLOCK`` values: whole rows, each chunk ending in a newline."""
    from .gformat import format_g  # on first use: commands that write no table never compile it

    separators = "," * (len(columns) - 1) + "\n"
    for chunk in _blocks(len(columns[0]), len(columns)):
        yield format_g(np.column_stack([c[chunk] for c in columns]), precision, separators)


def _curve_rows(models, grid: EvaluationGrid, which: str) -> Iterator[bytes]:
    """The models' ``which`` curves as CSV rows, evaluated and formatted one block at a time."""
    for block in _blocks(len(grid)):
        x = _x_of(grid.t_values[block])
        values = [_curve_values(m, x, which) for m in models]
        yield from _format_rows([grid.t_values[block], x, *values], 15)


def _cmd_curve(args) -> int:
    scenario = load_scenario(args.scenario)
    models = scenario.model_a(), scenario.model_b()
    _atomic_write(Path(args.out), itertools.chain(
        [b"t,x,model_a,model_b\n"], _curve_rows(models, scenario.grid, args.which)
    ))
    print(f"wrote {len(scenario.grid)} rows to {args.out}")
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
    if args.grid_points is not None:
        points, key = args.grid_points, "--grid-points"
    else:
        points, key = default_grid_points(), _GRID_ENV
    reports = {k: verify_example(k, grid_points=points, grid_points_key=key) for k in ids}
    all_consistent = all(r.consistent for r in reports.values())
    if args.format == "json":
        doc = {
            "reports": [_to_json(r) for r in reports.values()],
            "all_consistent": all_consistent,
        }
        text = json.dumps(doc, indent=2, sort_keys=True)
        if args.out:
            _atomic_write(Path(args.out), [text.encode(), b"\n"])
            print(f"wrote report to {args.out}")
        else:
            print(text)
    else:
        for k, report in reports.items():
            _print_text_report(k, report)
    return EXIT_OK if all_consistent else EXIT_CONCLUSION


def _cmd_check_order(args) -> int:
    scenario = load_scenario(args.scenario)
    verdict = orders.check_order(args.order, scenario.model_a(), scenario.model_b(), scenario.grid)
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
    text = json.dumps([_to_json(r) for r in findings], indent=2, sort_keys=True)
    _atomic_write(Path(args.out), [text.encode(), b"\n"])
    print(f"{len(findings)} inconsistent report(s) written to {args.out}")
    return EXIT_OK


def _require_room(path: Path, size: int, what: str) -> None:
    """A usage error naming ``path`` when its file system has fewer than ``size`` bytes free."""
    folder = path.absolute().parent
    while not folder.exists():  # _atomic_write makes the missing folders
        folder = folder.parent
    try:
        free = shutil.disk_usage(folder).free
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from exc
    if size > free:
        raise ParameterError(f"cannot write {path}: {what} take at least {size} bytes, "
                             f"{free} are free")


def _cmd_sample(args) -> int:
    scenario = load_scenario(args.scenario)
    model, n, out = scenario.model_a(), args.n, Path(args.out)
    _require_count(n, "sample count")
    _require_seed(args.seed)
    # every line is at least a digit and a newline: a count the disk cannot take fails here
    _require_room(out, 2 * n, f"{n} draws")
    # one sample() call per block of the same stream, each made as the file takes it
    step = mixture._BLOCK
    blocks = (model.sample(n, args.seed, slice(start, start + step)) for start in range(0, n, step))
    _atomic_write(out, itertools.chain.from_iterable(_format_rows([d], 17) for d in blocks))
    print(f"wrote {n} samples to {args.out}")
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
    p.add_argument("--order", choices=orders.ORDERS, required=True)
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
    except (ParameterError, DomainError, ShapeError) as exc:
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
