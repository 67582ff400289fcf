"""The benchmark's three workloads: fixed op lists built from the workload seed.

Every op calls the library through a module attribute looked up at call time,
so that the traced run's wrappers are picked up. Each op has:

* ``call``: the timed work;
* ``outcome``: a small JSON summary of the result, taken after every call and
  compared with the committed reference and across passes;
* ``check``: an oracle or structural check of the first result, made after
  all timing is done.

Each workload varies the baseline tail (``exponential`` or ``power_burr``),
the component count (2, 3 or 5) and the variant (``vary_alpha`` or
``vary_lambda``) where the public API lets it; see README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

WORKLOADS = ("star_lorenz", "search", "cli_io")

SEARCH_TRIALS = 60  # as in the README's `search T6 --trials 60 --seed 77`
SEARCH_SEEDS_PER_PASS = 20
CURVE_POINTS = 150_000
CHECK_ORDER_POINTS = 200_000
SAMPLE_DRAWS = 200_000
# a correct sampler exceeds this Kolmogorov-Smirnov distance with probability ~1e-5
_KS_LIMIT = 2.5

_TRIAL = re.compile(r"^search trial (\d+):")
_WROTE = re.compile(r"^wrote (\d+) (?:rows|samples) to ")
_DIRECTION = re.compile(r"^A (<=|>=)_\w+ B: (holds|fails) ")


@dataclass
class Op:
    key: str
    call: Callable[[], object]
    outcome: Callable[[object, str | None], dict]
    check: Callable[[object, dict, dict], list[str]]
    fixed: bool = False  # inputs do not depend on the seed, so one reference holds for all seeds


def build(name: str, seed: int, work: Path, lib) -> list[Op]:
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return {"star_lorenz": _star_lorenz, "search": _search, "cli_io": _cli_io}[name](rng, work, lib)


# -- star_lorenz ------------------------------------------------------------------


def _verdict_outcome(v, err):
    if err is not None:
        return {"error": err}
    return {"holds_leq": bool(v.holds_leq), "holds_geq": bool(v.holds_geq),
            "inconclusive": bool(v.inconclusive), "error": None}


def _star_check(m1, m2, grid):
    def check(v, outcome, info):
        if outcome["error"] is not None:
            return [f"raised {outcome['error']}"]
        viol = oracle.star_violations(oracle.Mix.of(m1), oracle.Mix.of(m2), grid.t_values)
        if viol is None:
            return [] if v.inconclusive else ["a quantile lies past 1e18 but the verdict is conclusive"]
        if v.inconclusive:
            return [f"inconclusive where the reference is not: {v.reason}"]
        return (oracle.compare_holds("A <=star B", v.holds_leq, viol[0])
                + oracle.compare_holds("A >=star B", v.holds_geq, viol[1]))
    return check


def _lorenz_check(m1, m2):
    def check(v, outcome, info):
        infinite = not (oracle.Mix.of(m1).mean_is_finite() and oracle.Mix.of(m2).mean_is_finite())
        if infinite:
            if outcome["error"] == "InfiniteMeanSuspected" or (v is not None and v.inconclusive):
                return []
            return [f"infinite mean not reported (outcome {outcome})"]
        return [] if outcome["error"] is None else [f"raised {outcome['error']}"]
    return check


def _star_lorenz(rng, work, lib):
    th, mj, od = lib.theorems, lib.majorization, lib.orders
    p1 = rng.uniform(0.2, 0.8)
    light = th.Scenario(
        baseline=lib.baseline.Exponential(rate=rng.uniform(0.1, 0.3)),
        variant="vary_alpha",
        common_param=rng.uniform(0.05, 0.15),
        matrix_a=mj.ParameterMatrix((p1, 1.0 - p1), tuple(rng.uniform(0.2, 0.9, size=2))),
        chain=(mj.TTransform(omega=rng.uniform(0.2, 0.8), permutation=(1, 0)),),
    )
    pairs = [("light_pair", light, False)] + [
        (f"example{k}", th.example_scenario(k)[1], True) for k in (5, 7)
    ]
    ops = []
    for label, s, fixed in pairs:
        a, b = s.model_a(), s.model_b()
        ops.append(Op(f"star:{label}", lambda a=a, b=b, g=s.grid: od.check_star(a, b, g),
                      _verdict_outcome, _star_check(a, b, s.grid), fixed))
    _, s7 = th.example_scenario(7)
    a, b = s7.model_a(), s7.model_b()
    ops.append(Op("lorenz:example7", lambda: od.check_lorenz(a, b),
                  _verdict_outcome, _lorenz_check(a, b), True))
    return ops


# -- search -----------------------------------------------------------------------

# propositions with a proof: a finding on them would be a red flag of the checker
_PROVEN = ("T1i", "T3i", "T5")


def _search_outcome(findings, err):
    if err is not None:
        return {"error": err}
    trials = []
    for r in findings:
        hits = [int(m.group(1)) for n in r.notes if (m := _TRIAL.match(n))]
        trials.append(hits[0] if len(hits) == 1 else -1)
    return {"findings": trials, "error": None}


def _search_check(theorem_id):
    def check(findings, outcome, info):
        if outcome["error"] is not None:
            return [f"raised {outcome['error']}"]
        problems = []
        trials = outcome["findings"]
        if trials != sorted(set(trials)) or any(not 0 <= k < SEARCH_TRIALS for k in trials):
            problems.append(f"finding trial indices malformed: {trials}")
        if theorem_id in _PROVEN and trials:
            problems.append(f"{len(trials)} counterexample(s) to proven {theorem_id}")
        for r in findings:
            if r.consistent or r.inconclusive or r.conclusion_holds or not r.all_hypotheses_hold:
                problems.append(f"finding at trial {trials} is not a red flag")
                break
        return problems
    return check


def _search(rng, work, lib):
    th = lib.theorems
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=SEARCH_SEEDS_PER_PASS)]
    return [
        Op(f"search:{tid}:{s}",
           lambda tid=tid, s=s: th.search_counterexamples(tid, SEARCH_TRIALS, s),
           _search_outcome, _search_check(tid))
        for s in seeds for tid in th.SEARCHABLE_IDS
    ]


# -- cli_io -------------------------------------------------------------------------


def _run_cli(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _file_outcome(path: Path):
    def outcome(result, err):
        if err is not None:
            return {"error": err}
        code, text = result
        m = _WROTE.match(text)
        return {"exit": code, "rows": int(m.group(1)) if m else -1,
                "bytes": path.stat().st_size if path.exists() else -1, "error": None}
    return outcome


def _grid_t(doc):
    g = doc.get("grid", {})
    return np.linspace(g.get("t_min", 1e-4), g.get("t_max", 1.0 - 1e-4), g.get("points", 2001))


def _curve_check(path: Path, doc: dict, which: str):
    def check(result, outcome, info):
        if outcome["error"] is not None or outcome["exit"] != 0:
            return [f"curve {which} failed: {outcome}"]
        lines = path.read_text(encoding="utf-8").split("\n")
        if lines[0] != "t,x,model_a,model_b" or lines[-1] != "":
            return [f"curve {which}: bad header or missing final newline"]
        table = np.array([ln.split(",") for ln in lines[1:-1]], dtype=float)
        t = _grid_t(doc)
        if table.shape != (t.size, 4) or outcome["rows"] != t.size:
            return [f"curve {which}: {table.shape[0]} rows, {outcome['rows']} claimed, {t.size} expected"]
        bad = oracle.curve_mismatches(table[:, 0], t) + oracle.curve_mismatches(table[:, 1], t / (1 - t))
        for col, side in ((2, "a"), (3, "b")):
            ref = getattr(oracle.Mix.from_doc(doc, side), which)(t / (1 - t))
            bad += oracle.curve_mismatches(table[:, col], ref)
        return [f"curve {which}: {bad} values differ from the reference"] if bad else []
    return check


def _sample_check(path: Path, doc: dict, n: int, label: str):
    def check(result, outcome, info):
        if outcome["error"] is not None or outcome["exit"] != 0:
            return [f"sample {label} failed: {outcome}"]
        draws = np.array(path.read_text(encoding="utf-8").split(), dtype=float)
        info[f"sample {label} nonfinite_frac"] = float(np.mean(~np.isfinite(draws)))
        if draws.size != n or outcome["rows"] != n:
            return [f"sample {label}: {draws.size} draws written, {n} asked"]
        ks = oracle.ks_distance(draws, oracle.Mix.from_doc(doc, "a"))
        limit = _KS_LIMIT / np.sqrt(n)
        return [f"sample {label}: KS distance {ks:.4g} above {limit:.4g}"] if ks > limit else []
    return check


def _order_outcome(result, err):
    if err is not None:
        return {"error": err}
    code, text = result
    holds = {m.group(1): m.group(2) == "holds" for ln in text.splitlines() if (m := _DIRECTION.match(ln))}
    return {"exit": code, "holds_leq": holds.get("<="), "holds_geq": holds.get(">="),
            "inconclusive": text.startswith("inconclusive"), "error": None}


def _order_check(doc: dict, order: str):
    def check(result, outcome, info):
        if outcome["error"] is not None:
            return [f"check-order {order} raised {outcome['error']}"]
        a, b = oracle.Mix.from_doc(doc, "a"), oracle.Mix.from_doc(doc, "b")
        viol = (oracle.st_violations if order == "st" else oracle.hr_violations)(a, b, _grid_t(doc))
        problems = (oracle.compare_holds(f"A <={order} B", outcome["holds_leq"], viol[0])
                    + oracle.compare_holds(f"A >={order} B", outcome["holds_geq"], viol[1]))
        expected_exit = 0 if (outcome["holds_leq"] or outcome["holds_geq"]) else 1
        if outcome["exit"] != expected_exit:
            problems.append(f"check-order {order} exit {outcome['exit']}, expected {expected_exit}")
        return problems
    return check


def _reports_outcome(path: Path):
    def outcome(result, err):
        if err is not None:
            return {"error": err}
        code, _ = result
        doc = json.loads(path.read_text(encoding="utf-8"))
        return {"exit": code, "bytes": path.stat().st_size, "all_consistent": doc["all_consistent"],
                "reports": [[r["theorem_id"], r["consistent"], r["conclusion_holds"], r["inconclusive"]]
                            for r in doc["reports"]],
                "error": None}
    return outcome


def _reports_check(result, outcome, info):
    if outcome["error"] is not None:
        return [f"verify-examples raised {outcome['error']}"]
    if outcome["exit"] != (0 if outcome["all_consistent"] else 1):
        return [f"verify-examples exit {outcome['exit']} disagrees with all_consistent"]
    return []


def _cli_io(rng, work, lib):
    cli = lib.cli
    work.mkdir(parents=True, exist_ok=True)
    p = rng.dirichlet(np.full(3, 4.0))
    curve = {
        "baseline": {"kind": "exponential", "params": {"a": rng.uniform(0.5, 2.0)}},
        "model_variant": "vary_lambda",
        "common_param": rng.uniform(0.2, 0.9),
        "matrix_a": {"p": [*p[:2], 1.0 - p[0] - p[1]], "theta": list(rng.uniform(0.5, 3.0, size=3))},
        "chain": [{"omega": rng.uniform(0.2, 0.8), "permutation": [0, 2, 1]}],
        "grid": {"points": CURVE_POINTS},
    }
    while True:  # equal weight*tilt products, as the hazard-rate propositions assume
        p1, a1 = rng.uniform(0.2, 0.8), rng.uniform(0.1, 1.0)
        a2 = p1 * a1 / (1.0 - p1)
        if a2 <= 1.0:
            break
    pair = {
        "baseline": {"kind": "exponential", "params": {"a": rng.uniform(0.5, 2.0)}},
        "model_variant": "vary_alpha",
        "common_param": rng.uniform(0.2, 1.5),
        "matrix_a": {"p": [p1, 1.0 - p1], "theta": [a1, a2]},
        "chain": [{"omega": rng.uniform(0.2, 0.8), "permutation": [1, 0]}],
        "grid": {"points": CHECK_ORDER_POINTS},
    }
    heavy = json.loads(cli.bundled_scenario_path(7).read_text(encoding="utf-8"))
    files = {}
    for label, doc in (("curve", curve), ("pair", pair), ("heavy", heavy)):
        files[label] = work / f"{label}.json"
        files[label].write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    def cli_op(key, argv, outcome, check, fixed=False):
        return Op(key, lambda: _run_cli(cli, argv), outcome, check, fixed)

    ops = []
    for which in ("survival", "hazard", "density", "cdf"):
        out = work / f"curve_{which}.csv"
        ops.append(cli_op(f"cli:curve:{which}",
                          ["curve", str(files["curve"]), "--which", which, "--out", str(out)],
                          _file_outcome(out), _curve_check(out, curve, which)))
    sample_seed = int(rng.integers(0, 2**31 - 1))
    for label, doc in (("heavy", heavy), ("curve", curve)):
        out = work / f"sample_{label}.txt"
        ops.append(cli_op(f"cli:sample:{label}",
                          ["sample", str(files[label]), "--n", str(SAMPLE_DRAWS),
                           "--seed", str(sample_seed), "--out", str(out)],
                          _file_outcome(out), _sample_check(out, doc, SAMPLE_DRAWS, label)))
    for order in ("st", "hr"):
        ops.append(cli_op(f"cli:check-order:{order}",
                          ["check-order", str(files["pair"]), "--order", order],
                          _order_outcome, _order_check(pair, order)))
    reports = work / "reports.json"
    ops.append(cli_op("cli:verify-examples",
                      ["verify-examples", "--ids", "1,2,3,4,5,6", "--format", "json",
                       "--out", str(reports)],
                      _reports_outcome(reports), _reports_check, fixed=True))
    return ops
