"""The large-array paths give the same results, to the bit, for every block size.

``check_st``, ``check_hr``, ``MixtureModel.sample`` and the CLI's ``curve`` and
``sample`` output work one block of ``mixture._BLOCK`` points at a time, and
draw the sample and form the grid's ``x`` per block.  Each test runs its work
with the block patched to a small odd size and to one larger than any grid
here, and compares the reprs, bytes or draws.
"""

import json

import numpy as np
import pytest

from mixorder import (
    Exponential,
    MixtureModel,
    check_hr,
    check_st,
    check_theorem,
    cli,
    default_grid,
    mixture,
    search_counterexamples,
    verify_example,
)
from mixorder.errors import ParameterError
from mixorder.mixture import CURVE_KINDS, EvaluationGrid
from mixorder.orders import _check_hr
from mixorder.theorems import scenario_from_dict
from conftest import random_mixture

SMALL = 97
LARGE = 1 << 30


def at_both_sizes(monkeypatch, work):
    """``work()`` with the block at SMALL, then at LARGE."""
    results = []
    for size in (SMALL, LARGE):
        monkeypatch.setattr(mixture, "_BLOCK", size)
        results.append(work())
    return results


def pairs():
    """The truncated pairs of test_orders (a shared baseline; distinct baselines with the
    rescaled vary_lambda hazard), a pair cut before two points, and seeded random pairs."""
    shared = (MixtureModel.vary_alpha(Exponential(3.0), 0.2, [(0.3, 0.7), (0.7, 0.3)]),
              MixtureModel.vary_alpha(Exponential(3.0), 0.2, [(0.34, 0.66), (0.66, 0.34)]))
    distinct = (MixtureModel.vary_lambda(Exponential(3.0), 0.5, [(0.4, 0.3), (0.6, 2.0)]),
                MixtureModel.vary_lambda(Exponential(2.0), 0.5, [(0.5, 0.4), (0.5, 1.5)]))
    early = MixtureModel.vary_alpha(Exponential(1e7), 0.5, [(0.5, 0.3), (0.5, 0.6)])
    out = [("shared", *shared), ("distinct", *distinct), ("early_cut", early, early)]
    rng = np.random.default_rng(97)
    for i in range(8):
        variant = ("vary_alpha", "vary_lambda")[i % 2]
        out.append((f"random{i}", random_mixture(rng, variant), random_mixture(rng, variant)))
    return out


PAIRS = pairs()


def boundary_grid():
    """The default grid between 39 extra points before it and 150 after it: for the
    distinct pair, hr's survival cut falls on the first point of a block that more
    blocks follow, and its worst ratio step across a block boundary."""
    return EvaluationGrid(np.concatenate([
        np.linspace(1e-6, 5e-5, 39), default_grid().t_values, np.linspace(0.99992, 0.999999, 150),
    ]))


GRIDS = {"default": default_grid(), "3_blocks_plus_1": default_grid(3 * SMALL + 1),
         "boundary": boundary_grid()}


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
@pytest.mark.parametrize("name, m1, m2", PAIRS, ids=[p[0] for p in PAIRS])
def test_st_and_hr_verdicts(monkeypatch, grid, name, m1, m2):
    small, large = at_both_sizes(monkeypatch, lambda: [repr(check(m1, m2, grid))
                                                      for check in (check_st, check_hr)])
    assert small == large


def test_boundary_grid_puts_the_cut_and_the_worst_step_on_block_boundaries(monkeypatch):
    _, m1, m2 = PAIRS[1]
    grid = GRIDS["boundary"]
    small, large = at_both_sizes(monkeypatch, lambda: check_hr(m1, m2, grid))
    assert repr(small) == repr(large)
    cut = int(np.searchsorted(grid.t_values, large.truncated_at_t))
    worst = int(np.searchsorted(grid.t_values, large.witness_t))  # the step from worst to worst + 1
    assert cut % SMALL == 0 and (worst + 1) % SMALL == 0 and len(grid) > cut + SMALL
    assert not large.holds_leq and large.max_violation_geq > large.max_violation_leq


def test_hr_reads_each_block_of_a_given_hazard(monkeypatch):
    _, m1, m2 = PAIRS[0]
    grid = GRIDS["3_blocks_plus_1"]
    hazard = np.array(m1.baseline.hazard(grid.x_values))
    hazard[2 * SMALL + 5] = -1.0  # flips the hazard gap's sign at one point of the third block
    small, large = at_both_sizes(monkeypatch, lambda: _check_hr(m1, m2, grid, hazard))
    assert repr(small) == repr(large)
    assert large.holds_leq and not large.hazard_holds_leq and large.hazard_disagrees


def test_propositions_and_search(monkeypatch):
    # the hr propositions read the hazard that check_theorem computed, one slice at a
    # time; a power_burr baseline makes that hazard vary along the grid
    doc = json.loads(cli.bundled_scenario_path(6).read_text())
    doc["baseline"] = {"kind": "power_burr", "params": {"a": 1.5, "b": 0.8}}
    burr = scenario_from_dict(doc, 3 * SMALL + 1)

    def work():
        reports = [verify_example(k, grid_points=3 * SMALL + 1) for k in range(1, 7)]
        reports.append(check_theorem(*burr))
        findings = [search_counterexamples(tid, 20, 5) for tid in ("T1i", "T5", "T6")]
        return repr(reports), repr(findings)

    small, large = at_both_sizes(monkeypatch, work)
    assert small == large


def test_x_blocks(monkeypatch):
    # each block's x has the bits of t / (1 - t); the checks do not build x_values
    grid = default_grid(3 * SMALL + 1)
    monkeypatch.setattr(mixture, "_BLOCK", SMALL)
    small = np.concatenate([mixture._x_of(grid.t_values[b]) for b in mixture._blocks(len(grid))])
    check_st(*PAIRS[0][1:], grid)
    check_hr(*PAIRS[0][1:], grid)
    assert "x_values" not in vars(grid)
    t = grid.t_values
    assert small.tobytes() == grid.x_values.tobytes() == (t / (1.0 - t)).tobytes()


def whole_sample(m, n, seed):
    """The sampler as one computation on all ``n`` draws: the reference stream."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(m.n_components, size=n, p=np.asarray(m.weights))
    u = rng.uniform(size=n)
    a, lam = np.asarray(m.alphas)[idx], np.asarray(m.lams)[idx]
    return m.baseline.inverse_survival((u / (a + u * (1.0 - a))) ** (1.0 / lam))


SAMPLED = PAIRS[:2] + PAIRS[3:5]


@pytest.mark.parametrize("name, m1, m2", SAMPLED, ids=[p[0] for p in SAMPLED])
def test_sample_draws(monkeypatch, name, m1, m2):
    n = 3 * SMALL + 1
    small, large = at_both_sizes(monkeypatch, lambda: m1.sample(n, 11))
    assert small.tobytes() == large.tobytes() == whole_sample(m1, n, 11).tobytes()


ONE_COMPONENT = MixtureModel.vary_alpha(Exponential(2.0), 0.7, [(1.0, 0.4)])
STREAMED = [(name, m) for name, m, _ in SAMPLED[:2]] + [("one_component", ONE_COMPONENT)]


@pytest.mark.parametrize("n", [1, SMALL - 1, SMALL, 3 * SMALL + 1])
@pytest.mark.parametrize("name, m", STREAMED, ids=[p[0] for p in STREAMED])
def test_sample_by_blocks(monkeypatch, name, m, n):
    # sample() of each block of _blocks(n), and of slices across them, makes those
    # draws of the one-shot stream
    whole = whole_sample(m, n, 6)

    def work():
        blocks = [m.sample(n, 6, b) for b in mixture._blocks(n)]
        assert [b.size for b in blocks] == [s.stop - s.start for s in mixture._blocks(n)]
        return np.concatenate(blocks)

    small, large = at_both_sizes(monkeypatch, work)
    assert small.tobytes() == large.tobytes() == m.sample(n, 6).tobytes() == whole.tobytes()
    for block in (slice(n // 2, None), slice(n // 3, n - n // 3), slice(n, n + 5)):
        assert m.sample(n, 6, block).tobytes() == whole[block].tobytes()


def test_sample_block_must_be_contiguous():
    m = PAIRS[0][1]
    with pytest.raises(ParameterError, match="contiguous"):
        m.sample(10, 1, slice(0, 10, 2))
    with pytest.raises(ParameterError, match="sample count"):
        m.sample(0, 1, slice(0, 1))
    with pytest.raises(ParameterError, match="seed"):
        m.sample(5, -1, slice(0, 1))


def test_sample_draws_of_many_components(monkeypatch):
    # 300 components, so component indices past 255 occur: the blocks draw the same
    # indices as the one-shot reference
    rng = np.random.default_rng(300)
    w = rng.dirichlet(np.ones(300))
    m = MixtureModel.vary_lambda(Exponential(1.5), 0.4, zip(w / w.sum(), rng.uniform(0.2, 3.0, 300)))
    n = 3 * SMALL + 1
    small, large = at_both_sizes(monkeypatch, lambda: m.sample(n, 4))
    assert small.tobytes() == large.tobytes() == whole_sample(m, n, 4).tobytes()
    # components past index 255 are drawn
    assert np.random.default_rng(4).choice(300, size=n, p=np.asarray(m.weights)).max() > 255


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("which", CURVE_KINDS)
def test_curve_and_sample_files(monkeypatch, tmp_path, capsys, which):
    doc = json.loads(cli.bundled_scenario_path(5).read_text())
    doc["grid"] = {"points": 3 * SMALL + 1}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))

    def work():
        curve, draws = tmp_path / "curve.csv", tmp_path / "draws.txt"
        results = [run_cli(["curve", str(scenario), "--which", which, "--out", str(curve)], capsys),
                   run_cli(["sample", str(scenario), "--n", str(3 * SMALL + 1), "--out", str(draws)],
                           capsys)]
        return results, curve.read_bytes(), draws.read_bytes()

    small, large = at_both_sizes(monkeypatch, work)
    assert small == large
    assert small[0][0][0] == 0


def test_curve_numerical_error_names_the_same_point(monkeypatch, tmp_path, capsys):
    # model A's component 0 has the smallest lam but weight*tilt 1e-170 * 1e-160, which
    # underflows to 0; once component 1's rescaled term underflows too (x ~ 277), the
    # hazard's rescaled survival is 0 and it raises
    doc = {"baseline": {"kind": "exponential", "params": {"a": 1.0}},
           "model_variant": "vary_lambda", "common_param": 1e-160,
           "matrix_a": {"p": [1e-170, 1.0], "theta": [0.5, 2.0]},
           "chain": [{"omega": 0.5, "permutation": [1, 0]}]}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "curve.csv"
    small, large = at_both_sizes(monkeypatch, lambda: run_cli(
        ["curve", str(scenario), "--which", "hazard", "--out", str(out)], capsys))
    assert small == large
    code, stdout, err = large
    assert code == 3 and stdout == ""
    assert err.startswith("numerical failure: curve evaluation failed at t=0.996401 ")
    assert not out.exists()
