"""The large-array paths give the same results, to the bit, for every block size.

``check_st`` and ``check_hr`` read both models' survivals from one pair pass
(``orders._pair_pass``), as search's per-trial verdict does; the hr
propositions' hazard hypothesis, ``MixtureModel.sample`` and the CLI's ``curve``
and ``sample`` output work one block of ``mixture._BLOCK`` points at a time, and
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
    PowerBurr,
    check_hr,
    check_st,
    check_theorem,
    cli,
    default_grid,
    mixture,
    search_counterexamples,
    verify_example,
)
from mixorder import orders, theorems
from mixorder.errors import ParameterError
from mixorder.majorization import ParameterMatrix, TTransform
from mixorder.mixture import CURVE_KINDS, EvaluationGrid
from mixorder.orders import DEFAULT_SLACK, _asserted_verdict, _first_max, _monotone_max
from mixorder.theorems import example_scenario, scenario_from_dict
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


SIZES = [2, SMALL, 8192, 10**8]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
@pytest.mark.parametrize("name, m1, m2", PAIRS, ids=[p[0] for p in PAIRS])
def test_hr_decision_matches_the_verdict(monkeypatch, grid, name, m1, m2, size):
    # search skips a trial on this decision and reports the rest of the verdict from the
    # same pass, so both must be the full verdict's, to the bit
    monkeypatch.setattr(mixture, "_BLOCK", size)
    v = check_hr(m1, m2, grid)
    for direction in ("leq", "geq"):
        decided = _asserted_verdict("hr", direction, m1, m2, grid)
        if getattr(v, f"holds_{direction}") or v.inconclusive:
            assert decided is None
        else:
            assert repr(decided) == repr(v)


def per_model(m1, m2, grid):
    """Each model's own survival on the whole grid, and the st and hr verdicts from them
    and from each model's own hazard: the reference for the pair pass."""
    x, t = grid.x_values, grid.t_values
    s1, s2 = m1.survival(x), m2.survival(x)
    st = orders._verdict(_first_max(np.maximum(s1 - s2, 0.0)),
                         _first_max(np.maximum(s2 - s1, 0.0)), t, DEFAULT_SLACK)
    safe = (s1 >= orders._SURVIVAL_FLOOR) & (s2 >= orders._SURVIVAL_FLOOR)
    n = len(t) if safe.all() else int(safe.argmin())
    t_cut = float(t[n]) if n < len(t) else None
    if n < 2:
        return s1, s2, st, orders._hr_verdict(None, None, t_cut, t, DEFAULT_SLACK)
    worst = {"leq": _monotone_max(s2[:n] / s1[:n])[0], "geq": _monotone_max(s1[:n] / s2[:n])[0]}
    h1, h2 = m1.hazard(x[:n]), m2.hazard(x[:n])
    gap = (h2 - h1) / np.maximum(1.0, np.maximum(np.abs(h1), np.abs(h2)))
    hz = {"leq": bool(gap.max() <= DEFAULT_SLACK), "geq": bool(-gap.min() <= DEFAULT_SLACK)}
    return s1, s2, st, orders._hr_verdict(worst, hz, t_cut, t, DEFAULT_SLACK)


def pair_kinds():
    """A shared-lam pair, a vary_lambda pair, a pair of different widths and a pair with
    different baselines, the pairs the public check_st and check_hr accept, and a
    vary_alpha pair whose one lam differs."""
    base = Exponential(1.3)
    return [
        ("shared_lam", MixtureModel.vary_alpha(base, 0.4, [(0.6, 0.3), (0.4, 0.6)]),
         MixtureModel.vary_alpha(base, 0.4, [(0.55, 0.36), (0.45, 0.54)])),
        ("two_lams", MixtureModel.vary_alpha(base, 0.4, [(0.6, 0.3), (0.4, 0.6)]),
         MixtureModel.vary_alpha(base, 0.7, [(0.55, 0.36), (0.45, 0.54)])),
        ("vary_lambda", MixtureModel.vary_lambda(base, 0.5, [(0.4, 0.3), (0.6, 2.0)]),
         MixtureModel.vary_lambda(base, 0.5, [(0.5, 0.4), (0.5, 1.5)])),
        ("widths", MixtureModel.vary_alpha(base, 0.4, [(0.6, 0.3), (0.4, 0.6)]),
         MixtureModel.vary_alpha(base, 0.4, [(0.2, 0.9), (0.3, 0.5), (0.5, 0.2)])),
        ("baselines", MixtureModel.vary_alpha(base, 0.4, [(0.6, 0.3), (0.4, 0.6)]),
         MixtureModel.vary_alpha(PowerBurr(1.5, 0.8), 0.4, [(0.6, 0.3), (0.4, 0.6)])),
    ]


KINDS = pair_kinds()


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
@pytest.mark.parametrize("name, m1, m2", KINDS, ids=[p[0] for p in KINDS])
def test_pair_pass_matches_the_per_model_path(monkeypatch, grid, name, m1, m2, size):
    monkeypatch.setattr(mixture, "_BLOCK", size)
    s1, s2, st, hr = per_model(m1, m2, grid)
    blocks = list(orders._pair_pass(m1, m2, grid))
    # the pair holds as many values per block as one model's block of _BLOCK points, and
    # a block has at least two points
    step = max(2, size // 2)
    assert max(b[1].size for b in blocks) == min(len(grid), step)
    assert [b[0] for b in blocks] == list(range(0, len(grid), step))
    assert np.concatenate([b[4] for b in blocks]).tobytes() == s1.tobytes()
    assert np.concatenate([b[5] for b in blocks]).tobytes() == s2.tobytes()
    assert repr(check_st(m1, m2, grid)) == repr(st)
    assert repr(check_hr(m1, m2, grid)) == repr(hr)
    for order, v in (("st", st), ("hr", hr)):
        for direction in ("leq", "geq"):
            decided = _asserted_verdict(order, direction, m1, m2, grid)
            settled = getattr(v, f"holds_{direction}") or v.inconclusive
            assert repr(decided) == repr(None if settled else v)


@pytest.mark.parametrize("name, m1, m2", KINDS, ids=[p[0] for p in KINDS])
def test_shared_lam_pair_takes_one_power(name, m1, m2):
    # the second kernel of a vary_alpha pair on one baseline, of any widths, reuses the
    # first's z = s**lam
    (_, _, k1, k2, _, _), = orders._pair_pass(m1, m2, default_grid())
    shared = name in ("shared_lam", "widths")
    assert (k2.z is k1.z and k2.c is k1.c) == shared


# the samplers as they computed on numpy arrays: the reference for their draws
def array_sample_k2(rng, omega, common=(0.1, 2.0), params=(0.05, 1.0)):
    c = rng.uniform(*common)
    p1 = rng.uniform(0.05, 0.95)
    while True:
        v1, v2 = rng.uniform(*params, size=2)
        if (p1 - (1 - p1)) * (v1 - v2) <= 0:
            break
    return c, ParameterMatrix((p1, 1 - p1), (v1, v2)), (TTransform(omega, (1, 0)),)


def array_sample_balanced_k2(rng, omega):
    lam = rng.uniform(0.1, 2.0)
    while True:
        p1 = rng.uniform(0.05, 0.95)
        a1 = rng.uniform(0.05, 1.0)
        a2 = p1 * a1 / (1 - p1)
        if 0.0 < a2 <= 1.0:
            break
    return lam, ParameterMatrix((p1, 1 - p1), (a1, a2)), (TTransform(omega, (1, 0)),)


def array_sample_balanced_k3(rng, omega):
    lam = rng.uniform(0.1, 2.0)
    while True:
        w = rng.dirichlet(np.ones(3))
        tilts = rng.uniform(0.2, 0.95) * w.min() / w
        if np.all((0 < tilts) & (tilts <= 1.0)) and np.all(w > 0.02):
            break
    perm = ((1, 0, 2), (0, 2, 1), (2, 1, 0))[int(rng.integers(0, 3))]
    return lam, ParameterMatrix(tuple(w), tuple(tilts)), (TTransform(omega, perm),)


SAMPLERS = [
    (theorems._sample_k2, array_sample_k2),
    (theorems.PROPOSITIONS["T3i"].sampler, lambda rng, omega: array_sample_k2(
        rng, omega, common=(0.05, 0.95), params=(0.1, 3.0))),
    (theorems._sample_balanced_k2, array_sample_balanced_k2),
    (theorems._sample_balanced_k3, array_sample_balanced_k3),
]


@pytest.mark.parametrize("sampler, reference", SAMPLERS, ids=["k2", "k2_lam", "balanced_k2",
                                                               "balanced_k3"])
def test_sampler_draws(sampler, reference):
    # 200 (seed, trial) streams: the same draws, to the bit, and the same stream position
    for seed, trial in ((seed, trial) for seed in (0, 1, 77, 2**31 - 2) for trial in range(50)):
        rngs = [np.random.default_rng((seed, trial)) for _ in range(2)]
        omega = 0.25 + 0.5 * trial / 50
        got, want = sampler(rngs[0], omega), reference(rngs[1], omega)
        assert repr(got) == repr(want)
        assert [float(v).hex() for v in got[1].top_row + got[1].bottom_row + (got[0],)] == \
            [float(v).hex() for v in want[1].top_row + want[1].bottom_row + (want[0],)]
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@pytest.mark.parametrize("bad, detail", [(-1.0, "min hazard -1.000e+00"), (np.nan, "min hazard nan")])
def test_hazard_hypothesis_reads_each_block(monkeypatch, bad, detail):
    tid, s = example_scenario(6, grid_points=3 * SMALL + 1)
    target = s.grid.x_values[2 * SMALL + 5]  # one point of the third block
    hazard = Exponential.hazard

    def spoiled(self, x):
        r = hazard(self, x)
        r[x == target] = bad
        return r

    monkeypatch.setattr(Exponential, "hazard", spoiled)
    small, large = at_both_sizes(monkeypatch, lambda: check_theorem(tid, s))
    assert repr(small) == repr(large)
    (hyp,) = [h for h in large.hypotheses if h.name == "baseline_hazard_positive"]
    assert not hyp.satisfied and hyp.detail == detail
    assert large.conclusion.hazard_disagrees


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
