"""Allocation bounds of the large-array CLI commands, and of a search st trial.

Each command test runs a command at two sizes under ``tracemalloc`` (which sees numpy's
array data) and compares the peaks, so it measures memory, not time.  ``sample``
holds one block of draws whatever ``--n`` is, and no grid of ``MIXORDER_GRID_POINTS``
points; ``curve``, ``check-order --order st/hr`` and the hr report of
``verify-examples --ids 6`` hold the grid's ``t`` (8 bytes a point) and one block.
"""

import gc
import json
import tracemalloc

import pytest

from mixorder import cli, default_grid, search_counterexamples


def traced_peak(work) -> int:
    """The peak of the memory that ``work()`` allocates, in bytes."""
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run(argv):
    assert cli.main(argv) in (0, 1)


def test_sample_peak_does_not_grow_with_n(tmp_path, capsys):
    scenario, out = str(cli.bundled_scenario_path(5)), str(tmp_path / "draws.txt")

    def sample(n):
        return lambda: run(["sample", scenario, "--n", str(n), "--seed", "3", "--out", out])

    sample(1000)()  # imports and first-use work outside the measurement
    small, large = traced_peak(sample(50_000)), traced_peak(sample(400_000))
    assert large - small < 1_000_000, (small, large)


def test_sample_builds_no_grid_of_the_env_size(tmp_path, capsys, monkeypatch):
    # sample reads no grid, so a MIXORDER_GRID_POINTS of a million points (8 MB of t)
    # allocates nothing for it
    scenario, out = str(cli.bundled_scenario_path(5)), str(tmp_path / "draws.txt")
    work = lambda: run(["sample", scenario, "--n", "10", "--seed", "1", "--out", out])
    monkeypatch.delenv("MIXORDER_GRID_POINTS", raising=False)
    work()  # imports and first-use work outside the measurement
    unset = traced_peak(work)
    monkeypatch.setenv("MIXORDER_GRID_POINTS", "1000000")
    assert traced_peak(work) - unset < 1_000_000, unset


SMALL_GRID, LARGE_GRID = 20_000, 120_000

COMMANDS = {
    "curve": lambda path, out: ["curve", path, "--which", "hazard", "--out", out],
    "st": lambda path, out: ["check-order", path, "--order", "st"],
    "hr": lambda path, out: ["check-order", path, "--order", "hr"],
    "hr_report": lambda path, out: ["verify-examples", "--ids", "6"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_grid_commands_hold_t_and_one_block(tmp_path, capsys, monkeypatch, command):
    doc = json.loads(cli.bundled_scenario_path(5).read_text())
    out = str(tmp_path / "curve.csv")

    def on_grid(points):
        path = tmp_path / f"grid{points}.json"
        path.write_text(json.dumps(dict(doc, grid={"points": points})))
        # the bundled example of verify-examples takes its grid size from the environment
        monkeypatch.setenv("MIXORDER_GRID_POINTS", str(points))
        return lambda: run(COMMANDS[command](str(path), out))

    on_grid(2001)()
    small, large = traced_peak(on_grid(SMALL_GRID)), traced_peak(on_grid(LARGE_GRID))
    per_point = (large - small) / (LARGE_GRID - SMALL_GRID)
    assert per_point <= 10.0, (small, large)


def test_default_grid_holds_one_array():
    # the grid keeps np.linspace's own array: no copy, and no x until it is read; the
    # validity checks add one-byte masks for a moment
    grid = None

    def build():
        nonlocal grid
        grid = default_grid(LARGE_GRID)

    assert traced_peak(build) <= 12 * LARGE_GRID
    assert "x_values" not in vars(grid)


@pytest.mark.parametrize("tid, bound", [("T3i", 280_000), ("T1i", 234_000)])
def test_search_st_trial_holds_one_kernel(tid, bound):
    # an st trial reads only its pair's survivals, so it frees the first kernel before it
    # builds the second (T3i, a vary_lambda pair), or all of it but the power that the
    # second reuses (T1i, a vary_alpha pair); the bound is on the peak above what the run
    # leaves allocated, the interpreter's free lists, which grow with the trials
    search_counterexamples(tid, 60, 5)  # first-use work outside the measurement
    gc.collect()
    tracemalloc.start()
    try:
        search_counterexamples(tid, 60, 5)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - current <= bound, (peak, current)
