"""One benchmark process: set up a workload, time whole passes of its ops, verify them.

Started by ``run.py`` in a fresh interpreter, single-threaded, as a closed
loop with one client: each op starts when the previous one has returned.
Prints one JSON line for the runner. ``--setup-only`` stops after set-up.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here, before numpy or mixorder load

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
# bytes of a text output may move by noise-level digits without a change in meaning
BYTES_RTOL = 0.005
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def load_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mixorder
        import mixorder.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import mixorder from {src}: {exc}")
    if not Path(mixorder.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: mixorder was imported from {mixorder.__file__}, not {src}")
    from mixorder import baseline, cli, errors, majorization, mixture, orders, theorems
    return SimpleNamespace(baseline=baseline, cli=cli, errors=errors, majorization=majorization,
                           mixture=mixture, orders=orders, theorems=theorems)


class Runner:
    """Runs passes of the op list and keeps latencies, outcomes and first results."""

    def __init__(self, ops, lib):
        self.ops = ops
        self.lib = lib
        self.first = [None] * len(ops)  # (result, outcome) of each op's first call
        self.calls = [0] * len(ops)
        self.mismatches = [0] * len(ops)  # calls whose outcome differs from the first call's

    def run_pass(self, rec=None) -> list[float]:
        latencies = []
        for i, op in enumerate(self.ops):
            t0 = time.perf_counter()
            try:
                result, err = (rec.call_op(i, op.call) if rec else op.call()), None
            except Exception as exc:  # an op that fails is counted, the loop goes on
                result, err = None, type(exc).__name__
                if not isinstance(exc, self.lib.errors.MixOrderError):
                    traceback.print_exc()
            latencies.append(time.perf_counter() - t0)
            outcome = op.outcome(result, err)
            self.calls[i] += 1
            if self.first[i] is None:
                self.first[i] = (result, outcome)
            elif outcome != self.first[i][1]:
                self.mismatches[i] += 1
        return latencies

    def run_for(self, seconds: float, rec=None, passes: int | None = None):
        """Whole passes: ``passes`` of them, or at least two and then while one more
        pass of mean length ends within ``seconds``.

        Two passes at least, so that every op is repeated and its outcome compared.
        Returns each pass's op latencies and the wall-clock duration of each pass.
        """
        latencies, durations = [], []
        while True:
            t0 = time.perf_counter()
            latencies.append(self.run_pass(rec))
            durations.append(time.perf_counter() - t0)
            done, elapsed = len(durations), sum(durations)
            if done == passes or (passes is None and done >= 2 and elapsed * (done + 1) / done > seconds):
                return latencies, durations


def per_op_medians(latencies: list[list[float]]) -> list[float]:
    """Each op's median latency over the run's passes.

    The end-to-end statistics are taken over these, one value per op of the
    fixed list, so the tail's percentile does not depend on how many passes
    fit in the run.
    """
    return [statistics.median(calls) for calls in zip(*latencies)]


def compare(ref: dict, got: dict) -> list[str]:
    problems = []
    for k, want in ref.items():
        have = got.get(k)
        if k == "bytes" and isinstance(have, int) and want > 0:
            if abs(have - want) > BYTES_RTOL * want:
                problems.append(f"bytes {have}, reference {want}")
        elif have != want:
            problems.append(f"{k} {have!r}, reference {want!r}")
    return problems


def load_reference() -> dict:
    """Committed outcomes: ``{(workload or None, op key): outcome}``; None marks a fixed op."""
    try:
        doc = json.loads(REFERENCE.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}
    return {(row["workload"], row["key"]): row["outcome"] for row in doc["ops"]}


def verify(runner: Runner, workload: str, seed: int):
    """Check each op's first result; returns per-op problems, the digest and reference status."""
    ref = load_reference()
    problems, info, checked = {}, {}, 0
    for op, (result, outcome) in zip(runner.ops, runner.first):
        found = op.check(result, outcome, info)
        want = ref.get((None, op.key)) if op.fixed else (
            ref.get((workload, op.key)) if seed == REFERENCE_SEED else None)
        if want is not None:
            checked += 1
            found += compare(want, outcome)
        if found:
            problems[op.key] = found
    outcomes = [[op.key, outcome] for op, (_, outcome) in zip(runner.ops, runner.first)]
    digest = hashlib.sha256(json.dumps(outcomes, sort_keys=True).encode()).hexdigest()[:16]
    status = f"{checked} of {len(runner.ops)} ops compared with the committed reference"
    return problems, info, digest, status


def write_reference(runner: Runner, workload: str, seed: int) -> None:
    if seed != REFERENCE_SEED:
        raise SystemExit(f"error: the reference is kept for seed {REFERENCE_SEED}")
    ref = load_reference()
    for op, (_, outcome) in zip(runner.ops, runner.first):
        ref[(None if op.fixed else workload, op.key)] = outcome
    rows = [json.dumps({"workload": w, "key": k, "outcome": o}, sort_keys=True)
            for (w, k), o in sorted(ref.items(), key=lambda kv: (kv[0][0] or "", kv[0][1]))]
    REFERENCE.write_text(f'{{"seed": {REFERENCE_SEED}, "ops": [\n' + ",\n".join(rows) + "\n]}\n",
                         encoding="utf-8")


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest ladder percentile with at least ten samples beyond it (max if none has).

    Returns the percentile, its value and the number of samples beyond it.
    """
    n = len(latencies)
    for p in TAIL_LADDER:
        beyond = round(n * (100.0 - p) / 100.0, 6)  # rounded, so that 100 * 10% counts as 10
        if beyond >= 10:
            return p, statistics.quantiles(latencies, n=1000, method="inclusive")[round(p * 10) - 1], int(beyond)
    return 100.0, max(latencies), 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's outcomes as the committed reference")
    args = ap.parse_args(argv)

    lib = load_library()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        ops = workloads.build(args.workload, args.seed, work, lib)
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        runner = Runner(ops, lib)
        out = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
               "ops_per_pass": len(ops), "numpy": sys.modules["numpy"].__version__}
        if args.trace:
            # half the time untraced, then as many passes traced, for the tracing overhead
            latencies, durations = runner.run_for(args.seconds / 2)
            rec = spans.Recorder()
            spans.install(rec, lib)
            try:
                traced_latencies, traced_durations = runner.run_for(0, rec, passes=len(durations))
            finally:
                rec.uninstall()
            rec.write(ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.npz")
            layers = spans.layer_metrics(rec, len(durations))
            untraced_rate = len(ops) / sum(per_op_medians(latencies))
            traced_rate = len(ops) / sum(per_op_medians(traced_latencies))
            layers["trace.untraced_ops_per_s"] = (untraced_rate, "ops/s")
            layers["trace.traced_ops_per_s"] = (traced_rate, "ops/s")
            layers["trace.overhead_ops_per_s"] = (traced_rate - untraced_rate, "ops/s")
            out["layers"] = layers
            out["passes"] = [len(durations), len(traced_durations)]
        else:
            latencies, durations = runner.run_for(args.seconds)
            out["passes"] = [len(durations)]
        out["pass_s"] = durations
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        typical = per_op_medians(latencies)
        out["ops_per_s"] = len(ops) / sum(typical)
        out["op_p50_ms"] = statistics.median(typical) * 1e3
        pct, value, beyond = tail(typical)
        out["op_tail_ms"] = value * 1e3
        out["tail"] = {"percentile": pct, "samples": len(typical), "beyond": beyond}
        out["op_ms"] = {op.key: ms * 1e3 for op, ms in zip(ops, typical)}

        if args.write_reference:
            write_reference(runner, args.workload, args.seed)
        problems, info, digest, status = verify(runner, args.workload, args.seed)
        failed = sum(calls if op.key in problems else bad
                     for op, calls, bad in zip(runner.ops, runner.calls, runner.mismatches))
        out.update(attempted=sum(runner.calls), failed=failed,
                   problems=problems, info=info, digest=digest, reference=status)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
