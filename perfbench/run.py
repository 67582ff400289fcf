"""mixorder benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload star_lorenz --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. Each workload runs in a fresh interpreter with the BLAS/OpenMP
thread pools pinned to one thread. With ``--trace 0`` the output holds the
end-to-end metrics, taken from each op's median latency over the run's passes;
set-up is repeated in several fresh interpreters and its median reported.
With ``--trace 1`` a traced run reports per-layer counts and self times per
pass, and the tracing overhead. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("star_lorenz", "search", "cli_io")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(Exception):
    pass


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(args, extra: list[str], deadline: float) -> dict:
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish before the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "mixorder" / "__init__.py").is_file():
        print(f"error: no mixorder sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # on SIGTERM, leave through SystemExit so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        # set-up samples before and after the timed run, so that their median
        # spans two moments of a host whose speed drifts
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [run_worker(args, ["--setup-only"], deadline)["setup_s"] for _ in range(extra // 2)]
        r = run_worker(args, [], deadline)
        setups.append(r["setup_s"])
        setups += [run_worker(args, ["--setup-only"], deadline)["setup_s"] for _ in range(extra - extra // 2)]
    except (BenchError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"# mixorder benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={r['numpy']} git={git_sha()} threads={','.join(THREAD_VARS)}=1")
    n = r["tail"]["samples"]
    print(f"# closed loop, 1 client, 1 thread: {r['passes']} pass(es) of {r['ops_per_pass']} ops, "
          f"{r['attempted']} ops attempted, {r['failed']} failed")
    print(f"# pass seconds: median {statistics.median(r['pass_s']):.4g}, "
          f"min {min(r['pass_s']):.4g}, max {max(r['pass_s']):.4g}")
    print(f"# verdict digest {r['digest']}; {r['reference']}")
    for key, problems in r["problems"].items():
        for p in problems:
            print(f"# FAILED {key}: {p}")
    for key, value in r["info"].items():
        print(f"# {key}: {value:.6g}")
    for key, ms in r["op_ms"].items():
        print(f"# op {key}: median {ms:.1f} ms")

    failed_frac = r["failed"] / r["attempted"]
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in r["layers"].items()}
        print("# per layer, per pass of the op list; mphr: not measured, no workload calls it")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": r["ops_per_s"], "unit": "ops/s"},
            "op_p50_ms": {"value": r["op_p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": r["op_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": r["peak_rss_mb"], "unit": "MB"},
        }
        print(f"# setup_s is the median of {len(setups)} fresh interpreters")
        print(f"# ops_per_s, op_p50_ms and op_tail_ms use each op's median over the "
              f"{r['passes'][0]} passes; op_tail_ms is p{r['tail']['percentile']:g} of "
              f"{n} ops, {r['tail']['beyond']} beyond it")
    for k, m in metrics.items():
        print(f"{k:34s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':34s} {failed_frac:.6g} ratio")
    print(json.dumps({"correct": r["failed"] == 0, "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
