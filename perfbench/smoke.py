"""Smoke check of the benchmark: one short run per workload, untraced and traced.

    python3 perfbench/smoke.py

Each run is asked for one second, which gives the minimum: two passes of the
op list, four when traced. The check is that the run exits 0, that every
metric declared in BENCHMARK.json is printed by name with its unit, and that
the last line is the JSON result. It checks no timing.
"""

import json
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=180)
        except BaseException:
            proc.terminate()  # run.py then stops its worker
            proc.wait()
            raise
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}"]
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} ops failed")
    declared = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in declared}:
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    printed = {ln.split()[0]: ln.split()[2] for ln in lines[:-1]
               if not ln.startswith("#") and len(ln.split()) == 3}
    for m in declared:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or printed.get(m["name"]) != m["unit"]:
            problems.append(f"{where}: {m['name']} not printed with unit {m['unit']}")
    if printed.get("failed_frac") != "ratio":
        problems.append(f"{where}: failed_frac not printed")
    return problems


def main() -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, w["name"], trace)
            print(f"{w['name']} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
