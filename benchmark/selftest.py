"""Quick self-test of the benchmark: every workload at tiny sizes, both modes.

    python3 benchmark/selftest.py

Each run must exit 0 with all checks passing and no failed operation, and
print exactly the metrics (with their units) that BENCHMARK.json declares:
every end-to-end one untraced, every per-layer one traced, each a finite
number, and the end-to-end ones never 0. Last, a directory holding only BENCHMARK.json
and the benchmark's files, without the library, must make the benchmark exit
non-zero without a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("penalty_eval", "register", "paper_compare")
TIMEOUT_S = 300


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), spec["workloads"]
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} trace {trace}"
            proc = run(ROOT, workload, trace)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                failed_checks = [l for l in proc.stderr.splitlines() if l.startswith("check FAIL")]
                problems.append(f"{label}: correct={result['correct']} attempted={result['attempted']} "
                                f"failed={result['failed']} {failed_checks}")
            metrics = result["metrics"]
            for name, entry in metrics.items():
                if declared[trace].get(name) != entry["unit"]:
                    problems.append(f"{label}: {name} [{entry['unit']}] not declared with that unit")
                value = entry["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value) or (value == 0 and not trace):
                    problems.append(f"{label}: {name} = {value!r}")
            missing = set(declared[trace]) - set(metrics)
            if missing:
                problems.append(f"{label}: declared metrics not printed: {sorted(missing)}")
            print(f"ran {label}: {len(metrics)} metrics, attempted {result['attempted']}", flush=True)

    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "benchmark").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "benchmark")
    proc = run(bare, WORKLOADS[0], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without the library: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
