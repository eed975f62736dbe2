"""Self-test of the benchmark: short runs of every workload in both modes.

    python3 perfbench/selftest.py

Each run must exit 0 and end with the result line BENCHMARK.json promises:
exactly the keys correct, attempted, failed and metrics, with every metric
named there (``end_to_end`` under ``--trace 0``, ``per_layer`` under
``--trace 1``) printed with its unit and a finite value.  The line before it
records the CPU count and the Python version.  Last, the benchmark copied
without the program beside it must fail with no result line.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["info"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert info["cpu_count"] == os.cpu_count()
    assert info["python"].count(".") == 2
    want = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
        assert math.isfinite(got["value"]), (m["name"], got)
    print(f"ok {workload} --trace {trace}: {len(want)} metrics")


def check_bare() -> None:
    """Only BENCHMARK.json and perfbench/: the run must fail cleanly."""
    bare = os.path.join(HERE, "work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _run(bare, "star_page", 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    print("ok bare checkout fails without a result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_bare()
    return 0


if __name__ == "__main__":
    sys.exit(main())
