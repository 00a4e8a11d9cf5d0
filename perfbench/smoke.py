"""Smoke test of the benchmark itself, at the tiny "smoke" profile.

Usage (from the repository root)::

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced.  Fails (exit code 1) when
a run fails, a CSV digest differs from ``reference.json``, or a metric named
in ``BENCHMARK.json`` is missing from the result line or from the printed
``metric <name> = <value> <unit>`` lines, or carries another unit.  Finally
checks that the benchmark refuses to run, without a result line, in a
directory holding only ``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
METRIC_LINE = re.compile(r"^metric (\S+) = \S+ (\S+)")


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def check_workload(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run([str(BENCH_DIR / "run.py"), "--workload", workload,
                "--profile", "smoke", "--seconds", "0", "--trace", str(trace)],
               ROOT)
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}: "
                      + "; ".join(l for l in lines if l.startswith("FAILED")))
    printed = dict(m.groups() for m in map(METRIC_LINE.match, lines) if m)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    if set(result["metrics"]) != names:
        errors.append(f"{where}: metrics {sorted(set(result['metrics']) ^ names)} "
                      "differ between the result and BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or printed.get(m["name"]) != m["unit"]:
            errors.append(f"{where}: {m['name']} not printed with unit {m['unit']}")
        if not isinstance(got.get("value"), (int, float)):
            errors.append(f"{where}: {m['name']} has no numeric value")
    return errors


def check_bare_directory() -> list[str]:
    """Without the program's sources the benchmark must fail, printing no result."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run([*spec["command"][1:], "--workload", spec["workloads"][0]["name"],
                    "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["bare directory: the benchmark did not refuse to run"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_workload(spec, workload, trace)
            print(f"{workload} trace {trace}: {'ok' if not found else 'FAILED'}")
            errors += found
    errors += check_bare_directory()
    for line in errors:
        print(f"FAILED: {line}")
    print("smoke test passed" if not errors else f"{len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
