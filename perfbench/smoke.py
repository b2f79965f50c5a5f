"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload for one second, untraced and traced, and prints the
end-to-end metrics and ``fail_frac`` of each.  Each run must end with the
result line, naming every metric of ``BENCHMARK.json`` in its unit, with
``correct`` true and no failed scenario run, and must print ``fail_frac``
(and, untraced, ``wall_s.tail``) on the lines above it.  Then
runs the benchmark in a directory holding only ``BENCHMARK.json`` and
``perfbench``, where it must exit nonzero without a result.  Takes about
three minutes; exits 1 at the first problem.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> list:
    proc = bench(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    shown = (["fail_frac", "traced artifacts byte-equal to untraced",
              "trace.overhead_s"] if trace else
             ["fail_frac", "wall_s.tail"] + [m["name"] for m in spec["end_to_end"]])
    for line in lines[:-1]:
        if any(line.startswith(f"{name}: ") for name in shown):
            print(f"  {line}")
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != wanted:
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got.items()) ^ set(wanted.items()))}")
    for name in ["fail_frac"] + ([] if trace else ["wall_s.tail"]):
        if not any(line.startswith(f"{name}: ") for line in lines):
            problems.append(f"no {name} line")
    return problems


def check_bare() -> list:
    """Without the program's source the benchmark must fail, not measure."""
    bare = ROOT / ".perfbench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "probe_ladder", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"exit code {proc.returncode} with output {proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = [(f"{w['name']} trace {t}", lambda w=w, t=t: check_run(spec, w["name"], t))
              for w in spec["workloads"] for t in (0, 1)]
    checks.append(("without the source", check_bare))
    for label, check in checks:
        print(label, flush=True)
        problems = check()
        print(f"  {'ok' if not problems else 'FAILED'}", flush=True)
        for p in problems:
            print(f"  {p}")
        if problems:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
