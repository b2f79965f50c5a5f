"""regprobe's benchmark: time from ``regprobe run`` to a checked verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the benchmark imports regprobe from the
checkout's ``src`` and exits 2 if it is not there.  Workloads are defined
in ``workloads.py`` and described in ``BENCHMARK.json``, which also names
every metric and its unit.

Load is a closed loop with one client: one process runs passes back to
back, each pass one ``regprobe.cli.main(["run", <docs>..., "--out", DIR])``
call over the workload's documents, the next starting when the previous
one has returned.  Every child process runs with one BLAS/OpenMP thread.

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
One fresh process sets up, runs a cold pass, then warm passes for
``--seconds``.  More fresh processes set up and run only the cold pass,
until there are at least ``COLD_SAMPLES`` cold passes that together took
``COLD_BUDGET_S`` (at most ``COLD_SAMPLES_MAX``), and more again only set
up, until ``SETUP_SAMPLES`` processes have set up.  ``setup_s`` is their
median set-up time (import ``regprobe.cli``, load and validate the
documents, ``get_problem``), ``cold_s`` the median cold pass, ``wall_s``
the median warm pass and ``peak_rss_mb`` the peak resident memory of the
process that ran the warm passes.  The three timings are in reference
seconds (see ``speedometer.py``): measured seconds corrected for the speed
the machine gave the process while it ran, which on a shared virtual
machine can swing by 20-30 % within seconds.  The measured seconds are printed beside them.

``--trace 1`` runs the workload twice, for half of ``--seconds`` each: once
untraced, timing only each scenario, and once with the span wrappers of
``spans.py``.  Its per-layer and per-scenario times are measured seconds,
and the tracing overhead is the difference of the two runs' median warm
passes in reference seconds.  It prints the per-layer
metrics (medians over the traced warm passes), the tracing overhead, a
per-scenario attribution table, and fails the run if the traced artifacts
differ by a byte from the untraced ones.

Every report is checked (see ``workloads.check_report``).  A scenario run
that raised, exited nonzero, gave another verdict or failed a check counts
in ``failed``; nothing is retried.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import ROADMAP_BASELINE, SCENARIO_IDS, WORKLOADS, make_documents

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COLD_SAMPLES = 2
COLD_SAMPLES_MAX = 5
COLD_BUDGET_S = 10.0
SETUP_SAMPLES = 5
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


class Children:
    """Fresh workload processes for one benchmark run."""

    def __init__(self, workload: str, docs: Path, work: Path, deadline: float):
        self.base = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
                     "--workload", workload, "--docs", str(docs)]
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, **{name: "1" for name in THREAD_VARS})

    def run(self, mode: str, seconds: float, out: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the next process")
        try:
            proc = subprocess.run(
                self.base + ["--out", str(self.work / out), "--mode", mode,
                             "--seconds", repr(seconds)],
                env=self.env, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process ran out of time") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{mode} process exited {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def warm(child: dict) -> list:
    return child["passes"][1:]


def median(values) -> float:
    """Median, or 0.0 when a failing scenario left no sample."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def scenario_times(passes: list, sid: str) -> list:
    return [p["scenario_s"][sid] for p in passes if sid in p["scenario_s"]]


def tail(samples: list):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); None below eleven samples."""
    ordered = sorted(samples)
    k = len(ordered) - 10
    return (ordered[k - 1], 100.0 * k / len(ordered)) if k >= 1 else None


def count_failures(children: list, scenarios: tuple) -> tuple:
    attempted = failed = 0
    messages = []
    for child in children:
        for i, p in enumerate(child["passes"]):
            attempted += len(scenarios)
            failed += len(p["failed"])
            for where, errs in p["errors"].items():
                messages += [f"pass {i} {where}: {e}" for e in errs]
    return attempted, failed, messages


def end_to_end(children: Children, scenarios: tuple, seconds: float,
               lines: list):
    run = children.run("run", seconds, "out")
    fresh = [run]
    while len(fresh) < COLD_SAMPLES or (
            len(fresh) < COLD_SAMPLES_MAX
            and sum(r["passes"][0]["measured_s"] for r in fresh) < COLD_BUDGET_S):
        fresh.append(children.run("run", 0.0, f"cold{len(fresh)}"))
    setup_only = [children.run("setup", 0.0, "setup")
                  for _ in range(SETUP_SAMPLES - len(fresh))]
    setups = [(r["setup_s"], r["setup_measured_s"]) for r in fresh + setup_only]
    colds = [(r["passes"][0]["wall_s"], r["passes"][0]["measured_s"])
             for r in fresh]
    walls = [(p["wall_s"], p["measured_s"]) for p in warm(run)]
    values = {
        "setup_s": statistics.median(v for v, _ in setups),
        "cold_s": statistics.median(v for v, _ in colds),
        "wall_s": statistics.median(v for v, _ in walls),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    for name, samples, unit in (("setup_s", setups, "fresh processes"),
                                ("cold_s", colds, "fresh processes"),
                                ("wall_s", walls, "warm passes")):
        lines.append(f"{name} from {len(samples)} {unit}, reference s: "
                     + " ".join(f"{v:.4f}" for v, _ in samples)
                     + "; measured s: "
                     + " ".join(f"{m:.4f}" for _, m in samples))
    speeds = [v for r in fresh + setup_only for v in r["speeds"]]
    lines.append(f"machine speed (1 is nominal): median "
                 f"{statistics.median(speeds):.4f} over {len(speeds)} samples, "
                 "quartiles " + " ".join(
                     f"{q:.4f}" for q in statistics.quantiles(speeds, n=4)))
    found = tail([v for v, _ in walls])
    if found is None:
        lines.append(f"wall_s.tail: n/a s (needs 11 warm passes, this run "
                     f"has {len(walls)})")
    else:
        lines.append(f"wall_s.tail: {found[0]:.4f} s (p{found[1]:.0f}: ten of "
                     f"{len(walls)} warm passes are slower)")
    return values, fresh


def per_pass_totals(p: dict) -> dict:
    totals = defaultdict(float)
    for _, metric, value in p["stats"]:
        if metric == "elliptic.factor.fill_nnz":
            totals[metric] = max(totals[metric], value)
        else:
            totals[metric] += value
    return totals


def attribution(traced: dict, plain: dict, scenarios: tuple, lines: list) -> None:
    """Per-scenario table of where a warm pass's traced time goes."""
    stats = defaultdict(list)
    for p in warm(traced):
        for scenario, metric, value in p["stats"]:
            stats[(scenario, metric)].append(value)

    def med(scenario, metric):
        return median(stats.get((scenario, metric), []))

    layers = sorted({m[:-len(".self_s")] for (_, m) in stats
                     if m.endswith(".self_s")})
    for sc in scenarios:
        total = sum(med(sc.id, f"{layer}.self_s") for layer in layers)
        plain_warm = median(scenario_times(warm(plain), sc.id))
        plain_cold = median(scenario_times(plain["passes"][:1], sc.id))
        lines.append("")
        lines.append(f"attribution {sc.id}: traced warm {total:.4f} s, untraced "
                     f"warm {plain_warm:.4f} s, untraced cold {plain_cold:.4f} s")
        if sc.id in ROADMAP_BASELINE:
            lines.append(f"  ROADMAP baseline (cold): {ROADMAP_BASELINE[sc.id]}")
        rows = sorted(((med(sc.id, f"{layer}.self_s"), layer) for layer in layers),
                      reverse=True)
        for self_s, layer in rows:
            if self_s <= 0.0:
                continue
            counts = ", ".join(
                f"{m.rsplit('.', 1)[1]}={med(sc.id, m):.0f}"
                for (s, m) in sorted(stats) if s == sc.id
                and m.startswith(layer + ".") and not m.endswith(".self_s"))
            lines.append(f"  {layer:<22} {self_s:9.4f} s {100 * self_s / total:6.1f} %"
                         f"  {counts}")


def per_layer(children: Children, scenarios: tuple, seconds: float,
              lines: list):
    plain = children.run("run", seconds / 2.0, "out-plain")
    traced = children.run("traced", seconds / 2.0, "out-traced")
    if traced["digests"] != plain["digests"]:
        for p in traced["passes"]:
            p["errors"]["artifacts"] = ["traced artifacts differ from untraced"]
            p["failed"] = [sc.id for sc in scenarios]

    passes = [per_pass_totals(p) for p in warm(traced)]
    names = {m for p in passes for m in p}
    values = {m: statistics.median(p.get(m, 0.0) for p in passes) for m in names}
    for sid in SCENARIO_IDS:
        values[f"scenario.{sid}.s"] = median(scenario_times(warm(plain), sid))
    plain_wall = statistics.median(p["wall_s"] for p in warm(plain))
    traced_wall = statistics.median(p["wall_s"] for p in warm(traced))
    values["trace.overhead_s"] = traced_wall - plain_wall
    lines.append(f"wall_s (reference s) untraced {plain_wall:.4f} s over {len(warm(plain))} warm "
                 f"passes, traced {traced_wall:.4f} s over {len(warm(traced))}")
    lines.append("traced artifacts byte-equal to untraced: "
                 f"{traced['digests'] == plain['digests']}")
    attribution(traced, plain, scenarios, lines)
    return values, [plain, traced]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "regprobe" / "cli.py").is_file():
        print(f"no regprobe source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    scenarios = WORKLOADS[args.workload]

    work = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "docs").mkdir(parents=True)
    try:
        for doc in make_documents(ROOT, scenarios, args.seed):
            (work / "docs" / f"{doc['id']}.json").write_text(json.dumps(doc, indent=1))
        children = Children(args.workload, work / "docs", work, deadline)
        lines = []
        measure = per_layer if args.trace else end_to_end
        values, runs = measure(children, scenarios, args.seconds, lines)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, messages = count_failures(runs, scenarios)
    machine = dict(runs[0]["machine"], nproc=os.cpu_count(),
                   affinity=len(os.sched_getaffinity(0)),
                   **{name: children.env[name] for name in THREAD_VARS})
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    print("machine: " + json.dumps(machine, sort_keys=True))
    for line in lines:
        print(line)
    for message in messages[:20]:
        print(f"check failed: {message}")
    print(f"fail_frac: {failed / attempted:.4f} ({failed} of {attempted} "
          f"scenario runs failed)")
    metrics = {}
    for m in wanted:
        # A per-layer metric of a layer this workload never reaches is 0.
        value = values.get(m["name"], 0.0) if args.trace else values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']}: {value:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
