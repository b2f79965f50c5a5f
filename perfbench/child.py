"""One fresh workload process: set up, then run passes through the CLI.

    python3 perfbench/child.py --root DIR --workload NAME --docs DIR \
        --out DIR --mode {setup,run,traced} --seconds S

``setup`` only sets up.  ``run`` and ``traced`` then run a cold pass and,
unless ``--seconds`` is 0, warm passes for up to that many seconds: at
least one, and another only while the last one would still end in time.  A
pass is one ``regprobe.cli.main(["run", <docs>..., "--out", DIR])`` call,
after which every report is checked and every artifact hashed.  ``traced``
installs the span wrappers of ``spans.py`` after set-up.  Every mode runs
the ``speedometer`` and gives set-up and each pass in measured and in
reference seconds; scenario times and spans are measured seconds that
leave out the speedometer's samples.  The result is one JSON object on the
last line of standard output.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import spans
from speedometer import Speedometer
from workloads import WORKLOADS, check_report, drift_gradient


def _digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def _machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--docs", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args()
    scenarios = WORKLOADS[args.workload]
    doc_paths = [str(args.docs / f"{sc.id}.json") for sc in scenarios]
    meter = Speedometer()
    meter.start()
    try:
        return measure(args, scenarios, doc_paths, meter, started)
    finally:
        meter.stop()


def measure(args, scenarios, doc_paths, meter, started) -> int:
    # Set-up: what one CLI invocation pays before its first scenario runs.
    setup_mark = meter.mark()
    sys.path.insert(0, str(args.root / "src"))
    from regprobe import cli
    from regprobe.manufactured import get_problem
    from regprobe.scenarios import load_scenario

    docs = [load_scenario(p) for p in doc_paths]
    problems = {d["problem"]: get_problem(d["problem"]) for d in docs
                if "problem" in d}
    setup_measured_s, setup_s = meter.since(setup_mark)
    meter.add_factor_kernel()

    imported = Path(cli.__file__).resolve()
    if not imported.is_relative_to((args.root / "src").resolve()):
        print(f"regprobe was imported from {imported}, not from the "
              f"checkout", file=sys.stderr)
        return 2
    # The speeds list keeps growing until the result is printed.
    result = {"setup_s": setup_s, "setup_measured_s": setup_measured_s,
              "speeds": meter.speeds, "machine": _machine()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    scenario_s = {}
    run_scenario = cli.run_scenario
    if args.mode == "traced":
        tracer = spans.Tracer(meter.clock)
        spans.install(tracer, problems.values())
        entry = tracer.wrap("cli.main", cli.main)
    else:
        entry = cli.main

        def timed(doc, out_dir):
            start = meter.clock()
            try:
                return run_scenario(doc, out_dir)
            finally:
                scenario_s[doc["id"]] = meter.clock() - start

        cli.run_scenario = timed

    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    gradient = drift_gradient()
    argv = ["run", *doc_paths, "--out", str(args.out)]
    passes = []
    first_digests = None
    deadline = last = None
    while (deadline is None or len(passes) == 1
           or time.perf_counter() + last <= deadline):
        shutil.rmtree(args.out, ignore_errors=True)
        args.out.mkdir(parents=True)
        scenario_s.clear()
        if tracer is not None:
            tracer.reset()
        stdout = io.StringIO()
        start = time.perf_counter()
        mark = meter.mark()
        try:
            with contextlib.redirect_stdout(stdout):
                code = entry(argv)
        except Exception:
            traceback.print_exc()
            code = None
        measured, wall = meter.since(mark)
        last = time.perf_counter() - start

        errors = {}
        if code != 0:
            errors["cli"] = [f"cli.main returned {code!r}"]
        printed = stdout.getvalue()
        for sc in scenarios:
            path = args.out / f"{sc.id}_report.json"
            try:
                report = json.loads(path.read_text())
            except (OSError, ValueError) as exc:
                errors[sc.id] = [f"no readable report: {exc}"]
                continue
            found = check_report(sc, report, reference, gradient)
            if f"{sc.id}: {report.get('verdict')} " not in printed:
                found.append("verdict missing from the CLI output")
            if found:
                errors[sc.id] = found
        digests = _digests(args.out)
        first_digests = first_digests or digests
        if digests != first_digests:
            errors["artifacts"] = ["artifacts differ from the first pass"]
        failed = sorted(sc.id for sc in scenarios
                        if sc.id in errors or "cli" in errors
                        or "artifacts" in errors)
        passes.append({
            "wall_s": wall,
            "measured_s": measured,
            "scenario_s": dict(scenario_s),
            "failed": failed,
            "errors": errors,
            "stats": ([[s, m, v] for (s, m), v in tracer.stats.items()]
                      if tracer is not None else []),
        })
        if deadline is None:
            deadline = time.perf_counter() + args.seconds
            if args.seconds <= 0:
                break

    result.update({
        "passes": passes,
        "digests": first_digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "process_s": time.perf_counter() - started,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
