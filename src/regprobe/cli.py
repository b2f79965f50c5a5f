"""Command line front end.

Subcommands:

- ``run``: execute one or more scenarios (file paths or bundled ids, the
  check suites ``solver_validation`` and ``modulus_check`` among them),
  writing a trace CSV and a report JSON per scenario.
- ``report``: consolidate report JSONs into a summary table (CSV plus a
  text table on stdout), rows sorted by verdict then id.
- ``calibrate``: measure the ladder constants at the fixed scale ratio and
  resolution and print them as JSON; it takes no option of its own.

Global flags (accepted before or after the subcommand): ``--strict``
makes any non-passing verdict exit 1; ``--out DIR`` chooses the output
directory.  Several scenarios run one after another, in argument order.

Exit codes: 0 ok; 1 non-passing verdict under ``--strict``; 2 usage or
config errors, malformed report files and outputs that cannot be written;
3 unknown registry ids and scenario files that are missing or unreadable;
4 solver, fixed-point or calibration failures and running out of memory.
With several scenarios the most config-sided error wins (2 over 3 over 4);
all scenarios are validated before any of them runs.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .campanato import calibrate_constants
from .errors import (
    CalibrationError,
    FixedPointError,
    RegistryError,
    RegprobeError,
    ScenarioError,
    SolverError,
)
from .scenarios import (
    _write_rows,
    atomic_write_text,
    check_version,
    load_scenario,
    run_scenario,
    sanitize,
)

PASS_VERDICTS = frozenset({"C1_certified", "C11_certified", "pass"})


def _exit_code(exc: RegprobeError) -> int:
    if isinstance(exc, RegistryError):
        return 3
    if isinstance(exc, (SolverError, FixedPointError, CalibrationError)):
        return 4
    return 2


def _common_flags() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--strict", action="store_true", default=argparse.SUPPRESS,
                   help="exit 1 unless every verdict is certified or pass")
    p.add_argument("--out", metavar="DIR", default=argparse.SUPPRESS,
                   help="output directory (default: current directory)")
    return p


def _build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="regprobe",
        description="Scenario runner for pointwise regularity probes.",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", parents=[common],
                           help="execute scenarios and write artifacts")
    run_p.add_argument("scenario", nargs="+",
                       help="scenario file path or bundled scenario id")

    rep_p = sub.add_parser("report", parents=[common],
                           help="summarize report files into one table")
    rep_p.add_argument("path", nargs="+",
                       help="report JSON file or directory containing them")

    sub.add_parser("calibrate", parents=[common],
                   help="measure ladder constants on the frozen coefficient "
                        "suite")
    return parser


def _strict(args) -> bool:
    return getattr(args, "strict", False)


def _out_dir(args) -> Path:
    return Path(getattr(args, "out", None) or ".")


def _cmd_run(args) -> int:
    docs, errors = [], []
    for ref in args.scenario:
        try:
            docs.append(load_scenario(ref))
        except RegprobeError as exc:
            errors.append(exc)
    if errors:
        # the lowest exit code wins; min keeps the first on a tie
        raise min(errors, key=_exit_code)
    out = _out_dir(args)
    all_pass = True
    for doc in docs:
        report = run_scenario(doc, out)
        print(f"{doc['id']}: {report['verdict']} "
              f"({out / (doc['id'] + '_report.json')})")
        all_pass = all_pass and report["verdict"] in PASS_VERDICTS
    if _strict(args) and not all_pass:
        return 1
    return 0


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _cmd_report(args) -> int:
    paths = []
    for arg in args.path:
        p = Path(arg)
        if p.is_dir():
            paths.extend(sorted(p.glob("*_report.json")))
        elif p.is_file():
            paths.append(p)
        else:
            raise ScenarioError(f"no such file or directory: {arg}")
    if not paths:
        raise ScenarioError(
            "no report files found (expected *_report.json)")

    header = ["scenario_id", "mode", "verdict", "final_n", "s_last",
              "worst_margin"]
    rows = []
    for p in paths:
        try:
            doc = json.loads(p.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or JSON
            raise ScenarioError(f"{p}: not a readable JSON report: {exc}") from exc
        check_version(doc.get("v") if isinstance(doc, dict) else None, str(p))
        row = [doc.get(k) for k in header[:3]]
        limits = doc.get("limits", {})
        if not (all(isinstance(v, str) for v in row)
                and isinstance(limits, dict)):
            raise ScenarioError(
                f"{p}: a report needs strings under {', '.join(header[:3])} "
                f"and an object under limits")
        rows.append(row + [limits.get(k) for k in header[3:]])
    rows.sort(key=lambda r: (r[2], r[0]))

    summary_path = _out_dir(args) / "summary.csv"
    _write_rows(summary_path, header,
                [["" if v is None else _fmt(v) for v in row] for row in rows])

    widths = [max(len(header[i]), max((len(_fmt(r[i])) for r in rows),
                                      default=0))
              for i in range(len(header))]
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    for row in rows:
        print("  ".join(_fmt(v).ljust(widths[i]) for i, v in enumerate(row)))
    print(f"summary written to {summary_path}")

    if _strict(args) and any(r[2] not in PASS_VERDICTS for r in rows):
        return 1
    return 0


def _cmd_calibrate(args) -> int:
    constants = calibrate_constants()
    text = json.dumps(sanitize(constants), indent=2)
    print(text)
    if getattr(args, "out", None):
        atomic_write_text(Path(args.out) / "calibration.json", text + "\n")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "report":
            return _cmd_report(args)
        return _cmd_calibrate(args)
    except RegprobeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
