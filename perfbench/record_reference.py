"""Record ``reference.json``: the seed-free report limits of every
benchmark scenario at the current commit.

    python3 perfbench/record_reference.py

Every benchmark run checks each report's limits against this file.
Re-record it only in a change that means to alter the reports, and say so
in that change's description.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

from workloads import WORKLOADS, make_documents, reference_limits

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from regprobe import cli

    work = ROOT / ".perfbench_out" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reference = {}
    try:
        for name, scenarios in WORKLOADS.items():
            paths = []
            for doc in make_documents(ROOT, scenarios, seed=0):
                path = work / f"{doc['id']}.json"
                path.write_text(json.dumps(doc))
                paths.append(str(path))
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", *paths, "--out", str(work / "out")])
            if code != 0:
                print(f"{name}: regprobe run exited {code}",
                      file=sys.stderr)
                return 1
            for sc in scenarios:
                report = json.loads((work / "out" / f"{sc.id}_report.json")
                                    .read_text())
                reference[sc.id] = reference_limits(report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
