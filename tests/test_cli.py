"""Command line and scenario plumbing tests.

These drive the real entry point through main() with temp directories,
checking artifact layout, exit codes, determinism, and the report table.
Numerical behavior of the probes themselves is covered elsewhere; here the
bundled zero_case scenario doubles as a fast end-to-end fixture.
"""
from __future__ import annotations

import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import weakref
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from regprobe import campanato, cli, elliptic, modulus, scenarios
from regprobe.cli import main
from regprobe.errors import ScenarioError, SolverError
from regprobe.scenarios import (
    bundled_names,
    load_scenario,
    run_scenario,
    validate_scenario,
)
from regprobe.semilinear import PicardConfig

GOLDEN = "tests/golden/zero_case_report.json"


def write_scenario(tmp_path, name="custom", **overrides):
    doc = {
        "v": 1,
        "id": name,
        "mode": "c1",
        "problem": "zero_case",
        "iteration": {"K": 2},
    }
    doc.update(overrides)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


def test_bundled_names_cover_the_shipped_set():
    names = bundled_names()
    for expected in ("zero_case", "drift_c1", "cubic_c11", "nondini_c11",
                     "drift_c1_numeric", "lemma25_sweep",
                     "solver_validation", "modulus_check"):
        assert expected in names


# Document keys that no bundled scenario or benchmark document sets, each
# kept for a reason.  Any other such key is a setting nobody uses.  A probe
# key is named as its block names it, a key of another mode after the mode.
ALLOWED = {}


ROOT = Path(__file__).resolve().parents[1]


def _workloads(monkeypatch):
    """The benchmark's perfbench/workloads.py module."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def _benchmark_documents(monkeypatch) -> list:
    """The documents perfbench/workloads.py generates, for every workload."""
    workloads = _workloads(monkeypatch)
    return [doc for group in workloads.WORKLOADS.values()
            for doc in workloads.make_documents(ROOT, group, 1)]


def _set_keys(doc: dict) -> set:
    """The top-level keys of ``doc``, and block.key for its object values."""
    keys = set(doc)
    for block, value in doc.items():
        if isinstance(value, dict):
            keys |= {f"{block}.{key}" for key in value}
    return keys


def test_every_probe_setting_is_set_by_some_document(monkeypatch):
    settable = {"iteration.K", "grid.cells"}
    settable |= {f"picard.{f.name}" for f in fields(PicardConfig)}
    docs = [load_scenario(name) for name in bundled_names()]
    docs += _benchmark_documents(monkeypatch)
    # the keys every mode takes, unprefixed
    settable |= scenarios._COMMON_KEYS
    set_keys = {key for doc in docs for key in doc}
    for mode, (keys, _) in scenarios._MODES.items():
        prefix = "" if mode in ("c1", "c11") else f"{mode}."
        settable |= {prefix + key for key in keys}
        set_keys |= {prefix + key for doc in docs if doc["mode"] == mode
                     for key in _set_keys(doc)}
    unset = settable - set_keys - set(ALLOWED)
    assert not unset, f"settings no document sets: {sorted(unset)}"
    stale = set(ALLOWED) - (settable - set_keys)
    assert not stale, f"ALLOWED names keys that are set or gone: {sorted(stale)}"


@pytest.mark.parametrize("workload",
                         ["probe_ladder", "validation_suite", "numeric_picard"])
def test_benchmark_reports_match_the_reference(tmp_path, monkeypatch,
                                               workload):
    # the golden zero_case report is all zeros; these limits are not, and
    # every workload's reports are checked as the benchmark checks them
    workloads = _workloads(monkeypatch)
    reference = json.loads(
        (ROOT / "perfbench" / "reference.json").read_text())
    group = workloads.WORKLOADS[workload]
    paths = []
    for doc in workloads.make_documents(ROOT, group, 1):
        paths.append(tmp_path / f"{doc['id']}.json")
        paths[-1].write_text(json.dumps(doc))
    assert main(["run", *map(str, paths), "--out", str(tmp_path)]) == 0
    for scenario in group:
        report = json.loads(
            (tmp_path / f"{scenario.id}_report.json").read_text())
        assert workloads.check_report(scenario, report, reference,
                                      workloads.drift_gradient()) == []


def test_benchmark_span_wrappers_install_and_change_no_artifact(tmp_path):
    # perfbench/run.py --trace 1 wraps the names spans.install patches; a
    # name the package drops fails it, so run its install here, traced in a
    # fresh process, against an untraced run; the numeric scenario reaches
    # the Picard and bicubic sampler wrappers
    names = ["zero_case", "drift_c1", "cubic_c11", "nondini_c11"]
    scenarios = [*names, "drift_c1_numeric"]
    code = (
        "import sys\n"
        "import spans\n"
        "from regprobe import cli\n"
        "from regprobe.manufactured import get_problem\n"
        "tracer = spans.Tracer()\n"
        f"spans.install(tracer, [get_problem(n) for n in {names!r}])\n"
        "status = cli.main(['run', *sys.argv[1:]])\n"
        "print(sorted(m for s, m in tracer.stats if m.endswith('.calls')))\n"
        "print(tracer.stats['drift_c1_numeric', "
        "'semilinear.picard.outer_steps'])\n"
        "sys.exit(status)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    traced = subprocess.run(
        [sys.executable, "-c", code, *scenarios,
         "--out", str(tmp_path / "traced")],
        env=env, capture_output=True, text=True)
    assert traced.returncode == 0, traced.stderr
    calls, outer_steps = traced.stdout.splitlines()[-2:]
    for layer in ("campanato.ladder", "campanato.ball_sup",
                  "campanato.approximate", "campanato.taylor_fit",
                  "elliptic.factor", "manufactured.u", "semilinear.picard",
                  "grid.sample"):
        assert f"'{layer}.calls'" in calls, layer
    report = json.loads(
        (tmp_path / "traced" / "drift_c1_numeric_report.json").read_text())
    assert float(outer_steps) == len(report["flags"]["picard"]["increments"])
    assert main(["run", *scenarios, "--out", str(tmp_path / "plain")]) == 0
    written = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert sorted(p.name for p in (tmp_path / "traced").iterdir()) == written
    for name in written:
        assert ((tmp_path / "traced" / name).read_bytes()
                == (tmp_path / "plain" / name).read_bytes()), name


def test_numeric_artifacts_do_not_depend_on_the_blas_thread_count(
        tmp_path, monkeypatch):
    # the secant Picard step reduces over the grid; a BLAS dot product
    # there sums in an order that follows the thread count
    workloads = _workloads(monkeypatch)
    group = [sc for sc in workloads.WORKLOADS["numeric_picard"]
             if sc.id == "nondini_c11_numeric"]
    [doc] = workloads.make_documents(ROOT, group, 0)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    artifacts = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "regprobe.cli", "run",
                        str(path), "--out", str(out)],
                       env=env, check=True, capture_output=True)
        artifacts.append([(out / f"{doc['id']}{suffix}").read_bytes()
                          for suffix in ("_trace.csv", "_report.json")])
    assert artifacts[0] == artifacts[1]


def test_numeric_scenarios_build_their_grid_once_per_process(
        tmp_path, monkeypatch, count_grid_builds):
    # both 128-cell documents read one grid, and a second run builds none
    workloads = _workloads(monkeypatch)
    docs = workloads.make_documents(
        ROOT, workloads.WORKLOADS["numeric_picard"], 0)
    paths = []
    for doc in docs:
        paths.append(tmp_path / f"{doc['id']}.json")
        paths[-1].write_text(json.dumps(doc))
    artifacts = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["run", *map(str, paths), "--out", str(out)]) == 0
        assert sorted(count_grid_builds) == [(0.75, 0.75 / 32),
                                             (1.0, 1.0 / 128)]
        artifacts.append({path.name: path.read_bytes()
                          for path in sorted(out.iterdir())})
    assert len(artifacts[0]) == 2 * len(docs)
    assert artifacts[0] == artifacts[1]


def test_run_bundled_zero_case(tmp_path, capsys):
    code = main(["run", "zero_case", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "zero_case: C1_certified" in out
    report = json.loads((tmp_path / "zero_case_report.json").read_text())
    assert report["verdict"] == "C1_certified"
    with (tmp_path / "zero_case_trace.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7
    assert all(float(r["M_k"]) <= 1e-8 for r in rows)


def test_run_matches_golden_report(tmp_path):
    assert main(["run", "zero_case", "--out", str(tmp_path)]) == 0
    fresh = json.loads((tmp_path / "zero_case_report.json").read_text())
    golden = json.loads(Path(GOLDEN).read_text())
    assert fresh == golden


def test_rerun_bit_reproduces_traces(tmp_path):
    # drift_c1's per-rung measurements are nonzero, zero_case's mostly zero;
    # the first run builds the shared comparison operator, the second reuses
    # it on both the c1 and the c11 path
    names = ("zero_case", "drift_c1", "cubic_c11", "nondini_c11")
    campanato._comparison_build.cache_clear()
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["run", *names, "--out", str(out)]) == 0
    for name in names:
        for artifact in (f"{name}_trace.csv", f"{name}_report.json"):
            assert (a / artifact).read_bytes() == (b / artifact).read_bytes()
    assert not list(a.glob("*.tmp"))


def test_unknown_problem_exits_3_without_outputs(tmp_path, capsys):
    path = write_scenario(tmp_path, problem="not_a_problem")
    out_dir = tmp_path / "out"
    code = main(["run", str(path), "--out", str(out_dir)])
    assert code == 3
    assert "not_a_problem" in capsys.readouterr().err
    assert not out_dir.exists()


def test_unknown_bundled_id_exits_3(capsys):
    assert main(["run", "no_such_scenario"]) == 3
    assert "bundled" in capsys.readouterr().err


def test_invalid_json_exits_2_with_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"v": 1,\n  "id": oops}')
    assert main(["run", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


# the JSON parser gives up near a depth of 1000, so 100000 fails whatever
# the recursion limit
@pytest.mark.parametrize("text, message", [
    ("[" * 100000, "nested too deeply"),
    ("[]", "document must be a JSON object"),
], ids=["nested", "array"])
def test_json_that_holds_no_object_exits_2_naming_the_file(tmp_path, capsys,
                                                           text, message):
    path = tmp_path / "odd.json"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and message in err


def test_unknown_key_exits_2(tmp_path, capsys):
    path = write_scenario(tmp_path, surprise=True)
    assert main(["run", str(path)]) == 2
    assert "surprise" in capsys.readouterr().err


def test_config_error_outranks_unknown_id_in_either_order(tmp_path, capsys):
    bad = str(write_scenario(tmp_path, surprise=True))
    out_dir = tmp_path / "out"
    for refs in (["no_such_scenario", bad], [bad, "no_such_scenario"]):
        assert main(["run", *refs, "--out", str(out_dir)]) == 2
        assert "surprise" in capsys.readouterr().err
    assert not out_dir.exists()


def test_schema_version_mismatch_exits_2(tmp_path, capsys):
    path = write_scenario(tmp_path, v=99)
    assert main(["run", str(path)]) == 2
    assert "schema version 99" in capsys.readouterr().err
    doc = json.loads(path.read_text())
    del doc["v"]
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    assert "missing schema version key 'v'" in capsys.readouterr().err


def test_bad_iteration_block_exits_2(tmp_path, capsys):
    for iteration in ({"lam": 0.3}, {"lam": 0.05}, {"K": 2.5}, {"K": True}, {"K": 240},
                      {"K": 500}, {"cert_tol": float("inf")},
                      {"solver_rtol": -1.0}, {"solver_rtol": 0.0},
                      {"beta": -5.0}, {"beta": 1.0}, {"fit_radius": 0.2}):
        path = write_scenario(tmp_path, iteration=iteration)
        assert main(["run", str(path)]) == 2
        assert "iteration" in capsys.readouterr().err
    path = write_scenario(tmp_path, seed=True)
    assert main(["run", str(path)]) == 2
    assert "seed" in capsys.readouterr().err


# The suite modes' cases name keys those modes do not have, so they exit on
# the unknown key.
_BAD_TOP_LEVEL = {
    "lemma25_sweep-solver_rtol--1.0": ("lemma25_sweep", "solver_rtol", -1.0),
    "lemma25_sweep-cells-x": ("lemma25_sweep", "cells", "x"),
    "lemma25_sweep-min_slope-x": ("lemma25_sweep", "min_slope", "x"),
    "lemma25_sweep-cells-8": ("lemma25_sweep", "cells", 8),
    "solver_validation-resolutions-strings": (
        "solver_validation", "resolutions", ["a", "b", "c"]),
    "solver_validation-resolutions-not_geometric": (
        "solver_validation", "resolutions", [0.05, 0.04, 0.01]),
    "solver_validation-resolutions-growing": (
        "solver_validation", "resolutions", [0.01, 0.02, 0.04]),
    "solver_validation-resolutions-too_coarse": (
        "solver_validation", "resolutions", [0.25, 0.125, 0.0625]),
    "solver_validation-solver_rtol-0.0": ("solver_validation", "solver_rtol",
                                          0.0),
    "solver_validation-operators-True": ("solver_validation", "operators",
                                         True),
    "solver_validation-seed--1": ("solver_validation", "seed", -1),
    "modulus_check-lams-above_one": ("modulus_check", "lams", [2.0]),
    "modulus_check-lams-x": ("modulus_check", "lams", "x"),
    "modulus_check-k0_max-x": ("modulus_check", "k0_max", "x"),
    "modulus_check-families-dini_not_bool": (
        "modulus_check", "families", [{"id": "zero", "dini": "yes"}]),
    "modulus_check-families-not_a_list": ("modulus_check", "families",
                                          "zero"),
    "modulus_check-families-empty": ("modulus_check", "families", []),
    "modulus_check-families-entry_not_an_object": (
        "modulus_check", "families", ["zero"]),
    "modulus_check-families-no_id": ("modulus_check", "families",
                                     [{"dini": True}]),
    "modulus_check-families-unknown_key": (
        "modulus_check", "families",
        [{"id": "power:0.5", "dini": True, "dinni": False}]),
    "modulus_check-families-id_5": ("modulus_check", "families",
                                    [{"id": 5, "dini": True}]),
    "modulus_check-families-id_list": ("modulus_check", "families",
                                       [{"id": ["power:0.5"], "dini": True}]),
    "c1-problem-list": ("c1", "problem", []),
    "c1-description-list": ("c1", "description", ["a"]),
    "modulus_check-description-null": ("modulus_check", "description", None),
    "c1-output_dir-5": ("c1", "output_dir", 5),
    "c1-output_dir-a\0b": ("c1", "output_dir", "a\0b"),
    "c1-id-a\0b": ("c1", "id", "a\0b"),
    "v-true": ("c1", "v", True),
    "v-1.0": ("c1", "v", 1.0),
}


@pytest.mark.parametrize("mode, key, value", list(_BAD_TOP_LEVEL.values()),
                         ids=list(_BAD_TOP_LEVEL))
def test_bad_top_level_key_exits_2(tmp_path, capsys, mode, key, value):
    doc = {"v": 1, "id": "custom", "mode": mode, key: value}
    if mode == "c1":
        doc.setdefault("problem", "zero_case")
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def _tree(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


@pytest.mark.parametrize("ident", [
    "../escaped", "sub/escaped", "a\\b", "..\\escaped", ".", ".."])
def test_path_like_id_exits_2_and_writes_nothing(tmp_path, capsys, ident):
    # artifacts are named after the id inside the output directory, so an
    # id that names another directory would write outside it
    work = tmp_path / "work"
    work.mkdir()
    path = write_scenario(work, name="custom", id=ident, iteration={"K": 1})
    before = _tree(tmp_path)
    assert main(["run", str(path), "--out", str(work / "out")]) == 2
    assert "'id'" in capsys.readouterr().err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("ident", ["../escaped", "a/b", "/abs", "a\\b", ".",
                                   ".."])
def test_validate_scenario_rejects_path_like_id(tmp_path, ident):
    doc = {"v": 1, "id": ident, "mode": "c1", "problem": "zero_case",
           "iteration": {"K": 1}}
    with pytest.raises(ScenarioError, match="'id'"):
        validate_scenario(doc)
    assert _tree(tmp_path) == []
    # an id may still hold dots and other punctuation
    validate_scenario(dict(doc, id="..a.b-c_d"))


def run_one_family(tmp_path, monkeypatch, row):
    """Run modulus_check with ``row`` as its only family; return the report
    and the trace rows."""
    monkeypatch.setattr(scenarios, "_FAMILIES", (row,))
    out = tmp_path / "out"
    assert main(["run", "modulus_check", "--out", str(out)]) == 0
    report = json.loads((out / "modulus_check_report.json").read_text())
    with open(out / "modulus_check_trace.csv", newline="") as fh:
        return report, list(csv.DictReader(fh))


def test_modulus_check_just_above_the_dini_threshold(tmp_path, monkeypatch):
    # the integral of (ln 1/t)^-1.01 / t converges, so the tail sums do too
    report, rows = run_one_family(
        tmp_path, monkeypatch, ("log_power:1.01", modulus.log_power(1.01), True))
    assert report["verdict"] == "pass"
    tails = [row for row in rows if row["kind"] == "tail_sum"]
    # the family lives below r = 1/e, so each of the three ratios starts
    # at k0 = 2 and runs to k0 = 6
    assert report["limits"]["combos_skipped_out_of_domain"] == 3
    assert len(tails) == 15
    assert all(math.isfinite(float(row["value"])) for row in tails)


def test_modulus_check_with_a_wrong_dini_flag_fails(tmp_path, monkeypatch):
    # 1/ln(1/t) is not Dini, so a row that declares it Dini is wrong
    report, rows = run_one_family(
        tmp_path, monkeypatch, ("log_power:1.0", modulus.log_power(1.0), True))
    assert report["verdict"] == "failed"
    oks = [row["ok"] for row in rows]
    assert oks[0] == "0"  # the invariants row: the Dini class disagrees
    assert "1" not in oks  # and no tail sum of a non-Dini family is finite
    assert main(["--strict", "run", "modulus_check",
                 "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("ref", [
    "nope", "{tmp}/missing.json", "{tmp}", "{tmp}/" + "x" * 5000,
    "{tmp}/custom.json",
], ids=["unknown", "missing", "directory", "too_long", "problem"])
def test_registry_exit_codes(tmp_path, capsys, ref):
    """An unknown bundled id or problem, or a scenario file that is missing
    or cannot be read, exits 3."""
    write_scenario(tmp_path, problem="nope")
    out = tmp_path / "out"
    assert main(["run", ref.format(tmp=tmp_path), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_unreadable_scenario_files(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(json.dumps({"v": 1}).encode("utf-16"))
    assert main(["run", str(path)]) == 2
    assert "UTF-8" in capsys.readouterr().err
    assert main(["run", "x" * 5000]) == 3
    assert "cannot read scenario" in capsys.readouterr().err


def test_usage_error_exits_2():
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_strict_flags_failed_verdict(tmp_path):
    assert main(["run", "nondini_c11", "--out", str(tmp_path)]) == 0
    assert main(["--strict", "run", "nondini_c11",
                 "--out", str(tmp_path)]) == 1


def test_report_table_sorted_by_verdict_then_id(tmp_path, capsys):
    assert main(["run", "zero_case", "nondini_c11", "modulus_check",
                 "--out", str(tmp_path)]) == 0
    code = main(["report", str(tmp_path), "--out", str(tmp_path)])
    assert code == 0
    table = capsys.readouterr().out.splitlines()
    with (tmp_path / "summary.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["scenario_id"] for r in rows] == ["zero_case", "nondini_c11",
                                                "modulus_check"]
    assert rows[0]["verdict"] == "C1_certified"
    assert rows[1]["verdict"] == "failed"
    assert rows[0]["worst_margin"] == "inf"
    # a suite report has no ladder limits: empty cells, "-" in the table
    assert rows[2]["verdict"] == "pass"
    assert [rows[2][k] for k in ("final_n", "s_last",
                                 "worst_margin")] == [""] * 3
    assert table[-2].split() == ["modulus_check", "modulus_check", "pass",
                                 "-", "-", "-"]
    assert main(["--strict", "report", str(tmp_path),
                 "--out", str(tmp_path)]) == 1


def test_report_summary_quotes_an_id_with_a_comma(tmp_path, capsys):
    path = write_scenario(tmp_path, name="a,b")
    assert main(["run", str(path), "--out", str(tmp_path)]) == 0
    assert main(["report", str(tmp_path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    with (tmp_path / "summary.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert None not in rows[0]  # no field beyond the header's six
    assert rows[0]["scenario_id"] == "a,b"
    assert rows[0]["verdict"] == "C1_certified"


def test_report_accepts_single_file(tmp_path, capsys):
    assert main(["run", "zero_case", "--out", str(tmp_path)]) == 0
    code = main(["report", str(tmp_path / "zero_case_report.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    assert "C1_certified" in capsys.readouterr().out


def test_report_empty_directory_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", str(empty)]) == 2
    assert "no report files" in capsys.readouterr().err


def test_report_missing_path_exits_2(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nosuch")]) == 2
    assert "no such file or directory" in capsys.readouterr().err


def test_report_rejects_schema_mismatch(tmp_path, capsys):
    bad = tmp_path / "old_report.json"
    bad.write_text(json.dumps({"v": 0, "scenario_id": "x", "mode": "c1",
                               "verdict": "pass"}))
    assert main(["report", str(bad)]) == 2
    assert "schema version" in capsys.readouterr().err


def _report_without_ids(folder):
    (folder / "bad_report.json").write_text('{"v": 1}')


def _report_not_utf8(folder):
    (folder / "bad_report.json").write_bytes(b'{"v": 1, "id": "\xff"}')


def _report_with_true_version(folder):
    (folder / "bad_report.json").write_text(json.dumps(
        {"v": True, "scenario_id": "x", "mode": "c1", "verdict": "pass"}))


def _report_nested_too_deeply(folder):
    (folder / "bad_report.json").write_text("[" * 100000)


def _report_directory(folder):
    (folder / "bad_report.json").mkdir()


def _report_with_list_limits(folder):
    (folder / "bad_report.json").write_text(json.dumps(
        {"v": 1, "scenario_id": "x", "mode": "c1", "verdict": "pass",
         "limits": [1]}))


@pytest.mark.parametrize("make", [_report_without_ids, _report_not_utf8,
                                  _report_directory, _report_with_list_limits,
                                  _report_with_true_version,
                                  _report_nested_too_deeply],
                         ids=["no_ids", "not_utf8", "directory", "list_limits",
                              "v_true", "nested"])
def test_malformed_report_exits_2_naming_it(tmp_path, capsys, make):
    make(tmp_path)
    assert main(["report", str(tmp_path), "--out", str(tmp_path)]) == 2
    assert "bad_report.json" in capsys.readouterr().err
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("argv", [
    ["run", "zero_case", "--out", "{file}"],
    ["run", "zero_case", "--out", "{file}/sub"],
    ["report", "{reports}", "--out", "{file}"],
    ["run", "zero_case", "--out", "{file}\0"],
], ids=["run_out_file", "run_out_under_file", "report_out_file",
        "run_out_nul"])
def test_unwritable_output_exits_2_naming_it(tmp_path, capsys, argv):
    reports = tmp_path / "reports"
    assert main(["run", "zero_case", "--out", str(reports)]) == 0
    afile = tmp_path / "afile"
    afile.write_text("not a directory")
    capsys.readouterr()
    argv = [a.format(file=afile, reports=reports) for a in argv]
    assert main(argv) == 2
    assert f"cannot write {afile}" in capsys.readouterr().err
    assert afile.read_text() == "not a directory"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "reports"]


def test_out_of_memory_exits_4(tmp_path, capsys, monkeypatch):
    def exhausted(cells):
        raise MemoryError("Unable to allocate 298. GiB for an array")

    monkeypatch.setattr(campanato, "_sup_plan", exhausted)
    assert main(["run", "zero_case", "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "error: not enough memory: Unable to allocate" in err
    assert "Traceback" not in err


# Settings a document can no longer hold: the problem declares nu, lambda1
# and tau, smallness is only reported, the ladder's resolutions (which the
# sweep shares), Picard's damping and step cap and the check suites are
# fixed, and artifacts land where --out puts them.  Each value here was in
# range when the key existed, so only the key itself is rejected.  A block
# names a probe document's block, a mode a top-level key of a document of
# that mode.
@pytest.mark.parametrize("block, key, value", [
    ("iteration", "nu", 0.0), ("iteration", "lambda1", 0.0),
    ("iteration", "tau", 0.0), ("iteration", "enforce_smallness", "warn"),
    ("iteration", "sub_cells", 32), ("iteration", "sup_cells", 48),
    ("picard", "damping", 0.5), ("picard", "max_outer", 60),
    ("lemma25_sweep", "sub_cells", 32),
    pytest.param("lemma25_sweep", "epsilons", [0.02, 0.05, 0.1, 0.2],
                 id="lemma25_sweep-epsilons-list"),
    ("lemma25_sweep", "cells", 48), ("lemma25_sweep", "min_slope", 0.15),
    pytest.param("solver_validation", "resolutions", [1 / 32, 1 / 64, 1 / 128],
                 id="solver_validation-resolutions-list"),
    ("solver_validation", "operators", 20),
    pytest.param("modulus_check", "lams", [0.125, 0.2, 0.25],
                 id="modulus_check-lams-list"),
    ("modulus_check", "k0_max", 6),
    pytest.param("modulus_check", "families",
                 [{"id": "power:0.5", "dini": True}],
                 id="modulus_check-families-list"),
    ("c1", "output_dir", "out"),
])
def test_removed_settings_exit_2_naming_them(tmp_path, capsys, monkeypatch,
                                             block, key, value):
    def unreachable(*args):
        raise AssertionError("scenario ran")

    monkeypatch.setattr(cli, "run_scenario", unreachable)
    if block in scenarios.MODES:
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(
            {"v": 1, "id": "custom", "mode": block, key: value}))
        message = f"unknown key {key!r} for mode {block!r}"
    else:
        path = write_scenario(tmp_path, **{block: {key: value}})
        message = f"bad {block} block"
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and repr(key) in err
    assert not out.exists()


@pytest.fixture(scope="module")
def nondini_at_22(tmp_path_factory):
    """The report of the bundled nondini_c11 negative control at K = 22."""
    doc = dict(load_scenario("nondini_c11"), iteration={"K": 22})
    return run_scenario(doc, tmp_path_factory.mktemp("nondini_at_22"))


# The scale ratio, the calibrated constants and the verdict thresholds are
# fixed.  "forged" loosens the certificate tolerance a hundredfold on the
# negative control; each other document restates the value its report
# echoes.  Every one exits 2 before anything runs, and the negative
# control itself is never certified.
@pytest.mark.parametrize("key, value", [
    pytest.param("cert_tol", 0.1, id="forged"),
    *(pytest.param(key, None, id=f"restated-{key}")
      for key in ("lam", "C0", "C1", "C2", "alpha", "cert_tol", "safety")),
])
def test_iteration_holds_only_K(tmp_path, capsys, monkeypatch, nondini_at_22,
                                key, value):
    assert nondini_at_22["verdict"] not in cli.PASS_VERDICTS
    echoed = nondini_at_22["config"]["iteration"]
    doc = {"v": 1, "id": "forged", "mode": "c11", "problem": "nondini_c11",
           "iteration": {"K": 22, key: echoed[key] if value is None else value}}

    def unreachable(*args):
        raise AssertionError("scenario ran")

    monkeypatch.setattr(cli, "run_scenario", unreachable)
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), "--strict"]) == 2
    err = capsys.readouterr().err
    assert "bad iteration block" in err and repr(key) in err
    assert not out.exists()


def test_check_modulus_subcommand(tmp_path, capsys):
    code = main(["run", "modulus_check", "--out", str(tmp_path)])
    assert code == 0
    assert "modulus_check: pass" in capsys.readouterr().out
    assert (tmp_path / "modulus_check_report.json").exists()


# The check suites are bundled scenarios, and only `run` runs them.
@pytest.mark.parametrize("command", ["check-modulus", "validate-solver"])
def test_removed_subcommands_exit_2(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--out", str(out)]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not out.exists()


def test_solver_validation_factors_each_operator_once(tmp_path, monkeypatch,
                                                      count_factorizations):
    monkeypatch.setattr(scenarios, "_OPERATORS", 2)
    assert main(["run", "solver_validation", "--out", str(tmp_path)]) == 0
    # 9 convergence solves, 2 exact-quadratic solves, and per operator one
    # factor on each of the two grids: the coarse one serves both its
    # maximum-principle and its implied-C solve.
    assert len(count_factorizations) == 15
    report = json.loads(
        (tmp_path / "solver_validation_report.json").read_text())
    assert report["verdict"] == "pass"
    assert report["limits"]["operators"] == 2
    assert report["flags"]["seed"] == 20260822


# The randomized operators run on scenarios._WORKERS threads; one worker
# is the serial order, and the artifacts must not tell the two apart.
def test_solver_validation_threads_change_no_byte(tmp_path, monkeypatch):
    monkeypatch.setattr(scenarios, "_OPERATORS", 4)
    # a convergence study without its 128-cell grid
    monkeypatch.setattr(scenarios, "_RESOLUTIONS", (1 / 32, 1 / 48, 1 / 64))
    artifacts = []
    for workers in (scenarios._WORKERS, 1):
        monkeypatch.setattr(scenarios, "_WORKERS", workers)
        out = tmp_path / str(workers)
        assert main(["run", "solver_validation", "--out", str(out)]) == 0
        artifacts.append({path.name: path.read_bytes()
                          for path in sorted(out.iterdir())})
    assert sorted(artifacts[0]) == ["solver_validation_report.json",
                                    "solver_validation_trace.csv"]
    assert artifacts[0] == artifacts[1]


def test_solver_validation_threads_under_stress(tmp_path, monkeypatch):
    # more workers than cores and a short switch interval: a lost or
    # misplaced result would change a byte
    monkeypatch.setattr(scenarios, "_OPERATORS", 6)
    monkeypatch.setattr(scenarios, "_RESOLUTIONS", (1 / 16, 1 / 24, 1 / 36))
    interval = sys.getswitchinterval()
    artifacts = []
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 4):
            monkeypatch.setattr(scenarios, "_WORKERS", workers)
            out = tmp_path / str(workers)
            assert main(["run", "solver_validation", "--out", str(out)]) == 0
            artifacts.append({path.name: path.read_bytes()
                              for path in sorted(out.iterdir())})
    finally:
        sys.setswitchinterval(interval)
    assert len(artifacts[0]) == 2 and artifacts[0] == artifacts[1]


def test_solver_validation_raises_the_first_failed_operator(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(scenarios, "_RESOLUTIONS", (1 / 16, 1 / 24, 1 / 36))
    # each operator's assemblies map its operators (kept alive, so that no
    # id is reused) to the operator's index
    draws, index = [], {}
    draw, assemble = scenarios._random_operator, scenarios.assemble

    def tagged_draw(rng):
        drawn = draw(rng)
        draws.append(drawn[0])
        return drawn

    def tagged_assemble(field, grid):
        op = assemble(field, grid)
        for i, drawn in enumerate(draws):
            if drawn is field:
                index[id(op)] = (op, i)
        return op

    started = set()
    solve = scenarios.solve_dirichlet

    def failing_solve(op, rhs, boundary):
        if id(op) not in index:
            return solve(op, rhs, boundary)
        i = index[id(op)][1]
        started.add(i)
        if i in (1, 3):
            raise SolverError(f"op{i:02d} failed on purpose")
        time.sleep(0.05)
        return solve(op, rhs, boundary)

    monkeypatch.setattr(scenarios, "_random_operator", tagged_draw)
    monkeypatch.setattr(scenarios, "assemble", tagged_assemble)
    monkeypatch.setattr(scenarios, "solve_dirichlet", failing_solve)
    assert main(["run", "solver_validation", "--out", str(tmp_path)]) == 4
    assert "error: op01 failed on purpose" in capsys.readouterr().err
    # op00 still solves when op01 fails; no operator after the one the
    # freed worker may have taken starts, op03 included
    assert {0, 1} <= started <= {0, 1, 2}
    assert len(draws) == scenarios._OPERATORS
    assert not list(tmp_path.iterdir())


# The finest grid's 7-point factor fills about twice as much as its 5-point
# ones, so no middle-grid operator is live beside it, and no two
# finest-grid operators are live at once.
def test_solver_validation_keeps_the_largest_factor_apart(tmp_path,
                                                          monkeypatch):
    monkeypatch.setattr(scenarios, "_OPERATORS", 4)
    monkeypatch.setattr(scenarios, "_RESOLUTIONS", (1 / 16, 1 / 24, 1 / 36))
    _, middle, finest = scenarios._RESOLUTIONS
    # at each assembly, the (h, 7-point) of every operator then alive
    live, snapshots = {}, []
    assemble = elliptic.assemble

    def tracked(field, grid):
        op = assemble(field, grid)
        key = object()
        live[key] = (grid.h, op.red_black is None)
        snapshots.append(list(live.values()))
        weakref.finalize(op, live.pop, key)
        return op

    monkeypatch.setattr(elliptic, "assemble", tracked)
    monkeypatch.setattr(scenarios, "assemble", tracked)
    assert main(["run", "solver_validation", "--out", str(tmp_path)]) == 0
    # 4 studies on 11 grids and 4 operators on 2 each
    assert len(snapshots) == 19 and not live
    assert any((finest, True) in snapshot for snapshot in snapshots)
    for snapshot in snapshots:
        spacings = [h for h, _ in snapshot]
        assert spacings.count(finest) <= 1, snapshot
        assert (finest, True) not in snapshot or middle not in spacings, \
            snapshot


def test_solver_validation_raises_the_first_failed_check(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(scenarios, "_RESOLUTIONS", (1 / 16, 1 / 24, 1 / 36))
    coarse = scenarios._RESOLUTIONS[0]
    drift = scenarios._SMOOTH_CASES[0][1]
    draws, started = [], []
    draw, error = scenarios._random_operator, scenarios.sup_error
    assemble = scenarios.assemble

    def tagged_draw(rng):
        drawn = draw(rng)
        draws.append(drawn[0])
        return drawn

    def failing_error(field, u_exact, rhs_fn, grid):
        if field is drift and grid.h == coarse:
            time.sleep(0.2)  # op00 fails first
            raise SolverError("drift_exponential failed on purpose")
        return error(field, u_exact, rhs_fn, grid)

    def failing_assemble(field, grid):
        for i, drawn in enumerate(draws):
            if drawn is field:
                started.append((i, grid.h))
                if (i, grid.h) == (0, coarse):
                    raise SolverError("op00 failed on purpose")
        return assemble(field, grid)

    monkeypatch.setattr(scenarios, "_random_operator", tagged_draw)
    monkeypatch.setattr(scenarios, "sup_error", failing_error)
    monkeypatch.setattr(scenarios, "assemble", failing_assemble)
    assert main(["run", "solver_validation", "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    # the study comes first in the checks' order; after op00 failed no
    # queued check started, though the study was still solving
    assert "error: drift_exponential failed on purpose" in err
    assert "op00" not in err
    assert started == [(0, coarse)]
    assert not list(tmp_path.iterdir())


def test_a_probe_that_fails_after_its_ladder_writes_nothing(
        tmp_path, monkeypatch, capsys):
    # a runner only computes: the trace is written with the report, once
    # the runner has returned
    def failing(trace):
        raise SolverError("limit failed on purpose")

    monkeypatch.setattr(scenarios, "limit_coeffs", failing)
    assert main(["run", "zero_case", "--out", str(tmp_path)]) == 4
    assert "limit failed on purpose" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_calibrate_subcommand(tmp_path, capsys, monkeypatch, calibration):
    monkeypatch.setattr(cli, "calibrate_constants", lambda: calibration[0])
    code = main(["calibrate", "--out", str(tmp_path)])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    stored = json.loads((tmp_path / "calibration.json").read_text())
    assert printed == stored
    assert 0.0 < stored["alpha"] <= 1.0 / 3.0


# The scale ratio and the resolution are fixed: calibrate has no --lam or
# --cells, and every value they once took, in range or not, is refused.
@pytest.mark.parametrize("flag, value", [
    ("--lam", "0.2"), ("--lam", "0.9"), ("--lam", "0.25"), ("--lam", "0.3"), ("--lam", "0"),
    ("--lam", "-1"), ("--lam", "nan"), ("--lam", "0.05"), ("--cells", "0"),
    ("--cells", "15"), ("--cells", "818"),
    pytest.param("--cells", "1" + "0" * 400, id="--cells-401_digits"),
])
def test_calibrate_rejects_flags_before_solving(capsys, monkeypatch, flag,
                                                value):
    def unreachable():
        raise AssertionError("calibration ran")

    monkeypatch.setattr(cli, "calibrate_constants", unreachable)
    assert main(["calibrate", flag, value]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_run_scenario_api_reports_seed(tmp_path):
    doc = load_scenario("zero_case")
    report = run_scenario(doc, tmp_path)
    assert report["flags"]["seed"] == doc["seed"]
    assert report["config"]["id"] == "zero_case"


def test_numeric_scenario_reports_truncation(tmp_path):
    assert main(["run", "drift_c1_numeric", "--out", str(tmp_path)]) == 0
    report = json.loads(
        (tmp_path / "drift_c1_numeric_report.json").read_text())
    assert report["verdict"] == "inconclusive"
    assert report["flags"]["data_mode"] == "numeric"
    assert report["flags"]["scale_floor_k"] == 1
    assert report["limits"]["worst_margin"] is None


def test_bad_picard_block_exits_2(tmp_path, capsys):
    # 10**400 has no float, so the finiteness check overflows
    for picard in ({"tol": 1e-12}, {"tol": "x"}, {"tol": True},
                   {"tol": 10 ** 400}, {"rtol": 0.0}, {"rtol": -1e-11}):
        path = write_scenario(tmp_path, data_mode="numeric",
                              grid={"cells": 32}, picard=picard)
        assert main(["run", str(path)]) == 2
        assert "picard" in capsys.readouterr().err
    # manufactured mode reads neither block, but checks both
    for key, block in (("grid", {"cellz": "x"}),
                       ("picard", {"bogus": 1, "tol": -5})):
        path = write_scenario(tmp_path, **{key: block})
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err


# grid and picard configure the numeric solve, which manufactured mode skips
@pytest.mark.parametrize("overrides, key", [
    ({"grid": {"cells": 64}}, "grid"),
    ({"mode": "c11", "problem": "cubic_c11", "picard": {"tol": 0.5}},
     "picard"),
    ({"data_mode": "manufactured", "grid": {"cells": 32},
      "picard": {"tol": 1e-9}}, "grid"),
])
def test_numeric_only_keys_exit_2_in_manufactured_mode(tmp_path, capsys,
                                                       monkeypatch,
                                                       overrides, key):
    def unreachable(*args):
        raise AssertionError("scenario ran")

    monkeypatch.setattr(cli, "run_scenario", unreachable)
    path = write_scenario(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert f"key {key!r} is read only in numeric mode" in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_leaves_scipy_stats_unloaded():
    # the scipy subpackages the program does not use, or uses only in tests
    unused = ["scipy.stats", "scipy.special", "scipy.interpolate",
              "scipy.integrate", "scipy.optimize"]
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, regprobe.cli; "
            f"print(*[m for m in {unused!r} if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(src))
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert loaded == []


def test_set_up_leaves_the_nondini_table_unbuilt():
    # the profile table is built by the first u evaluation, in the run,
    # and not while a document is loaded and its problem looked up
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import regprobe.cli; "
            "from regprobe.manufactured import _nondini_profile, get_problem; "
            "from regprobe.scenarios import load_scenario; "
            "get_problem(load_scenario('nondini_c11')['problem']); "
            "print(_nondini_profile.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(src))
    built = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    assert built == ["0"]


@pytest.mark.parametrize("grid", [{"cells": 8}, {"cells": "many"}, {}, [1]],
                         ids=["8", "many", "None", "list"])
def test_numeric_mode_needs_sane_grid(tmp_path, grid, capsys):
    path = write_scenario(tmp_path, data_mode="numeric", grid=grid)
    assert main(["run", str(path)]) == 2
    assert "grid.cells" in capsys.readouterr().err


def test_grid_cells_beyond_the_memory_budget_exits_2(tmp_path, capsys):
    path = write_scenario(tmp_path, data_mode="numeric",
                          grid={"cells": 10**400})
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert "grid.cells" in capsys.readouterr().err
    assert not out.exists()
    # 4 GiB at 2 KiB a node holds pi c^2 nodes up to c = 817; validated only
    doc = json.loads(path.read_text())
    assert math.pi * 817 ** 2 * 2048 <= 4 << 30 < math.pi * 818 ** 2 * 2048
    validate_scenario(dict(doc, grid={"cells": 817}))
    with pytest.raises(ScenarioError, match="grid.cells"):
        validate_scenario(dict(doc, grid={"cells": 818}))


# Fuzzed documents start from the bundled ones, and the check suites they
# run are cut to test size.  A mutation either replaces one value or puts a
# key that no block has into one object.
_FUZZ_SUITE = {"_OPERATORS": 1, "_RESOLUTIONS": (1 / 16, 1 / 24, 1 / 36)}
_BAD_VALUES = ("x", True, False, None, -1, -2.5, 0, 0.0, "", [], {})


def _key_paths(value, prefix=()):
    """Every key or list index of a document, nested ones included."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, sub in items:
        yield prefix + (key,)
        yield from _key_paths(sub, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def broken_documents(draw):
    """(document, kind): kind is "same_type" when the new value has the
    JSON type of the one it replaced, "other_type" when it has another,
    and "unknown_key" when a key was put in."""
    name = draw(st.sampled_from(bundled_names()))
    doc = load_scenario(name)
    value = draw(st.sampled_from(_BAD_VALUES))
    paths = list(_key_paths(doc))
    if draw(st.integers(0, 3)) == 0:
        objects = [()] + [path for path in paths
                          if isinstance(_at(doc, path), dict)]
        _at(doc, draw(st.sampled_from(objects)))["unknown_key"] = value
        return doc, "unknown_key"
    path = draw(st.sampled_from(paths))
    target = _at(doc, path[:-1])
    # json.loads gives null, bool, int, float, str, list and dict values,
    # so type() tells the JSON types apart, bool from int included
    same = type(target[path[-1]]) is type(value)
    target[path[-1]] = value
    return doc, "same_type" if same else "other_type"


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(broken_documents())
def test_broken_documents_exit_with_a_code(case):
    doc, kind = case
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.multiple(scenarios, **_FUZZ_SUITE), \
            mock.patch.object(campanato, "SWEEP_CELLS", 24):
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        code = main(["run", str(path), "--out", str(Path(tmp) / "out")])
    assert code in {0, 1, 2, 3, 4}
    # a value of another JSON type never passes; an unknown key never runs
    assert code != 0 or kind == "same_type", doc
    assert code == 2 or kind != "unknown_key", doc
