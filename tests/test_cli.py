"""Command line and scenario plumbing tests.

These drive the real entry point through main() with temp directories,
checking artifact layout, exit codes, determinism, and the report table.
Numerical behavior of the probes themselves is covered elsewhere; here the
bundled zero_case scenario doubles as a fast end-to-end fixture.
"""
from __future__ import annotations

import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from datetime import timedelta
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from regprobe import campanato, cli, scenarios
from regprobe.cli import main
from regprobe.errors import ScenarioError
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
ALLOWED = {
    "modulus_check.families": "the route to a user's own modulus, table "
                              "files included",
}


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
    set_keys = set()
    for mode, keys in scenarios._MODE_KEYS.items():
        prefix = "" if mode in ("c1", "c11") else f"{mode}."
        settable |= {prefix + key for key in keys}
        set_keys |= {prefix + key for doc in docs if doc["mode"] == mode
                     for key in _set_keys(doc)}
    unset = settable - set_keys - set(ALLOWED)
    assert not unset, f"settings no document sets: {sorted(unset)}"
    stale = set(ALLOWED) - (settable - set_keys)
    assert not stale, f"ALLOWED names keys that are set or gone: {sorted(stale)}"


@pytest.mark.parametrize("workload", ["probe_ladder", "numeric_picard"])
def test_benchmark_probe_reports_match_the_reference(tmp_path, monkeypatch,
                                                     workload):
    # the golden zero_case report is all zeros; these limits are not
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
    campanato._frozen_comparison.cache_clear()
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["run", *names, "--out", str(out)]) == 0
    for name in names:
        for artifact in (f"{name}_trace.csv", f"{name}_report.json"):
            assert (a / artifact).read_bytes() == (b / artifact).read_bytes()
    assert not list(a.glob("*.tmp"))


def test_run_scenario_file_with_output_dir_key(tmp_path):
    target = tmp_path / "nested" / "deeper"
    path = write_scenario(tmp_path, output_dir=str(target))
    assert main(["run", str(path)]) == 0
    assert (target / "custom_report.json").exists()
    assert (target / "custom_trace.csv").exists()


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


def test_schema_version_mismatch_exits_2(tmp_path):
    path = write_scenario(tmp_path, v=99)
    assert main(["run", str(path)]) == 2


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
    "c1-problem-list": ("c1", "problem", []),
    "c1-description-list": ("c1", "description", ["a"]),
    "modulus_check-description-null": ("modulus_check", "description", None),
    "c1-output_dir-5": ("c1", "output_dir", 5),
    "c1-output_dir-a\0b": ("c1", "output_dir", "a\0b"),
    "c1-id-a\0b": ("c1", "id", "a\0b"),
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
           "iteration": {"K": 1}, "output_dir": str(tmp_path / "out")}
    with pytest.raises(ScenarioError, match="'id'"):
        validate_scenario(doc)
    assert _tree(tmp_path) == []
    # an id may still hold dots and other punctuation
    validate_scenario(dict(doc, id="..a.b-c_d"))


def write_modulus_doc(tmp_path, modulus_id):
    path = tmp_path / "custom.json"
    path.write_text(json.dumps({
        "v": 1, "id": "custom", "mode": "modulus_check",
        "families": [{"id": modulus_id, "dini": True}]}))
    return path


def test_modulus_check_just_above_the_dini_threshold(tmp_path):
    # the integral of (ln 1/t)^-1.01 / t converges, so the tail sums do too
    path = write_modulus_doc(tmp_path, "log_power:1.01")
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "custom_report.json").read_text())
    assert report["verdict"] == "pass"
    with open(out / "custom_trace.csv", newline="") as fh:
        tails = [row for row in csv.DictReader(fh) if row["kind"] == "tail_sum"]
    # the family lives below r = 1/e, so each of the three ratios starts
    # at k0 = 2 and runs to k0 = 6
    assert report["limits"]["combos_skipped_out_of_domain"] == 3
    assert len(tails) == 15
    assert all(math.isfinite(float(row["value"])) for row in tails)


def test_modulus_check_with_a_wrong_dini_flag_fails(tmp_path):
    # 1/ln(1/t) is not Dini, so the family's declared flag is wrong
    path = write_modulus_doc(tmp_path, "log_power:1.0")
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "custom_report.json").read_text())
    assert report["verdict"] == "failed"
    with open(out / "custom_trace.csv", newline="") as fh:
        oks = [row["ok"] for row in csv.DictReader(fh)]
    assert oks[0] == "0"  # the invariants row: the Dini class disagrees
    assert "1" not in oks  # and no tail sum of a non-Dini family is finite


def test_non_finite_modulus_table_exits_2(tmp_path, capsys):
    # a table with bad content is a malformed scenario, like a bad parameter
    table = tmp_path / "nan.csv"
    table.write_text("r,omega\nnan,0.3\n0.1,0.4\n0.5,0.7\n")
    path = write_modulus_doc(tmp_path, f"table:{table}")
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("modulus_id, code", [
    ("power:nan", 2),
    ("power:", 2),
    ("log_inverse:3", 2),
    ("table:", 2),
    ("nope:1", 3),
    ("table:{tmp}/missing.csv", 3),
    ("table:{tmp}", 3),
    ("table:{tmp}/" + "x" * 5000, 3),
], ids=["nan", "empty", "extra", "no_path", "unknown", "missing", "directory",
        "too_long"])
def test_registry_exit_codes(tmp_path, capsys, modulus_id, code):
    """A known id with a malformed parameter exits 2; an unknown id or a
    table that cannot be read exits 3."""
    path = write_modulus_doc(tmp_path, modulus_id.format(tmp=tmp_path))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err.startswith("error: ")


def test_undecodable_table_exits_2_naming_it(tmp_path, capsys):
    table = tmp_path / "utf16.csv"
    table.write_bytes("r,omega\n0.1,0.4\n0.5,0.7\n".encode("utf-16"))
    path = write_modulus_doc(tmp_path, f"table:{table}")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert str(table) in capsys.readouterr().err


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
    assert main(["run", "zero_case", "nondini_c11",
                 "--out", str(tmp_path)]) == 0
    code = main(["report", str(tmp_path), "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    with (tmp_path / "summary.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["scenario_id"] for r in rows] == ["zero_case", "nondini_c11"]
    assert rows[0]["verdict"] == "C1_certified"
    assert rows[1]["verdict"] == "failed"
    assert rows[0]["worst_margin"] == "inf"
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


def _report_directory(folder):
    (folder / "bad_report.json").mkdir()


def _report_with_list_limits(folder):
    (folder / "bad_report.json").write_text(json.dumps(
        {"v": 1, "scenario_id": "x", "mode": "c1", "verdict": "pass",
         "limits": [1]}))


@pytest.mark.parametrize("make", [_report_without_ids, _report_not_utf8,
                                  _report_directory, _report_with_list_limits],
                         ids=["no_ids", "not_utf8", "directory", "list_limits"])
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
    def exhausted(radius, cells):
        raise MemoryError("Unable to allocate 298. GiB for an array")

    monkeypatch.setattr(campanato, "_disk_lattice", exhausted)
    assert main(["run", "zero_case", "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "error: not enough memory: Unable to allocate" in err
    assert "Traceback" not in err


# Settings a document can no longer hold: the problem declares nu, lambda1
# and tau, smallness is only reported, the ladder's resolutions (which the
# sweep shares), Picard's damping and step cap and the check suites are
# fixed.  Each value here was in range when the key existed, so only the
# key itself is rejected.  A block names a probe document's block, a mode
# a top-level key of a suite document.
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
    code = main(["check-modulus", "--out", str(tmp_path)])
    assert code == 0
    assert "modulus_check: pass" in capsys.readouterr().out
    assert (tmp_path / "modulus_check_report.json").exists()


def test_validate_solver_subcommand(tmp_path, capsys, monkeypatch):
    ran = []

    def recorded(doc, out_dir):
        ran.append((doc, out_dir))
        return {"verdict": "pass", "limits": {"operators": 20}}

    monkeypatch.setattr(cli, "run_scenario", recorded)
    assert main(["validate-solver", "--out", str(tmp_path)]) == 0
    # the bundled document runs as it is
    assert ran == [(load_scenario("solver_validation"), tmp_path)]
    assert capsys.readouterr().out == "solver_validation: pass\n  operators: 20\n"


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


# validate-solver runs the bundled document and takes no flags of its own;
# a document sets the seed
@pytest.mark.parametrize("flag", [["--operators", "2"], ["--seed", "7"]],
                         ids=["operators", "seed"])
def test_validate_solver_rejects_bad_overrides(tmp_path, capsys, flag):
    out = tmp_path / "out"
    assert main(["validate-solver", *flag, "--out", str(out)]) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_calibrate_subcommand(tmp_path, capsys):
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
    for picard in ({"tol": 1e-12}, {"tol": "x"}, {"tol": True},
                   {"rtol": 0.0}, {"rtol": -1e-11}):
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


# Fuzzed documents start from the bundled ones, modulus_check's naming the
# built-in families so that its one optional key is fuzzed too, and the
# check suites they run are cut to test size.
_FUZZ_SUITE = {"_OPERATORS": 1, "_RESOLUTIONS": (1 / 16, 1 / 24, 1 / 36)}
_BAD_VALUES = ("x", True, False, None, -1, -2.5, 0, 0.0, "", [], {})


def _key_paths(value, prefix=()):
    """Every key or list index of a document, nested ones included."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, sub in items:
        yield prefix + (key,)
        yield from _key_paths(sub, prefix + (key,))


@st.composite
def broken_documents(draw):
    name = draw(st.sampled_from(bundled_names()))
    doc = load_scenario(name)
    if name == "modulus_check":
        doc["families"] = [dict(family) for family in scenarios._FAMILIES]
    path = draw(st.sampled_from(list(_key_paths(doc))))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = draw(st.sampled_from(_BAD_VALUES))
    return doc


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(broken_documents())
def test_broken_documents_exit_with_a_code(doc):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.multiple(scenarios, **_FUZZ_SUITE), \
            mock.patch.object(campanato, "SWEEP_CELLS", 24):
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        code = main(["run", str(path), "--out", str(Path(tmp) / "out")])
    assert code in {0, 1, 2, 3, 4}


# Generated tables for a modulus_check document: a well-formed table
# (positive, finite, strictly increasing in both columns) with at most one
# defect, so the expected exit code is known by construction.
_TABLE_NODES = (1e-6, 1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 1.0, 2.0)
_TABLE_DEFECTS = (None, None, None, "nan", "inf", "-inf", "negative", "zero",
                  "duplicate", "decreasing", "short", "header_only",
                  "non_utf8", "nul_row", "letter_o_row", "empty_cell")


@st.composite
def table_files(draw):
    """(kind, bytes, malformed): kind is "file", "directory" or "missing"."""
    kind = draw(st.sampled_from(["file"] * 8 + ["directory", "missing"]))
    nodes = st.lists(st.sampled_from(_TABLE_NODES), min_size=2, max_size=5,
                     unique=True)
    r, w = sorted(draw(nodes)), sorted(draw(nodes))
    rows = [[repr(a), repr(b)] for a, b in zip(r, w)]
    defect = draw(st.sampled_from(_TABLE_DEFECTS))
    i = draw(st.integers(0, len(rows) - 1))
    col = draw(st.integers(0, 1))
    if defect in ("nan", "inf", "-inf"):
        rows[i][col] = defect
    elif defect == "negative":
        rows[i][col] = "-0.5"
    elif defect == "zero":
        rows[i][col] = "0.0"
    elif defect == "duplicate":
        rows.insert(i, list(rows[i]))
    elif defect == "decreasing":
        rows.reverse()
    elif defect == "short":
        rows[i] = rows[i][:1]
    elif defect == "empty_cell":
        rows[i][col] = ""
    elif defect == "header_only":
        rows = []
    elif defect == "nul_row":  # a row that is not numbers, first included
        rows.insert(draw(st.integers(0, len(rows))), ["0.3\x00", "0.4"])
    elif defect == "letter_o_row":  # a first data row with O for 0
        rows.insert(0, ["O.1", "0.4"])
    header = draw(st.sampled_from(["r,omega\n", "r,\x00omega\n", ""]))
    data = (header + "".join(",".join(row) + "\n" for row in rows)).encode()
    if defect == "non_utf8":
        data = draw(st.sampled_from([b"\xff\xfe", b"\x80", b"0.1\xff,"])) + data
    return kind, data, defect is not None


# A per-example deadline turns a pathologically slow table (a runaway
# quadrature, say) into a failure instead of a slow pass.
@settings(max_examples=250, deadline=timedelta(seconds=5), database=None,
          derandomize=True)
@given(table_files())
def test_table_files_exit_with_a_code(table):
    kind, data, malformed = table
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        target = tmp / "table.csv"
        if kind == "file":
            target.write_bytes(data)
        elif kind == "directory":
            target.mkdir()
        path = write_modulus_doc(tmp, f"table:{target}")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", str(path), "--out", str(tmp / "out")])
    if kind != "file":
        assert code == 3
    else:
        assert code == (2 if malformed else 0), stderr.getvalue()
