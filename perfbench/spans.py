"""Spans around the calls into regprobe's layers, installed from outside.

Every wrapper replaces a name in each regprobe module that holds the
original object, because modules such as ``campanato`` import functions by
name (``from .elliptic import ...``) and patching only the defining module
would miss those calls.  A layer's self time is the time inside its calls
minus the time inside wrapped calls it made; the wrappers' own bookkeeping
(hashing a matrix, counting points) falls outside both, so it shows only in
the difference between a traced and an untraced pass.

Totals are kept per scenario: ``Tracer.stats`` maps
``(scenario_id, metric)`` to a number.
"""
from __future__ import annotations

import functools
import hashlib
import os
import sys
import time
import types
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock         # seconds; the child passes one that
                                   # leaves out the speedometer's samples
        self.stats = defaultdict(float)
        self.scenario = "-"
        self.krylov_calls = 0
        self._open = []            # seconds covered by children, per open span
        self._factored = set()     # digests of the matrices factored this pass

    def reset(self):
        """Start a new pass."""
        self.stats.clear()
        self._factored.clear()

    def add(self, metric: str, value=1) -> None:
        self.stats[(self.scenario, metric)] += value

    def peak(self, metric: str, value) -> None:
        key = (self.scenario, metric)
        self.stats[key] = max(self.stats[key], value)

    def wrap(self, layer: str, fn, after=None):
        """Time ``fn`` as a span of ``layer``; ``after(tracer, args, result)``
        records counts once it has returned."""

        def traced(*args, **kwargs):
            entered = self.clock()
            self._open.append(0.0)
            try:
                start = self.clock()
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    self.add(f"{layer}.failures")
                    raise
                finally:
                    stop = self.clock()
                    self.add(f"{layer}.calls")
                    self.add(f"{layer}.self_s", stop - start - self._open.pop())
                if after is not None:
                    after(self, args, result)
                return result
            finally:
                if self._open:
                    self._open[-1] += self.clock() - entered

        return functools.wraps(fn)(traced)

    def scenario_runner(self, run_scenario):
        """Wrap ``run_scenario`` so that spans below it count for its
        scenario; its own code counts as ``cli.main``."""
        traced = self.wrap("cli.main", run_scenario)

        @functools.wraps(run_scenario)
        def run(doc, out_dir):
            outer, self.scenario = self.scenario, doc["id"]
            try:
                return traced(doc, out_dir)
            finally:
                self.scenario = outer

        return run


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if name.startswith("regprobe.") and m is not None]


def _patch(original, replacement) -> None:
    for module in _modules():
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)


def _factor_counts(tracer, args, factor):
    matrix = args[0].tocsc()
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr(matrix.shape).encode())
    for part in (matrix.indptr, matrix.indices, matrix.data):
        digest.update(part.tobytes())
    key = digest.digest()
    if key not in tracer._factored:
        tracer._factored.add(key)
        tracer.add("elliptic.factor.distinct")
    tracer.peak("elliptic.factor.fill_nnz", factor.L.nnz + factor.U.nnz)


def _krylov(tracer, solver):
    def counted(*args, callback=None, **kwargs):
        def count(*cb_args):
            tracer.add("elliptic.krylov.iters")
            if callback is not None:
                callback(*cb_args)

        tracer.krylov_calls += 1
        return solver(*args, callback=count, **kwargs)

    return tracer.wrap("elliptic.krylov", functools.wraps(solver)(counted))


def _solve(tracer, solve_dirichlet):
    # A solve's Krylov calls beyond its first are refinement restarts or
    # the LGMRES fallback.
    def solve(*args, **kwargs):
        before = tracer.krylov_calls
        try:
            return solve_dirichlet(*args, **kwargs)
        finally:
            tracer.add("elliptic.krylov.retries",
                       max(0, tracer.krylov_calls - before - 1))

    return tracer.wrap("elliptic.solve", functools.wraps(solve_dirichlet)(solve))


def _ball_sup(tracer, ball_sup):
    def measured(fn, *args, **kwargs):
        def counted(pts):
            tracer.add("campanato.ball_sup.points", len(pts))
            return fn(pts)

        return ball_sup(counted, *args, **kwargs)

    return tracer.wrap("campanato.ball_sup", functools.wraps(ball_sup)(measured))


def _points(metric):
    def count(tracer, args, result):
        tracer.add(metric, len(result))
    return count


def _sampler(tracer, bicubic_sampler):
    def build(field):
        return tracer.wrap("grid.sample", bicubic_sampler(field),
                           after=_points("grid.sample.points"))

    return tracer.wrap("grid.sample", functools.wraps(bicubic_sampler)(build))


def _written_text(tracer, args, result):
    tracer.add("scenarios.write.bytes", len(args[1].encode()))


def _written_file(tracer, args, result):
    tracer.add("scenarios.write.bytes", os.path.getsize(args[1]))


def _rungs(tracer, args, trace):
    tracer.add("campanato.rungs", len(trace.records))


def _outer_steps(tracer, args, result):
    tracer.add("semilinear.picard.outer_steps", result.outer_iterations)


def install(tracer: Tracer, problems) -> None:
    """Wrap regprobe's layers for ``tracer``.

    ``problems`` are the ManufacturedProblem objects ``get_problem``
    returned during set-up; it caches them, so wrapping their ``u`` and
    potential ``v`` reaches every later use.  Call once per process.
    """
    import scipy.sparse.linalg as spla

    from regprobe import (campanato, cli, elliptic, fields, grid, modulus,
                          scenarios, semilinear)

    linalg = types.ModuleType(spla.__name__)
    vars(linalg).update(vars(spla))
    for name in ("spilu", "splu"):
        wrapped = tracer.wrap("elliptic.factor", getattr(spla, name),
                              after=_factor_counts)
        setattr(linalg, name, wrapped)
        _patch(getattr(spla, name), wrapped)
    for name in ("bicgstab", "lgmres"):
        wrapped = _krylov(tracer, getattr(spla, name))
        setattr(linalg, name, wrapped)
        _patch(getattr(spla, name), wrapped)
    _patch(spla, linalg)

    _patch(elliptic.solve_dirichlet, _solve(tracer, elliptic.solve_dirichlet))
    _patch(elliptic.assemble, tracer.wrap("elliptic.assemble", elliptic.assemble))

    grid.DiskGrid.__post_init__ = tracer.wrap("grid.build",
                                              grid.DiskGrid.__post_init__)
    _patch(grid.bicubic_sampler, _sampler(tracer, grid.bicubic_sampler))

    _patch(semilinear.picard_solve,
           tracer.wrap("semilinear.picard", semilinear.picard_solve,
                       after=_outer_steps))

    for problem in problems:
        object.__setattr__(problem, "u", tracer.wrap(
            "manufactured.u", problem.u, after=_points("manufactured.u.points")))
        object.__setattr__(problem.potential, "v", tracer.wrap(
            "manufactured.v", problem.potential.v))

    for cls, method in ((fields.CoefficientField, "eval_a"),
                        (fields.CoefficientField, "eval_b"),
                        (fields.Nonlinearity, "eval")):
        setattr(cls, method, tracer.wrap("fields.eval", getattr(cls, method)))

    _patch(campanato.ball_sup, _ball_sup(tracer, campanato.ball_sup))
    _patch(campanato.approximate,
           tracer.wrap("campanato.approximate", campanato.approximate))
    _patch(campanato.taylor_fit,
           tracer.wrap("campanato.taylor_fit", campanato.taylor_fit))
    for probe in (campanato.c1_probe, campanato.c11_probe):
        _patch(probe, tracer.wrap("campanato.ladder", probe, after=_rungs))

    for fn in (modulus.dini_integral, modulus.dini_tail_sum):
        _patch(fn, tracer.wrap("modulus.dini", fn))

    _patch(scenarios.load_scenario,
           tracer.wrap("scenarios.load", scenarios.load_scenario))
    _patch(scenarios.atomic_write_text,
           tracer.wrap("scenarios.write", scenarios.atomic_write_text,
                       after=_written_text))
    _patch(campanato.trace_to_csv,
           tracer.wrap("scenarios.write", campanato.trace_to_csv,
                       after=_written_file))
    cli.run_scenario = tracer.scenario_runner(cli.run_scenario)
