"""A speedometer for a shared machine: time measured against a reference.

On a virtual machine whose host lends its cores to other tenants, the
speed one core delivers can swing by 20-30 % within seconds (as measured on
a 2-vCPU cloud VM).  Measured seconds of the same code then spread more
between runs than a regression bound allows.  The speedometer samples that speed while the program runs: every
``PERIOD_S`` a ``SIGALRM`` handler times reference kernels that no change
to the program can alter, and records the machine's speed as the geometric
mean of ``nominal / measured`` over them.  An interval's *reference
seconds* are its measured seconds times the mean speed over the samples
taken in it: the time it would have taken had the kernels run at their
nominal times throughout.  At nominal speed the two agree.

The kernels are a pure-Python loop, which tracks interpreted code, and,
once the program has imported scipy, an incomplete LU factorization of a
small fixed matrix, which tracks the sparse factorizations and solves that
dominate two of the three workloads.  Measured over the same minutes, the
pair tracked those two workloads better than the loop alone, and
memory-streaming or sparse matrix-vector kernels tracked all three worse.

The handler's own time is kept out of every interval: ``clock()`` is
``time.perf_counter()`` minus the time spent in the handler.  Samples are
taken only while the interpreter runs Python code, so a long native call
delays the next one; the interval still gets every sample taken in it.
Use only in the main thread of a process that installs no other SIGALRM
handler.
"""
from __future__ import annotations

import math
import signal
import sys
import time

PERIOD_S = 0.25
LOOP_ITERATIONS = 60_000
LOOP_NOMINAL_S = 0.005
LAPLACIAN_SIDE = 40        # the factored matrix is the 5-point Laplacian
FACTOR_NOMINAL_S = 0.0065  # on a LAPLACIAN_SIDE x LAPLACIAN_SIDE grid


def reference_loop() -> int:
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    return total


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class Speedometer:
    def __init__(self):
        self.speeds = []       # one per sample, in time order; 1 is nominal
        self.spent = 0.0       # seconds inside the handler
        self._factor = None
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        try:
            logs = [math.log(LOOP_NOMINAL_S / _timed(reference_loop))]
            if self._factor is not None:
                logs.append(math.log(FACTOR_NOMINAL_S / _timed(self._factor)))
            self.speeds.append(math.exp(sum(logs) / len(logs)))
        finally:
            self.spent += time.perf_counter() - start
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def add_factor_kernel(self) -> bool:
        """Add the factorization kernel if the program has imported
        scipy's sparse solvers; importing them here would take their import
        time out of what the program is measured to pay."""
        linalg = sys.modules.get("scipy.sparse.linalg")
        if linalg is None:
            return False
        import scipy.sparse as sparse

        side = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1],
                            shape=(LAPLACIAN_SIDE, LAPLACIAN_SIDE))
        eye = sparse.identity(LAPLACIAN_SIDE)
        matrix = (sparse.kron(eye, side) + sparse.kron(side, eye)).tocsc()
        self._factor = lambda: linalg.spilu(matrix, drop_tol=1e-5, fill_factor=20)
        return True

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def mark(self) -> tuple:
        return self.clock(), len(self.speeds)

    def since(self, mark: tuple) -> tuple:
        """``(measured_s, reference_s)`` of the interval since ``mark``.

        An interval too short to hold a sample is scaled by the last sample
        before it; with no sample at all, reference equals measured.
        """
        measured = self.clock() - mark[0]
        taken = self.speeds[mark[1]:] or self.speeds[-1:]
        if not taken:
            return measured, measured
        return measured, measured * sum(taken) / len(taken)
