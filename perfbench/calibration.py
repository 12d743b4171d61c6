"""Host-speed calibration for the benchmark's timed metrics.

The shared host this benchmark was set up on changes speed by tens of
percent over minutes while nothing in the run changes (see README.md,
"Why run_s is calibrated").  A fixed kernel that uses no passivenet code is
therefore timed around the measured work, and timed metrics are rescaled
by REFERENCE_S / kernel time.  The kernel has the shape of the library's
two hot paths: dense complex LU at n = 412 on the BLAS threads, and many
small n = 6 solves driven from Python.

The kernel runs in its own interpreter (``Calibrator``), started once per
run and asked for one timing at a time, so nothing the library does to its
own process (heap, BLAS threads, imports) can move the yardstick.  It is
timed right after each iteration, in the same just-busy state the work ran
in: on the reference host the kernel took about 0.20 s right after either
workload's work, and about 0.12 s after 0.3 s of idling.

    python3 perfbench/calibration.py     # serve timings: one line in, one out
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy.linalg

# About the median kernel time on the host the bounds were set on (2-vCPU
# Intel Xeon, OpenBLAS 0.3.31 with 2 threads, numpy 2.4.6, scipy 1.17.1).  It
# only sets the scale: calibrated times read as seconds on that host.
REFERENCE_S = 0.2

# Set-up is calibrated by a fresh interpreter that imports only the library's
# dependencies, started right before each set-up probe: the kernel above did
# not track import time (correlation -0.06 to -0.30 over 20 runs), this
# baseline did (0.61 over 25 pairs).  BASELINE_REFERENCE_S is about its
# median on the same host.
BASELINE_IMPORT = "import numpy, scipy.linalg"
BASELINE_REFERENCE_S = 0.65

_rng = np.random.default_rng(1911)
_BIG = _rng.standard_normal((412, 412)) + 1j * _rng.standard_normal((412, 412))
_SMALL = _rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6))
_RHS = _rng.standard_normal((6, 2)) + 0j


def kernel_s() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    t0 = time.perf_counter()
    for _ in range(6):
        scipy.linalg.lu_factor(_BIG, check_finite=False)
    for _ in range(3000):
        lu = scipy.linalg.lu_factor(_SMALL, check_finite=False)
        scipy.linalg.lu_solve(lu, _RHS, check_finite=False)
    return time.perf_counter() - t0


class Calibrator:
    """A calibration interpreter: ``measure()`` returns one kernel time."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, str(Path(__file__))],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True)
        self.measure()          # first touch of the kernel's memory, not used

    def measure(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration process ended unexpectedly")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> int:
    for _ in sys.stdin:
        print(repr(kernel_s()), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(serve())
