"""Checks that do not use the code under test.

The ABCD chain multiplies the 2x2 transfer matrices of the shunt
capacitors and series inductors of the C1-L-C3-L-C1 ladder directly, so it
shares no code with the state-space pipeline it checks.  Reference values
were recorded from the library at a fixed commit by ``record_reference.py``
and are compared normwise: max |got - want| <= REFERENCE_RTOL * max |want|.
"""

from __future__ import annotations

import numpy as np

# No tighter than the 1e-10 sweep drift a factor-once sweep is allowed,
# and far below any change a wrong answer makes.
REFERENCE_RTOL = 1e-8
ABCD_S21_RTOL = 1e-6
ABCD_S11_ATOL = 1e-6


def _shunt(s: np.ndarray, c: float) -> np.ndarray:
    T = np.zeros(s.shape + (2, 2), dtype=complex)
    T[..., 0, 0] = 1.0
    T[..., 1, 0] = s * c
    T[..., 1, 1] = 1.0
    return T


def _series(s: np.ndarray, inductance: float) -> np.ndarray:
    T = np.zeros(s.shape + (2, 2), dtype=complex)
    T[..., 0, 0] = 1.0
    T[..., 0, 1] = s * inductance
    T[..., 1, 1] = 1.0
    return T


def ladder_sparams(freqs_hz: np.ndarray, c1: float, l1: float, c3: float,
                   r0: float) -> tuple[np.ndarray, np.ndarray]:
    """(s11, s21) of the C1-L-C3-L-C1 ladder between r0 ports, by ABCD chain."""
    s = 2j * np.pi * np.asarray(freqs_hz, dtype=float)
    T = (_shunt(s, c1) @ _series(s, l1) @ _shunt(s, c3)
         @ _series(s, l1) @ _shunt(s, c1))
    A, B, C, D = T[..., 0, 0], T[..., 0, 1], T[..., 1, 0], T[..., 1, 1]
    den = A + B / r0 + C * r0 + D
    return (A + B / r0 - C * r0 - D) / den, 2.0 / den


def normwise_error(got: np.ndarray, want: np.ndarray) -> float:
    """max |got - want| / max |want|; inf when shapes differ or got is not finite."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return float("inf")
    scale = float(np.abs(want).max()) if want.size else 0.0
    diff = float(np.abs(got - want).max()) if want.size else 0.0
    return diff / scale if scale > 0 else diff
