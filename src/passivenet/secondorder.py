"""First-order impedance-passive realisations of second-order systems.

M z'' + P z' + K z = F u with observation y = Q1 z + Q2 z' becomes a system
on the energy coordinates x = (1/sqrt2) [K^(1/2) z; M^(1/2) z'], so that
|x|^2 is the sum of potential and kinetic energy.  The generator

    A = [[0, K^(1/2) M^(-1/2)], [-M^(-1/2) K^(1/2), -M^(-1/2) P M^(-1/2)]]

is shared by both construction paths:

* the general path keeps user (Q1, Q2) with the 1/sqrt2 input and sqrt2
  output normalisations and needs K invertible;
* the co-located path allows singular K (the FEM stiffness always has the
  constants in its kernel), forcing the observation Q1 = 0, Q2 = F^T with
  unscaled B = [0; M^(-1/2) F], C = [0, F^T M^(-1/2)].

The co-located realisation is impedance passive for every valid (M, P, K, F)
and conservative when P = 0; the feedthrough vanishes identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import StateSpaceSystem, _as_matrix, _freeze, _gated_solve, _symmetric_eig
from .errors import DimensionMismatch, SingularStiffness


def _sqrt_of(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """V diag(w)^1/2 V^T from eigenpairs, the kernel clipped at 0."""
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T


def spd_sqrt(X: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition, kernel clipped at 0."""
    _, w, V = _symmetric_eig("X", X, definite=False)
    return _sqrt_of(w, V)


@dataclass(frozen=True)
class SecondOrderSystem:
    """Mass/damping/stiffness description (M, P, K, F, Q1, Q2).

    M must be SPD; P and K symmetric PSD (K may be singular).  F maps the
    k port inputs into the equations; Q1, Q2 observe position and velocity
    and default to the co-located passive pattern (0, F^T/2).
    """

    M: np.ndarray
    P: np.ndarray
    K: np.ndarray
    F: np.ndarray
    Q1: Optional[np.ndarray] = None
    Q2: Optional[np.ndarray] = None

    def __post_init__(self):
        M, w, V = _symmetric_eig("M", self.M, definite=True)
        m = M.shape[0]
        P = _symmetric_eig("P", self.P, definite=False)[0]
        K, wk, Vk = _symmetric_eig("K", self.K, definite=False)
        if P.shape != (m, m) or K.shape != (m, m):
            raise DimensionMismatch("M, P, K must share one size")
        F = _as_matrix("F", self.F)
        if F.shape[0] != m:
            raise DimensionMismatch(f"F must be {m} x k, got {F.shape}")
        k = F.shape[1]
        Q1 = np.zeros((k, m)) if self.Q1 is None else _as_matrix("Q1", self.Q1, (k, m))
        Q2 = 0.5 * F.T if self.Q2 is None else _as_matrix("Q2", self.Q2, (k, m))
        # M^-1/2 and K^1/2 from the check's eigenpairs, for the realisations
        _freeze(self, M=M, P=P, K=K, F=F, Q1=Q1, Q2=Q2,
                _Mih=(V / np.sqrt(w)) @ V.T, _Kh=_sqrt_of(wk, Vk))

    @property
    def size(self) -> int:
        return self.M.shape[0]

    @property
    def ports(self) -> int:
        return self.F.shape[1]


def first_order_realization(so: SecondOrderSystem, method: str = "colocated",
                            split: Optional[tuple[int, int]] = None) -> StateSpaceSystem:
    """Realise the second-order system on its 2m energy coordinates.

    ``method="general"`` uses (Q1, Q2) and needs K invertible (raises
    SingularStiffness otherwise); ``method="colocated"`` allows singular K
    and forces the co-located observation Q1 = 0, Q2 = F^T.
    """
    Mih, Kh = so._Mih, so._Kh
    m, k = so.size, so.ports
    A = np.block([[np.zeros((m, m)), Kh @ Mih],
                  [-Mih @ Kh, -Mih @ so.P @ Mih]])
    if method == "colocated":
        X = Mih @ so.F
        B = np.vstack([np.zeros((m, k)), X])
        C = np.hstack([np.zeros((k, m)), X.T])  # co-located: C = B^T bitwise
    elif method == "general":
        Kih = _gated_solve(Kh, np.eye(m), SingularStiffness,
                           "general path needs invertible K; use the colocated path",
                           floor=1e-6)
        B = np.vstack([np.zeros((m, k)), Mih @ so.F]) / np.sqrt(2.0)
        C = np.sqrt(2.0) * np.hstack([so.Q1 @ Kih, so.Q2 @ Mih])
    else:
        raise ValueError(f"unknown method {method!r}")
    D = np.zeros((k, k))
    return StateSpaceSystem(A, B, C, D, split=split)


@dataclass(frozen=True)
class PassivityPattern:
    """Whether (Q1, Q2) match the passive/conservative observation pattern."""

    passive_pattern: bool
    conservative_pattern: bool
    q1_residual: float
    q2_residual: float
    damping_norm: float


def passivity_conditions(so: SecondOrderSystem) -> PassivityPattern:
    """Report the Q1 = 0, Q2 = F^T / 2 pattern and whether P vanishes.

    The general-path realisation is impedance passive exactly when the
    pattern holds, and conservative exactly when additionally P = 0.
    """
    scale = 1.0 + float(np.abs(so.F).max()) if so.F.size else 1.0
    r1 = float(np.abs(so.Q1).max()) if so.Q1.size else 0.0
    r2 = float(np.abs(so.Q2 - 0.5 * so.F.T).max()) if so.Q2.size else 0.0
    pnorm = float(np.linalg.norm(so.P, 2)) if so.P.size else 0.0
    ok = r1 <= 1e-12 * scale and r2 <= 1e-12 * scale
    return PassivityPattern(ok, ok and pnorm <= 1e-12 * scale, r1, r2, pnorm)
