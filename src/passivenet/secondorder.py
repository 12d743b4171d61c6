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

from .core import StateSpaceSystem, _freeze, _gate
from .errors import DimensionMismatch, NotSPD, SingularStiffness

#: Eigenvalues of a PSD matrix below this fraction of the largest are
#: clipped to zero before taking square roots (FEM stiffness kernels are
#: numerically fuzzy).
PSD_CLIP_RTOL = 1e-12


def _check_symmetric(name: str, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {X.shape}")
    scale = np.linalg.norm(X, 2) if X.size else 0.0
    if X.size and np.linalg.norm(X - X.T, 2) > 1e-10 * (1.0 + scale):
        raise NotSPD(f"{name} is not symmetric")
    return 0.5 * (X + X.T)


def spd_sqrt(X: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition, kernel clipped at 0."""
    X = _check_symmetric("X", X)
    if X.size == 0:
        return X
    w, V = np.linalg.eigh(X)
    scale = max(w.max(), 0.0)
    if w.min() < -PSD_CLIP_RTOL * max(scale, 1.0):
        raise NotSPD(f"matrix has eigenvalue {w.min():.3e}, not PSD")
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T


def _spd_inv_sqrt(name: str, X: np.ndarray) -> np.ndarray:
    X = _check_symmetric(name, X)
    w, V = np.linalg.eigh(X)
    if w.min() <= 0:
        raise NotSPD(f"{name} must be positive definite (min eigenvalue {w.min():.3e})")
    return (V / np.sqrt(w)) @ V.T


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
        M = _check_symmetric("M", self.M)
        m = M.shape[0]
        P = _check_symmetric("P", self.P)
        K = _check_symmetric("K", self.K)
        if P.shape != (m, m) or K.shape != (m, m):
            raise DimensionMismatch("M, P, K must share one size")
        F = np.asarray(self.F, dtype=float)
        if F.ndim != 2 or F.shape[0] != m:
            raise DimensionMismatch(f"F must be {m} x k, got {F.shape}")
        tolm = 1.0 + np.linalg.norm(M, 2)
        if np.linalg.eigvalsh(M).min() <= 0:
            raise NotSPD("M must be positive definite")
        for name, X in (("P", P), ("K", K)):
            if X.size and np.linalg.eigvalsh(X).min() < -PSD_CLIP_RTOL * tolm:
                raise NotSPD(f"{name} must be positive semidefinite")
        k = F.shape[1]
        Q1 = np.zeros((k, m)) if self.Q1 is None else np.asarray(self.Q1, dtype=float)
        Q2 = 0.5 * F.T if self.Q2 is None else np.asarray(self.Q2, dtype=float)
        if Q1.shape != (k, m) or Q2.shape != (k, m):
            raise DimensionMismatch(f"Q1, Q2 must be {k} x {m}")
        _freeze(self, M=M, P=P, K=K, F=F, Q1=Q1, Q2=Q2)

    @property
    def size(self) -> int:
        return self.M.shape[0]

    @property
    def ports(self) -> int:
        return self.F.shape[1]


def _generator(so: SecondOrderSystem):
    Mih = _spd_inv_sqrt("M", so.M)
    Kh = spd_sqrt(so.K)
    m = so.size
    A = np.block([[np.zeros((m, m)), Kh @ Mih],
                  [-Mih @ Kh, -Mih @ so.P @ Mih]])
    return A, Mih, Kh


def first_order_realization(so: SecondOrderSystem, method: str = "colocated",
                            split: Optional[tuple[int, int]] = None) -> StateSpaceSystem:
    """Realise the second-order system on its 2m energy coordinates.

    ``method="general"`` uses (Q1, Q2) and needs K invertible (raises
    SingularStiffness otherwise); ``method="colocated"`` allows singular K
    and forces the co-located observation Q1 = 0, Q2 = F^T.
    """
    A, Mih, Kh = _generator(so)
    m, k = so.size, so.ports
    if method == "colocated":
        X = Mih @ so.F
        B = np.vstack([np.zeros((m, k)), X])
        C = np.hstack([np.zeros((k, m)), X.T])  # co-located: C = B^T bitwise
    elif method == "general":
        _gate(Kh, SingularStiffness,
              "general path needs invertible K; use the colocated path", limit=1e6)
        Kih = np.linalg.inv(Kh)
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
