"""Representation changes between impedance, scattering, hybrid and chain forms.

Flow-inversion family
    full_inversion   FI : swap the whole input and output, G -> G^-1
    top_inversion    TI : swap the top input/output pair
    bottom_inversion BI : swap the bottom pair; BI = TI o FI = FI o TI
    output_flip      OF : exchange the two output rows
    input_flip       IF : exchange the two input columns; IF = FI o OF o FI
    sign_reversal    SR : negate the bottom output row

TI and BI here are the plain partial inversions (no extra sign on the new
input column), which is the unique sign convention making them involutions
and making BI = TI o FI = FI o TI hold exactly; the involution property is
what the rest of the toolkit relies on.

Internal transforms map between continuous and discrete time (Cayley, a.k.a.
Crank-Nicolson / Tustin) or swap low and high frequencies (reciprocal).
External transforms change the port variables: the external Cayley pair
converts impedance to scattering waves against a resistance matrix R, the
hybrid transform partially flow-inverts the bottom port with a sign
reversal, and the chain pair re-partitions a two-port so that cascading
equals Redheffer coupling.

Every inversion and Cayley step is a ``core._gated_solve`` (limit 1e12 on
row scale / sigma_min) and reports the block name and measure on failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import (DiscreteSystem, StateSpaceSystem, _freeze, _gated_solve, _require_positive,
                   _symmetric_eig)
from .errors import (
    DimensionMismatch,
    MinusOneEigenvalue,
    NearSpectrum,
    OneEigenvalue,
    SingularBlock,
    SingularFeedthrough,
    SingularGenerator,
    SingularShiftedFeedthrough,
    SplitMismatch,
)
from .secondorder import _sqrt_of


def _require_even_split(sys: StateSpaceSystem, what: str) -> None:
    if sys.m1 != sys.m2:
        raise SplitMismatch(f"{what} needs m1 == m2, got split {sys.split}")


def _exchange(sys: StateSpaceSystem, inputs: slice, outputs: slice, exc_type,
              block: str) -> StateSpaceSystem:
    """Exchange the input group ``inputs`` with the output group ``outputs``.

    Solving y_O = C_O x + D_OI u_I + D_OR u_R for u_I needs
    X = D[outputs, inputs]^-1 (gated, reported as ``block``).  The freed
    output y_O becomes an input in u_I's slot and u_I an output in y_O's
    slot; every other signal keeps its place.
    """
    M = sys.D[outputs, inputs]
    X = _gated_solve(M, np.eye(M.shape[0]), exc_type, f"{block} is numerically singular")
    Co, Do = sys.C[outputs], sys.D[outputs]
    BX, DX = sys.B[:, inputs] @ X, sys.D[:, inputs] @ X
    B, C, D = sys.B - BX @ Do, sys.C - DX @ Co, sys.D - DX @ Do
    B[:, inputs], C[outputs] = BX, -X @ Co
    D[:, inputs], D[outputs] = DX, -X @ Do
    D[outputs, inputs] = X
    return sys.replace(A=sys.A - BX @ Co, B=B, C=C, D=D)


def _halves_swapped(sys: StateSpaceSystem, what: str) -> np.ndarray:
    _require_even_split(sys, what)
    return np.r_[sys.m1:sys.m, 0:sys.m1]


def _negate_bottom_outputs(sys: StateSpaceSystem) -> StateSpaceSystem:
    sign = np.r_[np.ones(sys.m1), -np.ones(sys.m2)][:, None]
    return sys.replace(C=sign * sys.C, D=sign * sys.D)


# ---------------------------------------------------------------------------
# flow-inversion family

def full_inversion(sys: StateSpaceSystem) -> StateSpaceSystem:
    """FI: (A - B D^-1 C, B D^-1, -D^-1 C, D^-1); transfer is G(s)^-1."""
    return _exchange(sys, slice(None), slice(None), SingularFeedthrough, "D")


def output_flip(sys: StateSpaceSystem) -> StateSpaceSystem:
    """OF: exchange the two output row groups of C and D."""
    p = _halves_swapped(sys, "output flip")
    return sys.replace(C=sys.C[p], D=sys.D[p])


def input_flip(sys: StateSpaceSystem) -> StateSpaceSystem:
    """IF: exchange the two input column groups of B and D (= FI o OF o FI)."""
    p = _halves_swapped(sys, "input flip")
    return sys.replace(B=sys.B[:, p], D=sys.D[:, p])


def sign_reversal(sys: StateSpaceSystem) -> StateSpaceSystem:
    """SR: negate the bottom output rows of C and D."""
    _require_even_split(sys, "sign reversal")
    return _negate_bottom_outputs(sys)


def top_inversion(sys: StateSpaceSystem) -> StateSpaceSystem:
    """TI: exchange the roles of u1 and y1 (partial flow inversion)."""
    top = slice(None, sys.m1)
    return _exchange(sys, top, top, SingularBlock, "D11")


def bottom_inversion(sys: StateSpaceSystem) -> StateSpaceSystem:
    """BI: exchange the roles of u2 and y2 (= TI o FI = FI o TI)."""
    bottom = slice(sys.m1, None)
    return _exchange(sys, bottom, bottom, SingularBlock, "D22")


# ---------------------------------------------------------------------------
# internal transforms (time axis)

def _moebius(M: np.ndarray, N: np.ndarray, B: np.ndarray, C: np.ndarray,
             exc_type, message: str):
    """(M^-1 N, M^-1 B, C M^-1) behind the gate on M, which measures its nearness
    to singularity, not its stiffness: the step both Cayley directions share."""
    X = _gated_solve(M, np.hstack([N, B]), exc_type, message)
    n = M.shape[0]
    return X[:, :n], X[:, n:], np.linalg.solve(M.T, C.T).T


def internal_cayley(sys: StateSpaceSystem, sigma: float) -> DiscreteSystem:
    """Internal Cayley transform (Crank-Nicolson) with finite parameter sigma > 0.

    Ad = (sigma + A)(sigma - A)^-1,  Bd = sqrt(2 sigma) (sigma - A)^-1 B,
    Cd = sqrt(2 sigma) C (sigma - A)^-1,  Dd = G(sigma).
    """
    _require_positive(DimensionMismatch, sigma=sigma)
    I = np.eye(sys.n)
    Ad, MB, CM = _moebius(sigma * I - sys.A, sigma * I + sys.A, sys.B, sys.C, NearSpectrum,
                          f"sigma={sigma} is numerically on the spectrum of A")
    root = np.sqrt(2.0 * sigma)
    return DiscreteSystem(Ad, root * MB, root * CM, sys.D + sys.C @ MB,
                          sigma=sigma, split=sys.split)


def inverse_internal_cayley(phi: DiscreteSystem) -> StateSpaceSystem:
    """Invert the internal Cayley transform; needs -1 off the spectrum of Ad."""
    I = np.eye(phi.n)
    MN, MB, CM = _moebius(I + phi.Ad, I - phi.Ad, phi.Bd, phi.Cd, MinusOneEigenvalue,
                          "I + Ad is numerically singular; Cayley inverse undefined")
    root = np.sqrt(2.0 * phi.sigma)
    return StateSpaceSystem(-phi.sigma * MN, root * MB, root * CM, phi.Dd - phi.Cd @ MB,
                            split=phi.split)


def internal_reciprocal(sys: StateSpaceSystem) -> StateSpaceSystem:
    """Reciprocal system (A^-1, A^-1 B, -C A^-1, G(0)); G_-(s) = G(1/s)."""
    Ainv = _gated_solve(sys.A, np.eye(sys.n), SingularGenerator, "A is numerically singular")
    return StateSpaceSystem(Ainv, Ainv @ sys.B, -sys.C @ Ainv,
                            sys.D - sys.C @ Ainv @ sys.B, split=sys.split)


# ---------------------------------------------------------------------------
# external transforms (port variables)

@dataclass(frozen=True)
class ResistanceMatrix:
    """Block-diagonal characteristic resistance diag(R1, R2), each block SPD.

    A zero-width block (empty array) is allowed so one-port loads can sit on
    either side of a coupling.
    """

    R1: np.ndarray
    R2: np.ndarray

    def __post_init__(self):
        roots = []
        for name in ("R1", "R2"):
            M = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            M, w, V = _symmetric_eig(name, M.reshape(0, 0) if M.size == 0 else M,
                                     definite=True)
            roots.append(_sqrt_of(w, V))
            _freeze(self, **{name: M})
        # sqrt = R^1/2 from the check's eigenpairs, kept for every Cayley step
        _freeze(self, sqrt=scipy.linalg.block_diag(*roots))

    @classmethod
    def scalars(cls, r1: float, r2: float | None = None) -> "ResistanceMatrix":
        R2 = np.zeros((0, 0)) if r2 is None else np.array([[float(r2)]])
        return cls(np.array([[float(r1)]]), R2)

    @property
    def split(self) -> tuple[int, int]:
        return self.R1.shape[0], self.R2.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return scipy.linalg.block_diag(self.R1, self.R2)


def _external(sys: StateSpaceSystem, R: ResistanceMatrix, shifted, sign: float,
              exc_type, block: str, feedthrough) -> StateSpaceSystem:
    """Both external Cayley directions: X = shifted(D)^-1 behind the gate on
    ``block``, then (A + sign B X C, sqrt(2) B X Rh, sqrt(2) Rh X C,
    feedthrough(X, Rh)) with Rh = R^1/2.  The split is checked first, because
    ``shifted`` may add R.matrix to D, which would broadcast a 1x1 R."""
    if R.split != sys.split:
        raise DimensionMismatch(
            f"resistance split {R.split} does not match system split {sys.split}")
    X = _gated_solve(shifted(sys.D), np.eye(sys.m), exc_type,
                     f"{block} is numerically singular")
    Rh = R.sqrt
    B = np.sqrt(2.0) * sys.B @ X @ Rh
    C = np.sqrt(2.0) * Rh @ X @ sys.C
    return StateSpaceSystem(sys.A + sign * (sys.B @ X @ sys.C), B, C, feedthrough(X, Rh),
                            split=sys.split)


def external_cayley(sys_i: StateSpaceSystem, R: ResistanceMatrix) -> StateSpaceSystem:
    """Impedance system -> scattering system with channel resistance R.

    A = A_i - B_i (D_i + R)^-1 C_i,        B = sqrt(2) B_i (D_i + R)^-1 R^1/2,
    C = sqrt(2) R^1/2 (D_i + R)^-1 C_i,    D = I - 2 R^1/2 (D_i + R)^-1 R^1/2.
    Exists for every impedance passive system and invertible R > 0.
    """
    return _external(sys_i, R, lambda D: D + R.matrix, -1.0,
                     SingularShiftedFeedthrough, "D_i + R",
                     lambda X, Rh: np.eye(sys_i.m) - 2.0 * Rh @ X @ Rh)


def inverse_external_cayley(sys: StateSpaceSystem, R: ResistanceMatrix) -> StateSpaceSystem:
    """Scattering system -> impedance system; needs I - D invertible."""
    return _external(sys, R, lambda D: np.eye(sys.m) - D, 1.0, OneEigenvalue, "I - D",
                     lambda X, Rh: Rh @ X @ (np.eye(sys.m) + sys.D) @ Rh)


def hybrid_transform(sys_i: StateSpaceSystem) -> StateSpaceSystem:
    """Partial flow inversion of the bottom port with a sign reversal.

    The bottom output becomes -u2 (current direction flipped so chained
    circuits satisfy Kirchhoff's laws); needs D_i22 invertible.
    """
    return _negate_bottom_outputs(bottom_inversion(sys_i))


def inverse_hybrid(sys_h: StateSpaceSystem) -> StateSpaceSystem:
    """Undo the hybrid transform: BI after negating the bottom outputs.

    The hybrid system's bottom output is -u2; flipping it back and
    exchanging it with the bottom input recovers (u2 input, y2 output).
    """
    return bottom_inversion(_negate_bottom_outputs(sys_h))


def chain_transform(sys: StateSpaceSystem) -> StateSpaceSystem:
    """Chain form: cascading chains equals Redheffer coupling.

    Inputs (u2, y2), outputs (y1, u1): IF after exchanging u1 with y2.
    Needs m1 == m2 and D21 invertible:
        A_c = A - B1 D21^-1 C2
        B_c = [B2 - B1 D21^-1 D22,  B1 D21^-1]
        C_c = [C1 - D11 D21^-1 C2; -D21^-1 C2]
        D_c = [[D12 - D11 D21^-1 D22, D11 D21^-1], [-D21^-1 D22, D21^-1]]
    """
    _require_even_split(sys, "chain transform")
    exchanged = _exchange(sys, slice(None, sys.m1), slice(sys.m1, None), SingularBlock, "D21")
    return input_flip(exchanged)


def inverse_chain(sys_c: StateSpaceSystem) -> StateSpaceSystem:
    """Undo the chain transform (IF o BI); needs the chain system's D22 invertible."""
    _require_even_split(sys_c, "inverse chain transform")
    return input_flip(bottom_inversion(sys_c))
