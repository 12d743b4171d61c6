"""Passivity certificates for continuous and discrete systems.

A continuous system is impedance passive iff the symmetric block matrix

    [[A^T + A,  B - C^T],
     [B^T - C,  -D^T - D]]

is negative semidefinite, and conservative iff it vanishes.  Discrete-time
scattering/impedance passivity have analogous semidefinite tests.  All
verdicts here come with a signed margin (the worst eigenvalue of the test
matrix, oriented so that positive means violation) so callers such as the
regularisation and star-product code can reason about how close to the
boundary a system sits.

Tolerance policy: a test matrix counts as vanishing when its
2-norm is below ``CONSERVATIVE_RTOL`` times (1 + the norm of its
ingredients); a margin within the same band of zero counts as the passive
boundary rather than strict passivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DiscreteSystem, StateSpaceSystem
from . import transforms

CONSERVATIVE_RTOL = 1e-10

CONSERVATIVE = "Conservative"
STRICTLY_PASSIVE = "StrictlyPassive"
PASSIVE = "Passive"
NOT_PASSIVE = "NotPassive"


@dataclass(frozen=True)
class PassivityCertificate:
    """Verdict plus the numbers it was decided on.

    ``margin`` is the extreme eigenvalue of the test matrix oriented so that
    margin > tolerance means the passivity inequality is violated;
    ``test_matrix_norm`` is the 2-norm of the test matrix itself.
    """

    verdict: str
    margin: float
    test_matrix_norm: float

    @property
    def passive(self) -> bool:
        return self.verdict in (CONSERVATIVE, STRICTLY_PASSIVE, PASSIVE)

    @property
    def conservative(self) -> bool:
        return self.verdict == CONSERVATIVE

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "margin": self.margin,
                "norm": self.test_matrix_norm}


def _classify(test_matrix: np.ndarray, ingredient_scale: float) -> PassivityCertificate:
    """Verdict for a symmetric test matrix oriented as 'passive iff <= 0'."""
    M = 0.5 * (test_matrix + test_matrix.T)
    # one symmetric eigensolve: the 2-norm is the largest |eigenvalue|, and
    # the margin is reported for a vanishing matrix too, where it is roundoff
    lam = np.linalg.eigvalsh(M) if M.size else np.zeros(1)
    norm = float(np.abs(lam).max())
    margin = float(lam.max())
    tol = CONSERVATIVE_RTOL * (1.0 + ingredient_scale)
    if norm <= tol:
        return PassivityCertificate(CONSERVATIVE, margin, norm)
    band = CONSERVATIVE_RTOL * (1.0 + norm)
    if margin < -band:
        return PassivityCertificate(STRICTLY_PASSIVE, margin, norm)
    if margin <= band:
        return PassivityCertificate(PASSIVE, margin, norm)
    return PassivityCertificate(NOT_PASSIVE, margin, norm)


def _scale(*mats: np.ndarray) -> float:
    return max((float(np.abs(m).max()) if m.size else 0.0) for m in mats)


def impedance_certificate(sys: StateSpaceSystem) -> PassivityCertificate:
    """Continuous-time impedance passivity via the symmetric block LMI."""
    M = np.block([[sys.A.T + sys.A, sys.B - sys.C.T],
                  [sys.B.T - sys.C, -sys.D.T - sys.D]])
    return _classify(M, _scale(sys.A, sys.B, sys.C, sys.D))


def scattering_conservative_check(sys: StateSpaceSystem) -> PassivityCertificate:
    """Residual test of the four scattering-conservativity identities.

    A + A^T = -C^T C = -B B^T, C = -D B^T, D^T D = I.  The verdict is
    Conservative when every residual vanishes, NotPassive otherwise (this
    check certifies conservativity only, not plain passivity).
    """
    r = [np.linalg.norm(sys.A + sys.A.T + sys.C.T @ sys.C, 2) if sys.n else 0.0,
         np.linalg.norm(sys.A + sys.A.T + sys.B @ sys.B.T, 2) if sys.n else 0.0,
         np.linalg.norm(sys.C + sys.D @ sys.B.T, 2) if sys.n else 0.0,
         np.linalg.norm(sys.D.T @ sys.D - np.eye(sys.m), 2)]
    scale = _scale(sys.A, sys.B, sys.C, sys.D) + 1.0
    worst = float(max(r))
    if worst <= CONSERVATIVE_RTOL * scale:
        return PassivityCertificate(CONSERVATIVE, worst, scale)
    return PassivityCertificate(NOT_PASSIVE, worst, scale)


def _discrete_block(phi: DiscreteSystem) -> np.ndarray:
    return np.block([[phi.Ad, phi.Bd], [phi.Cd, phi.Dd]])


def discrete_scattering_certificate(phi: DiscreteSystem) -> PassivityCertificate:
    """Discrete scattering passivity: S^T S <= I for the system block S."""
    S = _discrete_block(phi)
    M = S.T @ S - np.eye(S.shape[0])
    return _classify(M, _scale(phi.Ad, phi.Bd, phi.Cd, phi.Dd))


def discrete_impedance_certificate(phi: DiscreteSystem) -> PassivityCertificate:
    """Discrete impedance passivity via its semidefinite test matrix."""
    M = np.block([
        [np.eye(phi.n) - phi.Ad.T @ phi.Ad, phi.Cd.T - phi.Ad.T @ phi.Bd],
        [phi.Cd - phi.Bd.T @ phi.Ad, phi.Dd + phi.Dd.T - phi.Bd.T @ phi.Bd]])
    # oriented 'passive iff >= 0'; negate to reuse the <= 0 classifier
    return _classify(-M, _scale(phi.Ad, phi.Bd, phi.Cd, phi.Dd))


def scattering_passive_via_cayley(sys: StateSpaceSystem,
                                  sigma: float) -> PassivityCertificate:
    """Scattering passivity decided on the internal Cayley transform.

    For a passive system sigma > 0 never hits the spectrum of A; the
    transform itself still gates the resolvent solve and raises
    NearSpectrum for pathological inputs.
    """
    phi = transforms.internal_cayley(sys, sigma)
    return discrete_scattering_certificate(phi)


def properly_impedance_passive(sys: StateSpaceSystem) -> tuple[bool, float]:
    """Impedance passive with invertible D^T + D; returns (flag, margin).

    The margin is the smallest eigenvalue of D^T + D.  A zero feedthrough
    (norm 0) is never proper, which is exactly why conservative circuit
    models need the epsilon shift before Redheffer coupling.
    """
    sym = sys.D.T + sys.D
    margin = float(np.linalg.eigvalsh(sym).min()) if sys.m else 0.0
    dnorm = float(np.linalg.norm(sys.D, 2)) if sys.m else 0.0
    if dnorm == 0.0:
        return False, margin
    if margin <= CONSERVATIVE_RTOL * dnorm:
        return False, margin
    cert = impedance_certificate(sys)
    return cert.passive, margin
