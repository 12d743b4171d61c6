"""Passivity certificates from one dissipation inequality (Willems, 1972).

A system is passive for a supply w(u, y) when its storage |x|^2 grows by at
most the supply: d/dt |x|^2 <= w (continuous) or |x_{k+1}|^2 - |x_k|^2 <= w
(discrete), with x' or x_{k+1} = A x + B u, y = C x + D u, and w = 2 <u, y>
(impedance) or |u|^2 - |y|^2 (scattering).  Growth minus supply is a
quadratic form in (x, u); ``_dissipation`` builds its matrix, which is
negative semidefinite iff the system is passive and zero iff conservative.
Every verdict carries a signed margin (the matrix's largest eigenvalue,
positive means violation) so callers such as the regularisation and
star-product code can reason about how close to the boundary a system sits.

``impedance_violation_bands`` answers a different question, for systems
with D + D^T > 0: on which frequency bands passivity fails, from the
imaginary-axis eigenvalues of a Hamiltonian matrix, which do not depend on
the state coordinates.

Tolerance policy: a test matrix counts as vanishing when its 2-norm is below
``CONSERVATIVE_RTOL`` times (1 + the largest entry of A, B, C, D); a margin
within ``CONSERVATIVE_RTOL`` (1 + the matrix's norm) of zero counts as the
passive boundary rather than strict passivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DiscreteSystem, StateSpaceSystem, _gate_sigma, _symmetric_eig
from . import transforms

CONSERVATIVE_RTOL = 1e-10

#: A Hamiltonian eigenvalue counts as on the imaginary axis when |Re| is
#: within this fraction of its modulus.  Generous on purpose: a spurious
#: candidate only splits a band, which the midpoint test then rejects.
AXIS_RTOL = 1e-6

#: The relative error of a gated transfer value per unit of its gate
#: measure (row scale / sigma_min): about 45 eps_machine, where
#: eps_machine / 2 already lets the poles of lossless operands read as
#: violations.
EVAL_RTOL = 1e-14

CONSERVATIVE = "Conservative"
STRICTLY_PASSIVE = "StrictlyPassive"
PASSIVE = "Passive"
NOT_PASSIVE = "NotPassive"


@dataclass(frozen=True)
class PassivityCertificate:
    """Verdict plus the numbers it was decided on.

    ``margin`` is the largest eigenvalue of the dissipation matrix, so
    margin > tolerance means the inequality fails for some (x, u);
    ``test_matrix_norm`` is the 2-norm of that matrix.
    ``scattering_conservative_check`` reports other numbers (see there).
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
    lam = np.linalg.eigvalsh(M)
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


def _dissipation(A, B, C, D, supply: str, discrete: bool) -> PassivityCertificate:
    """Classify the storage's growth minus the ``supply``, "impedance" or
    "scattering", as the matrix of a quadratic form in (x, u)."""
    n, m = B.shape
    if discrete:  # |A x + B u|^2 - |x|^2
        growth = [[A.T @ A - np.eye(n), A.T @ B], [B.T @ A, B.T @ B]]
    else:  # 2 <x, A x + B u>
        growth = [[A.T + A, B], [B.T, 0.0]]
    if supply == "impedance":  # 2 <u, C x + D u>
        w = [[0.0, C.T], [C, D + D.T]]
    else:  # |u|^2 - |C x + D u|^2
        w = [[-C.T @ C, -C.T @ D], [-D.T @ C, np.eye(m) - D.T @ D]]
    # block by block, so no full-size zero or difference is formed
    M = np.block([[g - s for g, s in zip(*rows)] for rows in zip(growth, w)])
    return _classify(M, _scale(A, B, C, D))


def impedance_certificate(sys: StateSpaceSystem) -> PassivityCertificate:
    """Continuous-time impedance passivity."""
    return _dissipation(sys.A, sys.B, sys.C, sys.D, "impedance", discrete=False)


def scattering_conservative_check(sys: StateSpaceSystem) -> PassivityCertificate:
    """Continuous-time scattering dissipation, read for conservativity.

    The matrix vanishes iff A + A^T = -C^T C, B = -C^T D and D^T D = I.  The
    verdict is Conservative when it does (2-norm within ``CONSERVATIVE_RTOL``
    times ``test_matrix_norm``), else the scattering passivity verdict.
    Here ``margin`` is that 2-norm, the distance from conservativity, and
    ``test_matrix_norm`` is 1 + the largest entry of A, B, C, D.
    """
    cert = _dissipation(sys.A, sys.B, sys.C, sys.D, "scattering", discrete=False)
    return PassivityCertificate(cert.verdict, cert.test_matrix_norm,
                                _scale(sys.A, sys.B, sys.C, sys.D) + 1.0)


def discrete_scattering_certificate(phi: DiscreteSystem) -> PassivityCertificate:
    """Discrete scattering passivity: S^T S <= I for the system block S."""
    return _dissipation(phi.Ad, phi.Bd, phi.Cd, phi.Dd, "scattering", discrete=True)


def discrete_impedance_certificate(phi: DiscreteSystem) -> PassivityCertificate:
    """Discrete-time impedance passivity."""
    return _dissipation(phi.Ad, phi.Bd, phi.Cd, phi.Dd, "impedance", discrete=True)


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
    (margin 0) is never proper, which is exactly why conservative circuit
    models need the epsilon shift before Redheffer coupling.
    """
    margin = float(np.linalg.eigvalsh(sys.D.T + sys.D).min())
    if margin <= CONSERVATIVE_RTOL * float(np.linalg.norm(sys.D, 2)):
        return False, margin
    return impedance_certificate(sys).passive, margin


def impedance_violation_bands(sys: StateSpaceSystem) -> list[tuple[float, float]]:
    """The bands (lo, hi) in rad/s, 0 <= lo < hi, on which the impedance
    system violates passivity: its Popov function G(iw) + G(iw)^H has a
    negative eigenvalue there.  Needs R = D + D^T positive definite
    (``core._symmetric_eig`` raises NotSPD otherwise).

    The band edges are among the w >= 0 with iw an eigenvalue of the
    Hamiltonian [[F, -B R^-1 B^T], [C^T R^-1 C, -F^T]], F = A - B R^-1 C,
    which are the zeros of det(G(iw) + G(iw)^H) (Boyd, Balakrishnan and
    Kabamba, MCSS 2, 1989).  Past the last one the Popov function keeps
    the sign of R > 0, its value at infinity.  Each interval between
    neighbouring candidates is confirmed by the Popov function at its
    midpoint, and confirmed neighbours merge into one band.  G(iw) is
    solved in real form behind ``core._gate_sigma``; a midpoint confirms
    nothing where the gate rejects it, or where the negative eigenvalue is
    within the evaluation error EVAL_RTOL (row scale / sigma_min) |G|:
    next to a pole of a lossless operand, where G + G^H = R exactly, that
    error swamps the sum.
    """
    _, w, V = _symmetric_eig("D + D^T", sys.D + sys.D.T, definite=True)
    Rinv = (V / w) @ V.T
    F = sys.A - sys.B @ Rinv @ sys.C
    lam = np.linalg.eigvals(np.block([[F, -sys.B @ Rinv @ sys.B.T],
                                      [sys.C.T @ Rinv @ sys.C, -F.T]]))
    axis = lam[np.abs(lam.real) <= AXIS_RTOL * np.abs(lam)]
    edges = np.unique(np.concatenate([[0.0], np.abs(axis.imag)]))
    n, bands = sys.n, []
    for lo, hi in zip(edges[:-1], edges[1:]):
        # i mid I - A in real form, acting on (Re x, Im x)
        mid, eye = 0.5 * (lo + hi), np.eye(n)
        E = np.block([[-sys.A, -mid * eye], [mid * eye, -sys.A]])
        sigma, scale, ok = _gate_sigma(E)
        if not ok:
            continue
        X = np.linalg.solve(E, np.vstack([sys.B, np.zeros_like(sys.B)]))
        G = sys.D + sys.C @ (X[:n] + 1j * X[n:])
        popov = np.linalg.eigvalsh(G + G.conj().T)
        error = EVAL_RTOL * scale / sigma * np.abs(G).max()
        if popov[0] >= -max(CONSERVATIVE_RTOL * np.abs(popov).max(), error):
            continue
        if bands and bands[-1][1] == lo:
            bands[-1] = (bands[-1][0], float(hi))
        else:
            bands.append((float(lo), float(hi)))
    return bands
