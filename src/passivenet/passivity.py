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

These certificates use the storage P = I.  Proper impedance passivity,
every coupling's premise, uses none, so no state coordinates: D + D^T > 0,
no band of ``impedance_violation_bands`` (from a Hamiltonian's eigenvalues),
a stable A, and a positive semidefinite residue at each pole on the
imaginary axis.

Tolerance policy: a test matrix counts as vanishing when its 2-norm is below
``CONSERVATIVE_RTOL`` times (1 + the largest entry of A, B, C, D); a margin
within ``CONSERVATIVE_RTOL`` (1 + the matrix's norm) of zero counts as the
passive boundary rather than strict passivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DiscreteSystem, StateSpaceSystem, _ResolventPlan, _symmetric_eig
from .errors import NotSPD
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

#: A is stable when no eigenvalue has Re > STABLE_RTOL max|A_ij|: roundoff
#: moves the eigenvalues of a lossless A about eps |A| off the axis, and
#: those within the bound of it are its poles on the axis.  No absolute
#: floor, so that the verdict does not depend on the time unit.
STABLE_RTOL = 1e-9

#: A pole of A on the imaginary axis is probed this fraction of the way to
#: the nearest other pole, where its residue dominates G.
RESIDUE_STEP = 1e-6

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
    """Impedance passive with D^T + D > 0, decided without a storage; returns
    (flag, margin), the margin the smallest eigenvalue of D^T + D.  A zero
    feedthrough is never proper, which is exactly why conservative circuit
    models need the epsilon shift before Redheffer coupling."""
    margin = float(np.linalg.eigvalsh(sys.D.T + sys.D).min())
    try:
        return not _impedance_premise(sys), margin
    except NotSPD:
        return False, margin


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
    midpoint, and confirmed neighbours merge into one band.  All midpoints
    go through one ``core._ResolventPlan``; a midpoint confirms nothing
    where its gate rejects it, or where the negative eigenvalue is within
    the evaluation error EVAL_RTOL (row scale / sigma_min) |G|: next to a
    pole of a lossless operand, where G + G^H = R exactly, that error
    swamps the sum.
    """
    _, w, V = _symmetric_eig("D + D^T", sys.D + sys.D.T, definite=True)
    return _popov_violations(sys, w, V, np.zeros(0))[0]


def _popov_violations(sys: StateSpaceSystem, w: np.ndarray, V: np.ndarray,
                      probes: np.ndarray) -> tuple[list[tuple[float, float]], np.ndarray]:
    """The bands of ``impedance_violation_bands``, given D + D^T = V diag(w) V^T,
    and whether G(s) + G(s)^H has a negative eigenvalue at each of the
    points ``probes``, all on one plan."""
    Rinv = (V / w) @ V.T
    F = sys.A - sys.B @ Rinv @ sys.C
    lam = np.linalg.eigvals(np.block([[F, -sys.B @ Rinv @ sys.B.T],
                                      [sys.C.T @ Rinv @ sys.C, -F.T]]))
    axis = lam[np.abs(lam.real) <= AXIS_RTOL * np.abs(lam)]
    edges = np.unique(np.concatenate([[0.0], np.abs(axis.imag)]))
    points = np.concatenate([0.5j * (edges[:-1] + edges[1:]), probes])
    negative = np.zeros(points.size, dtype=bool)
    if points.size:  # only then a plan: a first Schur form pages in ~1 MB of LAPACK code
        G, ok, sigma, scale = _ResolventPlan(sys.A, sys.B, sys.C, sys.D).evaluate(points)
        popov = np.linalg.eigvalsh(G[ok] + G[ok].conj().transpose(0, 2, 1))
        error = EVAL_RTOL * scale[ok] / sigma[ok] * np.abs(G[ok]).max(axis=(1, 2))
        negative[ok] = popov[:, 0] < -np.maximum(
            CONSERVATIVE_RTOL * np.abs(popov).max(axis=1), error)
    bad = np.zeros(edges.size + 1, dtype=int)  # padded, so every run of bad intervals ends
    bad[1:-1] = negative[:edges.size - 1]
    run = np.diff(bad)  # a band runs over the intervals from a +1 to the next -1
    bands = [(float(edges[a]), float(edges[b]))
             for a, b in zip(np.flatnonzero(run == 1), np.flatnonzero(run == -1))]
    return bands, negative[edges.size - 1:]


def _impedance_premise(sys: StateSpaceSystem) -> str:
    """Why ``sys`` is not properly impedance passive, or ""; NotSPD where
    D + D^T is not definite.  Past the bands, two faults that the Popov
    function on the axis does not see: an eigenvalue of A with
    Re > STABLE_RTOL max|A_ij| (1 + 1/(s - 1) has no band), and a pole on
    the axis whose residue K is not positive semidefinite (1 - 1/s has no
    band either).  K adds about (K + K^H) / delta to G + G^H at delta right
    of its pole, delta RESIDUE_STEP times the distance to the nearest pole
    outside its own cluster (AXIS_RTOL max|A_ij| wide)."""
    _, w, V = _symmetric_eig("D + D^T", sys.D + sys.D.T, definite=True)
    size = np.abs(sys.A).max(initial=0.0)
    lam = np.linalg.eigvals(sys.A)
    poles = 1j * lam[(np.abs(lam.real) <= STABLE_RTOL * size) & (lam.imag >= 0)].imag
    dist = np.abs(poles[:, None] - lam)
    dist[dist <= AXIS_RTOL * size] = np.inf  # the pole's own cluster
    gap = dist.min(axis=1, initial=np.inf)
    lone = np.isinf(gap)
    if lone.any():  # a lone cluster sits at 0, as A is real: G = D + CB/s if semisimple
        gap[lone] = np.abs(sys.C @ sys.B).max() / w.max()
    poles, gap = poles[gap > 0], gap[gap > 0]
    bands, negative = _popov_violations(sys, w, V, poles + RESIDUE_STEP * gap)
    if bands:
        return ("is not impedance passive on "
                + ", ".join(f"{lo:.4g} to {hi:.4g}" for lo, hi in bands) + " rad/s")
    if lam.size and lam.real.max() > STABLE_RTOL * size:
        return f"is not impedance passive: A has the eigenvalue {max(lam, key=np.real):.4g}"
    if negative.any():
        return (f"is not impedance passive: its residue at the pole {poles[negative][0].imag:.4g}j"
                " is not positive semidefinite")
    return ""
